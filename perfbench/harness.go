package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/serve"
	agrpc "repro/internal/serve/grpc"
	"repro/internal/workload"
	"repro/pkg/alayaclient"
)

// benchModel is the one geometry every workload uses: 4 layers, 8 query
// heads over 2 kv heads, HeadDim 128.
func benchModel() *model.Model {
	cfg := model.Default()
	cfg.Layers = 4
	return model.New(cfg)
}

// grid is one decode step's queries, indexed [layer][query head].
type grid = [][][]float32

func queryGrid(m *model.Model, doc *model.Document, spec model.QuerySpec) grid {
	mc := m.Config()
	g := make(grid, mc.Layers)
	for l := range g {
		g[l] = make([][]float32, mc.QHeads)
		for h := range g[l] {
			g[l][h] = m.QueryVector(doc, l, h, spec)
		}
	}
	return g
}

// task is one document the clients decode over, with its precomputed
// queries: question grids focus on the planted needle and feed the answer
// check; decode grids are the steps after it. Queries are made before the
// measured phase so client-side synthesis never shows in a latency.
type task struct {
	inst     workload.Instance
	question []grid
	decode   []grid
}

func newTask(m *model.Model, inst workload.Instance, nQuestion, nDecode int) *task {
	t := &task{inst: inst}
	n := inst.Doc.Len()
	for i := 0; i < nQuestion; i++ {
		t.question = append(t.question, queryGrid(m, inst.Doc, model.QuerySpec{FocusTopics: inst.Question, Step: i, ContextLen: n}))
	}
	for i := 0; i < nDecode; i++ {
		t.decode = append(t.decode, queryGrid(m, inst.Doc, model.QuerySpec{Step: 1000 + i, ContextLen: n}))
	}
	return t
}

// genTask builds a task from a workload profile.
func genTask(m *model.Model, profile string, seed uint64, n, nQuestion, nDecode int) (*task, error) {
	p, err := workload.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	inst := workload.Generate(p, seed, n, 64, m.Config().Vocab)
	return newTask(m, inst, nQuestion, nDecode), nil
}

// --- transports ---

// mountHTTP serves c over the HTTP transport on a loopback listener.
func mountHTTP(c serve.Core) *httptest.Server {
	return httptest.NewServer(serve.NewServerFor(c).Handler())
}

// grpcMount serves a Core over the gRPC transport on a loopback listener.
type grpcMount struct {
	hs   *http.Server
	ln   net.Listener
	done chan struct{}
}

func mountGRPC(c serve.Core) (*grpcMount, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("grpc listen: %w", err)
	}
	g := &grpcMount{ln: ln, done: make(chan struct{})}
	g.hs = agrpc.NewHTTPServer(ln.Addr().String(), agrpc.NewServerFor(c).Handler())
	go func() {
		defer close(g.done)
		g.hs.Serve(ln)
	}()
	return g, nil
}

func (g *grpcMount) addr() string { return g.ln.Addr().String() }

// close stops the listener and waits for the serve loop to return.
func (g *grpcMount) close() {
	g.hs.Close()
	<-g.done
}

// --- client side ---

// client wraps the SDK and records one client span per call while tracing.
type client struct {
	cli *alayaclient.Client
	rec *recorder
}

func (c *client) trace(op string, start time.Time, id int64, seq int) {
	c.rec.add(span{Name: "client." + op, Start: start, End: time.Now(), Session: id, Seq: seq})
}

func (c *client) create(ctx context.Context, doc *model.Document) (*alayaclient.Session, error) {
	if !c.rec.enabled() {
		return c.cli.CreateSession(ctx, doc)
	}
	start := time.Now()
	s, err := c.cli.CreateSession(ctx, doc)
	var id int64
	if s != nil {
		id = s.ID
	}
	c.trace("create", start, id, -1)
	return s, err
}

func (c *client) prefill(ctx context.Context, s *alayaclient.Session) (serve.PrefillResponse, error) {
	if !c.rec.enabled() {
		return s.Prefill(ctx)
	}
	start := time.Now()
	r, err := s.Prefill(ctx)
	c.trace("prefill", start, s.ID, -1)
	return r, err
}

func (c *client) step(ctx context.Context, s *alayaclient.Session, seq int, tok model.Token, g grid) (alayaclient.StepResponse, error) {
	if !c.rec.enabled() {
		return s.Step(ctx, tok, g)
	}
	start := time.Now()
	req := serve.StepRequest{Token: tok, Queries: g}
	r, err := s.Step(ctx, tok, g)
	c.trace("step", start, s.ID, seq)
	if err == nil && seq < framedSteps {
		// Sized after the span closes, so encoding never shows in it.
		a, aerr := serve.MarshalFrame(&req)
		b, berr := serve.MarshalFrame(&r)
		if aerr == nil && berr == nil {
			c.rec.addFrames(len(a) + len(b))
		}
	}
	return r, err
}

func (c *client) store(ctx context.Context, s *alayaclient.Session) (serve.StoreResponse, error) {
	if !c.rec.enabled() {
		return s.Store(ctx)
	}
	start := time.Now()
	r, err := s.Store(ctx)
	c.trace("store", start, s.ID, -1)
	return r, err
}

func (c *client) close(ctx context.Context, s *alayaclient.Session) error {
	if !c.rec.enabled() {
		return s.CloseSession(ctx)
	}
	start := time.Now()
	err := s.CloseSession(ctx)
	c.trace("close", start, s.ID, -1)
	return err
}

// framedSteps is how many leading steps of each traced session are sized
// for alayaclient.bytes_per_step: the frame bytes a step puts on the wire
// are computed by encoding the request and response once more.
const framedSteps = 2

// --- one session, checked ---

// sessionSpec describes one session a client runs: open it over doc, run
// steps decode steps (the first with a question grid), optionally prefill
// before and store after, then close it.
type sessionSpec struct {
	task      *task
	doc       *model.Document // task.inst.Doc, or a request built on it
	origin    time.Time       // TTFT is measured from here: the open call, or an arrival's due time
	fullReuse bool            // the document is a stored context: CreateSession must reuse all of it
	wantReuse int             // tokens a stored prefix should serve; fewer count as a reuse miss
	prefill   bool
	store     bool
	steps     int
	variant   int // selects the question grid and the decode grid offset
	tokens    func(i int) model.Token
}

// sessionLog is one session's accounting, merged into a tally when done.
type sessionLog struct {
	attempted, failed int
	problems          []string
	ttft              time.Duration
	gaps              []time.Duration
	steps             int
	questions, right  int
	plans             map[string]int
	heads             int64
	retrieved         int64
	attended          int64
	reused, docLen    int64
	reuseMisses       int
	prefilled         int64
}

func (l *sessionLog) fail(format string, args ...interface{}) {
	l.failed++
	if len(l.problems) < 4 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// runSession runs one checked session. Every operation counts as
// attempted; an error or a failed output check counts as failed and ends
// the session (after a close attempt).
func runSession(ctx context.Context, c *client, m *model.Model, sp sessionSpec) *sessionLog {
	log := &sessionLog{ttft: -1, plans: make(map[string]int)}
	doc := sp.doc
	log.attempted++
	sess, err := c.create(ctx, doc)
	if err != nil {
		log.fail("create: %v", err)
		return log
	}
	defer func() {
		log.attempted++
		if err := c.close(ctx, sess); err != nil {
			log.fail("close: %v", err)
		}
	}()
	log.reused += int64(sess.Reused)
	log.docLen += int64(doc.Len())
	if sp.fullReuse && sess.Reused != doc.Len() {
		log.fail("create reused %d tokens of a %d-token stored context", sess.Reused, doc.Len())
		return log
	}
	if sess.Reused < sp.wantReuse {
		log.reuseMisses++
	}
	if sp.prefill {
		log.attempted++
		pr, err := c.prefill(ctx, sess)
		if err != nil {
			log.fail("prefill: %v", err)
			return log
		}
		if pr.ContextLen != doc.Len() || pr.Prefilled != doc.Len()-sess.Reused {
			log.fail("prefill reported %d prefilled to length %d, want %d to %d", pr.Prefilled, pr.ContextLen, doc.Len()-sess.Reused, doc.Len())
			return log
		}
		log.prefilled += int64(pr.Prefilled)
	}
	t := sp.task
	last := time.Now()
	for i := 0; i < sp.steps; i++ {
		g := t.decode[(sp.variant+i)%len(t.decode)]
		if i == 0 {
			g = t.question[sp.variant%len(t.question)]
		}
		log.attempted++
		resp, err := c.step(ctx, sess, i, sp.tokens(i), g)
		now := time.Now()
		if err != nil {
			log.fail("step %d: %v", i, err)
			return log
		}
		if msg := checkStep(m, &resp, doc.Len()+i+1); msg != "" {
			log.fail("step %d: %s", i, msg)
			return log
		}
		if i == 0 {
			log.ttft = now.Sub(sp.origin)
			log.questions++
			if decodeAnswer(m, &resp) == t.inst.Answer {
				log.right++
			}
		} else {
			log.gaps = append(log.gaps, now.Sub(last))
		}
		last = now
		log.steps++
		for _, layer := range resp.Layers {
			for _, h := range layer {
				log.plans[h.Plan]++
				log.heads++
				log.retrieved += int64(h.Retrieved)
				log.attended += int64(h.Attended)
			}
		}
	}
	if sp.store {
		log.attempted++
		st, err := c.store(ctx, sess)
		if err != nil {
			log.fail("store: %v", err)
			return log
		}
		if want := doc.Len() + sp.steps; st.StoredTokens != want {
			log.fail("store kept %d tokens, want %d", st.StoredTokens, want)
		}
	}
	return log
}

// checkStep validates one step response: layers x heads outputs of
// HeadDim finite floats, and the context length the step should have
// reached. It returns "" when the response is well formed.
func checkStep(m *model.Model, r *serve.StepResponse, wantLen int) string {
	mc := m.Config()
	if r.ContextLen != wantLen {
		return fmt.Sprintf("context_len %d, want %d", r.ContextLen, wantLen)
	}
	if len(r.Layers) != mc.Layers {
		return fmt.Sprintf("%d layers, want %d", len(r.Layers), mc.Layers)
	}
	for l, layer := range r.Layers {
		if len(layer) != mc.QHeads {
			return fmt.Sprintf("layer %d has %d heads, want %d", l, len(layer), mc.QHeads)
		}
		for h, a := range layer {
			if len(a.Output) != mc.HeadDim {
				return fmt.Sprintf("layer %d head %d output has %d floats, want %d", l, h, len(a.Output), mc.HeadDim)
			}
			for _, x := range a.Output {
				if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
					return fmt.Sprintf("layer %d head %d output is not finite", l, h)
				}
			}
		}
	}
	return ""
}

// decodeAnswer decodes the payload the retrieval heads of a step point at.
func decodeAnswer(m *model.Model, r *serve.StepResponse) int {
	var outs []model.HeadOutput
	for _, hr := range m.RetrievalHeads() {
		outs = append(outs, model.HeadOutput{Layer: hr.Layer, QHead: hr.QHead, Output: r.Layers[hr.Layer][hr.QHead].Output})
	}
	return m.DecodeAnswer(outs)
}

// --- aggregation ---

// slo is a workload's fixed latency limits.
type slo struct{ ttft, tbt time.Duration }

// tally aggregates every session of a measured phase.
type tally struct {
	limits slo

	mu                sync.Mutex
	ttft, tbt         samples
	sessions, sloOK   int
	failedSessions    int
	attempted, failed int
	problems          []string
	steps             int
	questions, right  int
	plans             map[string]int
	heads             int64
	retrieved         int64
	attended          int64
	reused, docLen    int64
	reuseMisses       int
	prefilled         int64
}

func newTally(limits slo) *tally { return &tally{limits: limits, plans: make(map[string]int)} }

func (t *tally) merge(l *sessionLog) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sessions++
	if l.failed > 0 {
		t.failedSessions++
	}
	t.attempted += l.attempted
	t.failed += l.failed
	for _, p := range l.problems {
		if len(t.problems) < 8 {
			t.problems = append(t.problems, p)
		}
	}
	ok := l.failed == 0 && l.ttft >= 0 && l.ttft <= t.limits.ttft
	if l.ttft >= 0 {
		t.ttft.add(l.ttft)
	}
	for _, g := range l.gaps {
		t.tbt.add(g)
		if g > t.limits.tbt {
			ok = false
		}
	}
	if ok {
		t.sloOK++
	}
	t.steps += l.steps
	t.questions += l.questions
	t.right += l.right
	for k, v := range l.plans {
		t.plans[k] += v
	}
	t.heads += l.heads
	t.retrieved += l.retrieved
	t.attended += l.attended
	t.reused += l.reused
	t.docLen += l.docLen
	t.prefilled += l.prefilled
	t.reuseMisses += l.reuseMisses
}

// endToEnd fills the end-to-end metrics a phase measured.
func (t *tally) endToEnd(ms *metrics, wall time.Duration) {
	ms.set("ttft_p50_ms", t.ttft.percentile(50), "ms")
	ms.setTail("ttft_tail_ms", t.ttft.tail(), "ms")
	ms.set("tbt_p50_ms", t.tbt.percentile(50), "ms")
	ms.setTail("tbt_tail_ms", t.tbt.tail(), "ms")
	ms.set("decode_tok_s", float64(t.steps)/wall.Seconds(), "tok/s")
	ms.set("slo_ok_frac", frac(float64(t.sloOK), float64(t.sessions)), "frac")
	ms.set("answer_acc", frac(float64(t.right), float64(t.questions)), "frac")
}

// failErr summarizes the phase's failures, or nil.
func (t *tally) failErr() error {
	if t.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d operations failed: %v", t.failed, t.attempted, t.problems)
}

// closedLoop runs one goroutine per client; each runs sessions back to
// back until the deadline, finishing the session in flight. It returns
// the phase's wall time.
func closedLoop(ctx context.Context, clients int, deadline time.Time, run func(ctx context.Context, worker, n int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline) && ctx.Err() == nil; n++ {
				run(ctx, w, n)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// tokenStream returns a seeded stream of decode tokens for one session.
func tokenStream(m *model.Model, seed uint64) func(i int) model.Token {
	vocab := uint64(m.Config().Vocab)
	return func(i int) model.Token {
		h := splitmix(seed ^ uint64(i)*0x9e3779b97f4a7c15)
		return model.Token{Topic: int(h % 64), Payload: int((h >> 16) % vocab), Salience: 0}
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

var errNoSamples = errors.New("measured phase produced no samples")
