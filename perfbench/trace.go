package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// span is one timed call at a layer boundary. Spans of one request are
// linked by session id and step sequence: a client span carries the id its
// server returned, a server span the id it served, and a node span of a
// routed session is mapped to its router session through the create spans
// (same document seed, node create inside the router create).
type span struct {
	Name       string // layer.operation, e.g. client.step, serve.step, cluster.step
	Start, End time.Time
	Session    int64  // session id in the namespace of the span's own server
	Seq        int    // step sequence within the session; -1 for other calls
	Seed       uint64 // document seed (create spans only)
	Node       int    // node index behind a router (serve spans only)
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory while tracing is on. A nil or disabled
// recorder records nothing, and every wrapper checks it before reading
// the clock, so an untraced run pays one atomic load per call.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
	// wire bytes (request plus response frame) of a sample of steps
	frameBytes, framedSteps int64
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// addFrames books one step's request and response frame sizes.
func (r *recorder) addFrames(n int) {
	r.mu.Lock()
	r.frameBytes += int64(n)
	r.framedSteps++
	r.mu.Unlock()
}

// bytesPerStep is the mean frame bytes per sampled step.
func (r *recorder) bytesPerStep() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return frac(float64(r.frameBytes), float64(r.framedSteps))
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTime is a parent span's duration minus the part of its interval its
// children cover. Overlapping children (a fan-out) are merged first, so
// parallel work is subtracted once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Time }
	var ivs []iv
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(parent.End) {
			hi = parent.End
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var covered time.Duration
	var cur *iv
	for i := range ivs {
		switch {
		case cur == nil:
			cur = &ivs[i]
		case !ivs[i].lo.After(cur.hi):
			if ivs[i].hi.After(cur.hi) {
				cur.hi = ivs[i].hi
			}
		default:
			covered += cur.hi.Sub(cur.lo)
			cur = &ivs[i]
		}
	}
	if cur != nil {
		covered += cur.hi.Sub(cur.lo)
	}
	return parent.dur() - covered
}

// timedCore is a serve.Core decorator that records one span per call to
// CreateSession, Prefill, Step, Store and CloseSession while its recorder
// is on; every other method is the embedded core's own. It returns the
// inner core's response pointers unchanged, so a transport mounting it
// still releases pooled response buffers through the same Release it
// would call undecorated.
type timedCore struct {
	serve.Core
	rec   *recorder
	layer string // "serve" for a node's Service, "cluster" for the router
	node  int

	inflight    atomic.Int64
	maxInflight atomic.Int64

	mu  sync.Mutex
	seq map[int64]int // next step sequence per session, while tracing
}

func newTimedCore(inner serve.Core, rec *recorder, layer string, node int) *timedCore {
	return &timedCore{Core: inner, rec: rec, layer: layer, node: node, seq: make(map[int64]int)}
}

// begin marks a call in flight and returns its start time.
func (c *timedCore) begin() time.Time {
	n := c.inflight.Add(1)
	for {
		m := c.maxInflight.Load()
		if n <= m || c.maxInflight.CompareAndSwap(m, n) {
			break
		}
	}
	return time.Now()
}

func (c *timedCore) end(op string, start time.Time, id int64, seq int, seed uint64) {
	end := time.Now()
	c.inflight.Add(-1)
	c.rec.add(span{Name: c.layer + "." + op, Start: start, End: end, Session: id, Seq: seq, Seed: seed, Node: c.node})
}

func (c *timedCore) nextSeq(id int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.seq[id]
	c.seq[id] = s + 1
	return s
}

func (c *timedCore) CreateSession(req *serve.CreateSessionRequest) (*serve.CreateSessionResponse, error) {
	if !c.rec.enabled() {
		return c.Core.CreateSession(req)
	}
	start := c.begin()
	resp, err := c.Core.CreateSession(req)
	var id int64
	if resp != nil {
		id = resp.SessionID
	}
	c.end("create", start, id, -1, req.Seed)
	return resp, err
}

func (c *timedCore) Prefill(id int64) (*serve.PrefillResponse, error) {
	if !c.rec.enabled() {
		return c.Core.Prefill(id)
	}
	start := c.begin()
	resp, err := c.Core.Prefill(id)
	c.end("prefill", start, id, -1, 0)
	return resp, err
}

func (c *timedCore) Step(id int64, req *serve.StepRequest) (*serve.StepResponse, error) {
	if !c.rec.enabled() {
		return c.Core.Step(id, req)
	}
	seq := c.nextSeq(id)
	start := c.begin()
	resp, err := c.Core.Step(id, req)
	c.end("step", start, id, seq, 0)
	return resp, err
}

func (c *timedCore) Store(id int64) (*serve.StoreResponse, error) {
	if !c.rec.enabled() {
		return c.Core.Store(id)
	}
	start := c.begin()
	resp, err := c.Core.Store(id)
	c.end("store", start, id, -1, 0)
	return resp, err
}

func (c *timedCore) CloseSession(id int64) (*serve.CloseResponse, error) {
	if !c.rec.enabled() {
		return c.Core.CloseSession(id)
	}
	start := c.begin()
	resp, err := c.Core.CloseSession(id)
	c.end("close", start, id, -1, 0)
	c.mu.Lock()
	delete(c.seq, id)
	c.mu.Unlock()
	return resp, err
}

var _ serve.Core = (*timedCore)(nil)
