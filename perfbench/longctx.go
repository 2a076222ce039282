package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"repro/internal/attention"
	"repro/internal/core"
	"repro/internal/devmem"
	"repro/internal/index/graph"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/pkg/alayaclient"
)

// longctx-decode: retrieval and attention do most of the work. Two long
// stored contexts from different task profiles (so retrieval sizes
// differ) sit above LongThreshold on a device too small for coarse
// blocks, so decode plans dipr+fine and dipr+flat; one closed-loop client
// opens fully reusing sessions (no prefill) over the binary HTTP wire,
// alternating the two contexts, decodes a fixed number of steps and
// closes. Transport, prefix trie and spill tier do almost nothing.
//
// One client, not two: every step already fans its heads out over both
// cores, so a second client added under a tenth to decode_tok_s and
// doubled tbt_p50_ms by queueing behind the first, and that queueing
// moved decode_tok_s between runs by more than its bound.

// longctxLimits are the fixed SLO limits of longctx-decode: about twice its TTFT
// and gap tails as first measured (README.md).
var longctxLimits = slo{ttft: 50 * time.Millisecond, tbt: 50 * time.Millisecond}

type longctxSize struct {
	ctxLen   int
	steps    int // decode steps per session
	profiles []string
}

func longctxSizeFor(o options) longctxSize {
	if o.tiny {
		return longctxSize{ctxLen: 512, steps: 4, profiles: []string{"Retr.N", "Code.D"}}
	}
	return longctxSize{ctxLen: 4096, steps: 12, profiles: []string{"Retr.N", "Code.D"}}
}

// retrievalDB opens a DB configured like a serving deployment that must
// retrieve: a short device window and a device sized so no coarse block
// cache fits, so long contexts plan DIPR over the host indexes.
func retrievalDB(m *model.Model) (*core.DB, error) {
	mc := m.Config()
	win := attention.Window{Sinks: 4, Recent: 16}
	winBytes := int64(win.Sinks+win.Recent) * int64(mc.Layers) * int64(mc.KVHeads) * int64(mc.HeadDim) * 4 * 2
	return core.New(core.Config{
		Model:         m,
		Device:        devmem.New(m.WeightsBytes() + 8*winBytes + 4096),
		Window:        win,
		LongThreshold: 256,
		Graph:         graph.Config{Degree: 16, QueryKNN: 12, EfConstruction: 64, Workers: 2},
		Workers:       2,
	})
}

func prepareLongctx(o options) (func() (deployment, setupInfo, error), map[string]interface{}, error) {
	sz := longctxSizeFor(o)
	m := benchModel()
	var tasks []*task
	var caches []*kvcache.Cache
	for i, p := range sz.profiles {
		t, err := genTask(m, p, o.seed*1000+uint64(i)+1, sz.ctxLen, 8, 16)
		if err != nil {
			return nil, nil, err
		}
		tasks = append(tasks, t)
		caches = append(caches, m.BuildKV(t.inst.Doc))
	}
	params := map[string]interface{}{
		"context_tokens": sz.ctxLen, "profiles": sz.profiles, "steps_per_session": sz.steps,
		"clients": 1, "transport": "http+frame", "loop": "closed",
		"slo_ttft_ms": longctxLimits.ttft.Milliseconds(), "slo_tbt_ms": longctxLimits.tbt.Milliseconds(),
	}
	setup := func() (deployment, setupInfo, error) {
		var info setupInfo
		db, err := retrievalDB(m)
		if err != nil {
			return nil, info, err
		}
		start := time.Now()
		for i, t := range tasks {
			if _, err := db.Import(t.inst.Doc, caches[i].Clone()); err != nil {
				db.Close()
				return nil, info, err
			}
		}
		info.importS = time.Since(start).Seconds()
		cp := db.CtxParStats()
		info.indexBuildMS = frac(float64(cp.IndexBuildMillis), float64(cp.IndexBuilds))
		rec := &recorder{}
		svc := serve.NewService(db)
		d := &longctxDep{m: m, sz: sz, seed: o.seed, tasks: tasks, db: db, svc: svc, rec: rec}
		d.tc = newTimedCore(svc, rec, "serve", 0)
		d.ts = mountHTTP(d.tc)
		if err := d.warm(); err != nil {
			d.close()
			return nil, info, err
		}
		return d, info, nil
	}
	return setup, params, nil
}

type longctxDep struct {
	m     *model.Model
	sz    longctxSize
	seed  uint64
	tasks []*task
	db    *core.DB
	svc   *serve.Service
	tc    *timedCore
	ts    *httptest.Server
	rec   *recorder
	runs  int // phases run so far; varies session variants across phases
}

func (d *longctxDep) newClient() (*client, error) {
	cli, err := alayaclient.NewClient(alayaclient.WithBaseURL(d.ts.URL))
	if err != nil {
		return nil, err
	}
	return &client{cli: cli, rec: d.rec}, nil
}

// spec is session n of the client: the contexts take turns.
func (d *longctxDep) spec(n int) sessionSpec {
	t := d.tasks[n%len(d.tasks)]
	return sessionSpec{
		task: t, doc: t.inst.Doc, origin: time.Now(), fullReuse: true,
		steps: d.sz.steps, variant: n,
		tokens: tokenStream(d.m, d.seed<<20^uint64(n)),
	}
}

// warm runs one checked session per context: connections, pooled decode
// state and server buffers are warm before anything is timed.
func (d *longctxDep) warm() error {
	c, err := d.newClient()
	if err != nil {
		return err
	}
	for n := range d.tasks {
		l := runSession(context.Background(), c, d.m, d.spec(n))
		if l.failed > 0 {
			return fmt.Errorf("warm-up: %v", l.problems)
		}
	}
	return nil
}

func (d *longctxDep) phase(ctx context.Context, seconds time.Duration) (*phaseOut, error) {
	d.runs++
	c, err := d.newClient()
	if err != nil {
		return nil, err
	}
	t := newTally(longctxLimits)
	base := d.runs * 100000 // even, so session k and base+k take the same context
	wall := closedLoop(ctx, 1, time.Now().Add(seconds), func(ctx context.Context, _, k int) {
		t.merge(runSession(ctx, c, d.m, d.spec(base+k)))
	})
	if t.steps == 0 {
		return nil, fmt.Errorf("%w: %v", errNoSamples, t.problems)
	}
	return &phaseOut{t: t, wall: wall, sent: t.sessions}, nil
}

func (d *longctxDep) counters() (counters, error) {
	return readCounters([]serve.Core{d.svc}, nil)
}

func (d *longctxDep) replay() replayOut {
	t := d.tasks[0]
	cold := model.NewFiller(d.seed^0xc01d, 512, 64, d.m.Config().Vocab)
	return replay(d.db, d.m, t, t.inst.Doc, cold, 8, tokenStream(d.m, d.seed))
}

func (d *longctxDep) tracing() (*recorder, []*timedCore) { return d.rec, []*timedCore{d.tc} }

func (d *longctxDep) close() {
	d.ts.Close()
	d.svc.Close()
	d.db.Close()
}
