package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/vec"
)

// counters are the program counters read from Stats() around a measured
// phase, summed over every node a workload runs.
type counters struct {
	storedBytes, spilledBytes                        int64
	spills, spillCacheHits, spillMisses              int64
	tierErrors                                       int64
	prefixLookups, prefixHits, prefixSpillHits, cows int64
	indexBuilds, indexBuildMillis                    int64
	schedItems, schedWaves, schedRejected, maxWave   int64
	reloadP50                                        float64
	merges, unavailable                              int64
}

func readCounters(nodes []serve.Core, router serve.Core) (counters, error) {
	var c counters
	for _, n := range nodes {
		st, err := n.Stats()
		if err != nil {
			return c, err
		}
		c.storedBytes += st.StoredBytes
		c.spilledBytes += st.SpilledBytes
		c.spills += st.Spills
		c.spillCacheHits += st.SpillCacheHits
		c.spillMisses += st.SpillCacheMisses
		c.tierErrors += st.SpillErrors + st.ReloadErrors
		c.prefixLookups += st.PrefixLookups
		c.prefixHits += st.PrefixHits
		c.prefixSpillHits += st.PrefixSpillHits
		c.cows += st.CoWStores
		c.indexBuilds += st.IndexBuilds
		c.indexBuildMillis += st.IndexBuildMillis
		if st.ReloadP50Millis > c.reloadP50 {
			c.reloadP50 = st.ReloadP50Millis
		}
		if s := st.Sched; s != nil {
			c.schedItems += s.Items
			c.schedWaves += s.Waves
			c.schedRejected += s.Rejected
			if s.MaxWave > c.maxWave {
				c.maxWave = s.MaxWave
			}
		}
	}
	if router != nil {
		st, err := router.Stats()
		if err != nil {
			return c, err
		}
		if cl := st.Cluster; cl != nil {
			c.merges = cl.Merges
			c.unavailable = cl.Unavailable
		}
	}
	return c, nil
}

// delta returns the counters accumulated since b. Gauges (stored and
// spilled bytes, the reload median, the largest wave) keep their value
// at the end of the phase.
func (a counters) delta(b counters) counters {
	d := a
	d.spills -= b.spills
	d.spillCacheHits -= b.spillCacheHits
	d.spillMisses -= b.spillMisses
	d.tierErrors -= b.tierErrors
	d.prefixLookups -= b.prefixLookups
	d.prefixHits -= b.prefixHits
	d.prefixSpillHits -= b.prefixSpillHits
	d.cows -= b.cows
	d.indexBuilds -= b.indexBuilds
	d.indexBuildMillis -= b.indexBuildMillis
	d.schedItems -= b.schedItems
	d.schedWaves -= b.schedWaves
	d.schedRejected -= b.schedRejected
	d.merges -= b.merges
	d.unavailable -= b.unavailable
	return d
}

// replayOut is busy time below serve.Core, from a serial replay of a
// fixed sample of steps straight against a core.DB.
type replayOut struct {
	attendUS       map[string]samples // per plan, microseconds per AttentionInto
	appendUS       samples
	prefillPerTokU float64
}

// replay opens a session over doc (prefilling whatever it does not
// reuse) and replays steps decode steps of t's queries head by head, then
// prefills a session over cold from nothing and times that per token.
// The sessions are closed before it returns.
func replay(db *core.DB, m *model.Model, t *task, doc, cold *model.Document, steps int, tokens func(int) model.Token) replayOut {
	mc := m.Config()
	out := replayOut{attendUS: make(map[string]samples)}
	sess, _ := db.CreateSession(doc)
	sess.PrefillRemaining() // a request's suffix; nothing for a stored context
	var res core.AttentionResult
	for i := 0; i < steps; i++ {
		g := t.decode[i%len(t.decode)]
		if i == 0 {
			g = t.question[0]
		}
		start := time.Now()
		sess.AppendToken(tokens(i))
		out.appendUS = append(out.appendUS, float64(time.Since(start))/1e3)
		for l := 0; l < mc.Layers; l++ {
			for h := 0; h < mc.QHeads; h++ {
				start := time.Now()
				sess.AttentionInto(l, h, g[l][h], &res)
				us := float64(time.Since(start)) / 1e3
				p := res.Plan.String()
				out.attendUS[p] = append(out.attendUS[p], us)
			}
		}
	}
	sess.Close()

	coldSess, reused := db.CreateSession(cold)
	start := time.Now()
	n := coldSess.PrefillRemaining()
	if n > 0 && reused < cold.Len() {
		out.prefillPerTokU = float64(time.Since(start)) / 1e3 / float64(n)
	}
	coldSess.Close()
	return out
}

// vecKernels times the scalar kernels at HeadDim: ns per Dot and per Axpy
// call, and the bytes a Dot reads per second (two HeadDim float32
// operands per call, computed from the sizes, not measured).
func vecKernels(dim int) (dotNS, axpyNS, dotGBps float64) {
	a := make([]float32, dim)
	b := make([]float32, dim)
	for i := range a {
		a[i] = float32(i%7) * 0.25
		b[i] = float32(i%5) * 0.5
	}
	const calls = 200000
	var sink float32
	start := time.Now()
	for i := 0; i < calls; i++ {
		sink += vec.Dot(a, b)
	}
	dotNS = float64(time.Since(start)) / calls
	start = time.Now()
	for i := 0; i < calls; i++ {
		vec.Axpy(1e-6, a, b)
	}
	axpyNS = float64(time.Since(start)) / calls
	if sink == 42 { // keeps the loop observable to the compiler
		dotNS++
	}
	dotGBps = float64(2*dim*4) / dotNS
	return
}

// layerInputs is everything a traced phase hands to perLayer.
type layerInputs struct {
	spans         []span
	routed        bool // the first server hop is the cluster router
	before, after counters
	t             *tally
	mem0, mem1    runtime.MemStats
	late          samples
	sent          int
	overhead      float64
	importS       float64
	indexBuildMS  float64
	rp            replayOut
	bytesPerStep  float64
	inflightMax   int64
}

// perLayer derives the per-layer metrics of a traced phase. Every
// workload reports the full set; a layer the workload does not reach
// reads 0.
func perLayer(in layerInputs) metrics {
	var ms metrics
	d := in.after.delta(in.before)
	t := in.t

	// Index the spans: server spans by (session, seq), node spans by
	// node session, router creates for mapping node sessions to router
	// sessions.
	type key struct {
		s   int64
		seq int
	}
	top := "serve"
	if in.routed {
		top = "cluster"
	}
	topStep := map[key]span{}
	var serveStep, serveCreate, servePrefill, serveStore, clusterStep samples
	var routerCreates []span
	type nkey struct {
		node int
		s    int64
	}
	nodeCreates := map[nkey]span{}
	var nodeSteps []span
	for _, s := range in.spans {
		if s.Name == top+".step" {
			topStep[key{s.Session, s.Seq}] = s
		}
		switch s.Name {
		case "serve.step":
			serveStep.add(s.dur())
			nodeSteps = append(nodeSteps, s)
		case "serve.create":
			serveCreate.add(s.dur())
			nodeCreates[nkey{s.Node, s.Session}] = s
		case "serve.prefill":
			servePrefill.add(s.dur())
		case "serve.store":
			serveStore.add(s.dur())
		case "cluster.step":
			clusterStep.add(s.dur())
		case "cluster.create":
			routerCreates = append(routerCreates, s)
		}
	}

	// SDK self time: client step span minus the first server hop's span.
	var clientSelf samples
	for _, s := range in.spans {
		if s.Name != "client.step" {
			continue
		}
		if srv, ok := topStep[key{s.Session, s.Seq}]; ok {
			clientSelf.add(selfTime(s, []span{srv}))
		}
	}
	ms.set("alayaclient.step_self_ms_p50", clientSelf.percentile(50), "ms")
	ms.set("alayaclient.bytes_per_step", in.bytesPerStep, "bytes")

	ms.set("serve.step_ms_p50", serveStep.percentile(50), "ms")
	ms.setTail("serve.step_ms_tail", serveStep.tail(), "ms")
	ms.set("serve.create_ms_p50", serveCreate.percentile(50), "ms")
	ms.set("serve.prefill_ms_p50", servePrefill.percentile(50), "ms")
	ms.set("serve.store_ms_p50", serveStore.percentile(50), "ms")
	ms.set("serve.inflight_max", float64(in.inflightMax), "count")
	ms.set("serve.sched.avg_wave", frac(float64(d.schedItems), float64(d.schedWaves)), "items")
	ms.set("serve.sched.max_wave", float64(d.maxWave), "items")
	ms.set("serve.sched.rejected", float64(d.schedRejected), "count")

	// Cluster: map each node session to its router session (the router
	// create over the same document that encloses the node create), then
	// group node steps under the router step of the same sequence.
	var nodeSlowest, hopSelf, skew samples
	fanout := 0
	if in.routed {
		toRouter := map[nkey]int64{}
		for nk, nc := range nodeCreates {
			for _, rc := range routerCreates {
				if rc.Seed == nc.Seed && !nc.Start.Before(rc.Start) && !nc.End.After(rc.End) {
					toRouter[nk] = rc.Session
					break
				}
			}
		}
		children := map[key][]span{}
		for _, ns := range nodeSteps {
			if rs, ok := toRouter[nkey{ns.Node, ns.Session}]; ok {
				k := key{rs, ns.Seq}
				children[k] = append(children[k], ns)
			}
		}
		for k, rspan := range topStep {
			kids := children[k]
			if len(kids) == 0 {
				continue
			}
			fanout += len(kids)
			slow, fast := kids[0].dur(), kids[0].dur()
			for _, c := range kids[1:] {
				if c.dur() > slow {
					slow = c.dur()
				}
				if c.dur() < fast {
					fast = c.dur()
				}
			}
			nodeSlowest.add(slow)
			hopSelf.add(selfTime(rspan, kids))
			if len(kids) > 1 && fast > 0 {
				skew = append(skew, float64(slow)/float64(fast))
			}
		}
	}
	ms.set("cluster.step_ms_p50", clusterStep.percentile(50), "ms")
	ms.set("cluster.node_step_ms_p50", nodeSlowest.percentile(50), "ms")
	ms.set("cluster.hop_self_ms_p50", hopSelf.percentile(50), "ms")
	ms.set("cluster.node_skew_p50", skew.percentile(50), "ratio")
	ms.set("cluster.fanout_calls_per_step", frac(float64(fanout), float64(len(clusterStep))), "calls")
	ms.set("cluster.merges_per_step", frac(float64(d.merges), float64(len(clusterStep))), "heads")
	ms.set("cluster.unavailable", float64(d.unavailable), "count")

	ms.set("core.reused_frac", frac(float64(t.reused), float64(t.docLen)), "frac")
	ms.set("core.prefix_hit_frac", frac(float64(d.prefixHits), float64(d.prefixLookups)), "frac")
	ms.set("core.prefilled_tokens_per_session", frac(float64(t.prefilled), float64(t.sessions)), "tokens")
	ms.set("core.cow_stores", float64(d.cows), "count")
	ms.set("core.reuse_misses", float64(t.reuseMisses), "count")
	ms.set("core.import_s", in.importS, "s")
	ms.set("core.index_build_ms", in.indexBuildMS, "ms")

	ms.set("storage.reload_frac", frac(float64(d.prefixSpillHits), float64(d.prefixHits)), "frac")
	ms.set("storage.reload_ms_p50", d.reloadP50, "ms")
	ms.set("storage.spills", float64(d.spills), "count")
	ms.set("storage.spilled_mb", float64(d.spilledBytes)/1e6, "MB")
	ms.set("storage.cache_hit_frac", frac(float64(d.spillCacheHits), float64(d.spillCacheHits+d.spillMisses)), "frac")
	ms.set("storage.errors", float64(d.tierErrors), "count")

	ms.set("query.plan_frac.dipr_fine", frac(float64(t.plans["dipr+fine"]), float64(t.heads)), "frac")
	ms.set("query.plan_frac.dipr_flat", frac(float64(t.plans["dipr+flat"]), float64(t.heads)), "frac")
	ms.set("query.plan_frac.full", frac(float64(t.plans["full+none"]), float64(t.heads)), "frac")
	ms.set("query.retrieved_per_head", frac(float64(t.retrieved), float64(t.heads)), "tokens")
	ms.set("query.attended_per_head", frac(float64(t.attended), float64(t.heads)), "tokens")

	ms.set("core.attend_us.dipr_fine", in.rp.attendUS["dipr+fine"].percentile(50), "us")
	ms.set("core.attend_us.dipr_flat", in.rp.attendUS["dipr+flat"].percentile(50), "us")
	ms.set("core.attend_us.full", in.rp.attendUS["full+none"].percentile(50), "us")
	ms.set("core.append_us", in.rp.appendUS.percentile(50), "us")
	ms.set("core.prefill_us_per_token", in.rp.prefillPerTokU, "us")

	dotNS, axpyNS, gbps := vecKernels(benchModel().Config().HeadDim)
	ms.set("vec.dot_ns", dotNS, "ns")
	ms.set("vec.axpy_ns", axpyNS, "ns")
	ms.set("vec.dot_gbps", gbps, "GB/s")

	ms.set("go.allocs_per_step", frac(float64(in.mem1.Mallocs-in.mem0.Mallocs), float64(t.steps)), "allocs")
	ms.set("go.gc_pause_ms", float64(in.mem1.PauseTotalNs-in.mem0.PauseTotalNs)/1e6, "ms")
	ms.set("go.heap_mb", float64(in.mem1.HeapAlloc)/1e6, "MB")

	ms.set("loadgen.late_ms_p99", in.late.percentile(99), "ms")
	ms.set("loadgen.sent", float64(in.sent), "count")
	ms.set("loadgen.ok", float64(t.sessions-t.failedSessions), "count")
	ms.set("loadgen.failed", float64(t.failedSessions), "count")
	ms.set("trace.overhead_frac", in.overhead, "frac")
	return ms
}
