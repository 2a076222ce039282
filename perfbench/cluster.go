package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
	agrpc "repro/internal/serve/grpc"
	"repro/pkg/alayaclient"
)

// cluster-sharded: the router hop, gRPC, the frame codec and the
// log-sum-exp merge. One closed-loop SDK client speaks gRPC to a cluster
// router mounted over two in-process loopback nodes, and alternates
// whole-context routed sessions over a stored context with range-sharded
// sessions (a context longer than the shard threshold, split into spans
// prefilled on their nodes per session, every step fanned out and merged).

// clusterLimits are the fixed SLO limits of cluster-sharded: about twice its TTFT
// and gap tails as first measured (README.md).
var clusterLimits = slo{ttft: 400 * time.Millisecond, tbt: 50 * time.Millisecond}

type clusterSize struct {
	wholeLen, shardedLen, shardTokens, steps int
}

func clusterSizeFor(o options) clusterSize {
	if o.tiny {
		return clusterSize{wholeLen: 256, shardedLen: 512, shardTokens: 256, steps: 4}
	}
	return clusterSize{wholeLen: 1024, shardedLen: 2048, shardTokens: 1024, steps: 8}
}

const clusterNodes = 2

func prepareCluster(o options) (func() (deployment, setupInfo, error), map[string]interface{}, error) {
	sz := clusterSizeFor(o)
	m := benchModel()
	whole, err := genTask(m, "Retr.N", o.seed*1000+700, sz.wholeLen, 8, 16)
	if err != nil {
		return nil, nil, err
	}
	sharded, err := genTask(m, "Retr.N", o.seed*1000+701, sz.shardedLen, 8, 16)
	if err != nil {
		return nil, nil, err
	}
	params := map[string]interface{}{
		"nodes": clusterNodes, "whole_tokens": sz.wholeLen, "sharded_tokens": sz.shardedLen,
		"shard_tokens": sz.shardTokens, "steps_per_session": sz.steps, "clients": 1, "pattern": "whole,whole,whole,sharded",
		"transport": "grpc", "loop": "closed",
		"slo_ttft_ms": clusterLimits.ttft.Milliseconds(), "slo_tbt_ms": clusterLimits.tbt.Milliseconds(),
	}
	setup := func() (deployment, setupInfo, error) {
		var info setupInfo
		d := &clusterDep{m: m, sz: sz, seed: o.seed, tasks: []*task{whole, sharded}, rec: &recorder{}}
		if err := d.start(); err != nil {
			d.close()
			return nil, info, err
		}
		// Store the whole context on its owning node through the router,
		// so routed sessions over it fully reuse.
		start := time.Now()
		l := runSession(context.Background(), d.c, m, sessionSpec{task: whole, doc: whole.inst.Doc, origin: time.Now(), prefill: true, store: true, tokens: tokenStream(m, o.seed)})
		if l.failed > 0 {
			d.close()
			return nil, info, fmt.Errorf("storing the routed context: %v", l.problems)
		}
		info.importS = time.Since(start).Seconds()
		c, err := d.counters()
		if err != nil {
			d.close()
			return nil, info, err
		}
		info.indexBuildMS = frac(float64(c.indexBuildMillis), float64(c.indexBuilds))
		if err := d.warm(); err != nil {
			d.close()
			return nil, info, err
		}
		return d, info, nil
	}
	return setup, params, nil
}

type clusterDep struct {
	m      *model.Model
	sz     clusterSize
	seed   uint64
	tasks  []*task // [0] whole-context, [1] range-sharded
	rec    *recorder
	dbs    []*core.DB
	svcs   []*serve.Service
	mounts []*grpcMount // one per node
	cores  []*timedCore
	router *cluster.Router
	rmount *grpcMount
	rtc    *timedCore
	cli    *alayaclient.Client
	c      *client
	runs   int
}

// start brings up the nodes, the router and the client.
func (d *clusterDep) start() error {
	var addrs []string
	for i := 0; i < clusterNodes; i++ {
		db, err := retrievalDB(d.m)
		if err != nil {
			return err
		}
		d.dbs = append(d.dbs, db)
		svc := serve.NewService(db)
		d.svcs = append(d.svcs, svc)
		tc := newTimedCore(svc, d.rec, "serve", i)
		d.cores = append(d.cores, tc)
		g, err := mountGRPC(tc)
		if err != nil {
			return err
		}
		d.mounts = append(d.mounts, g)
		addrs = append(addrs, g.addr())
	}
	r, err := d.placedRouter(addrs)
	if err != nil {
		return err
	}
	d.router = r
	d.rtc = newTimedCore(r, d.rec, "cluster", -1)
	g, err := mountGRPC(d.rtc)
	if err != nil {
		return err
	}
	d.rmount = g
	cli, err := alayaclient.NewClient(alayaclient.WithGRPCAddr(g.addr()))
	if err != nil {
		return err
	}
	d.cli = cli
	d.c = &client{cli: cli, rec: d.rec}
	return nil
}

// placedRouter starts the router with the two range shards of the
// sharded context on different nodes. Placement hashes the peer names,
// and loopback ports are picked by the kernel, so peers get stable names
// that a custom dialer maps to the real listeners; the first name set
// (in a fixed order) that splits the shards wins. Every run then measures
// a real two-node fan-out, and the placement is a function of the seed.
func (d *clusterDep) placedRouter(addrs []string) (*cluster.Router, error) {
	real := map[string]string{}
	protocols := new(http.Protocols)
	protocols.SetUnencryptedHTTP2(true)
	var dialer net.Dialer
	hc := &http.Client{Transport: &http.Transport{
		Protocols: protocols,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return dialer.DialContext(ctx, network, real[addr])
		},
	}}
	doc := d.tasks[1].inst.Doc
	for set := 0; set < 64; set++ {
		names := make([]string, len(addrs))
		for i, a := range addrs {
			names[i] = fmt.Sprintf("node%d-%d:1", i, set)
			real[names[i]] = a
		}
		r, err := cluster.NewRouter(cluster.Options{Peers: names, ShardTokens: d.sz.shardTokens, ProbeInterval: -1, Dial: []agrpc.DialOption{agrpc.WithHTTPClient(hc)}})
		if err != nil {
			return nil, err
		}
		resp, err := r.CreateSession(&serve.CreateSessionRequest{Seed: doc.Seed, Tokens: doc.Tokens})
		if err != nil {
			r.Close()
			return nil, err
		}
		split := true
		for _, svc := range d.svcs {
			if svc.Healthz().OpenSessions != 1 {
				split = false
			}
		}
		if _, err := r.CloseSession(resp.SessionID); err != nil {
			r.Close()
			return nil, err
		}
		if split {
			return r, nil
		}
		r.Close()
	}
	return nil, fmt.Errorf("no peer naming put the two shards on different nodes")
}

// spec is session k of the client, which runs a fixed pattern: three
// routed whole-context sessions, then one range-sharded session. The
// pattern, not the relative speed of the two kinds, sets the mix of TTFT
// and gap samples, so the median stays inside the routed kind and the
// tail inside the sharded kind. One client keeps a sharded session's
// prefill from stalling another client's decode steps at random points,
// which moved the tail metrics by up to half their value between runs.
func (d *clusterDep) spec(k, variant int) sessionSpec {
	sharded := k%4 == 3
	t := d.tasks[0]
	if sharded {
		t = d.tasks[1]
	}
	return sessionSpec{
		task: t, doc: t.inst.Doc, origin: time.Now(), steps: d.sz.steps, variant: variant,
		fullReuse: !sharded, prefill: sharded,
		tokens: tokenStream(d.m, d.seed<<20^uint64(variant)),
	}
}

func (d *clusterDep) warm() error {
	for _, k := range []int{0, 3} {
		if l := runSession(context.Background(), d.c, d.m, d.spec(k, k)); l.failed > 0 {
			return fmt.Errorf("warm-up: %v", l.problems)
		}
	}
	return nil
}

func (d *clusterDep) phase(ctx context.Context, seconds time.Duration) (*phaseOut, error) {
	d.runs++
	t := newTally(clusterLimits)
	base := d.runs << 24
	wall := closedLoop(ctx, 1, time.Now().Add(seconds), func(ctx context.Context, _, k int) {
		t.merge(runSession(ctx, d.c, d.m, d.spec(k, base+k)))
	})
	if t.steps == 0 {
		return nil, fmt.Errorf("%w: %v", errNoSamples, t.problems)
	}
	return &phaseOut{t: t, wall: wall, sent: t.sessions}, nil
}

func (d *clusterDep) counters() (counters, error) {
	nodes := make([]serve.Core, len(d.svcs))
	for i, s := range d.svcs {
		nodes[i] = s
	}
	return readCounters(nodes, d.router)
}

// replay runs below the node that holds the stored whole context.
func (d *clusterDep) replay() replayOut {
	t := d.tasks[0]
	cold := model.NewFiller(d.seed^0xc01d, 512, 64, d.m.Config().Vocab)
	db := d.dbs[0]
	for _, x := range d.dbs {
		if x.NumContexts() > 0 {
			db = x
		}
	}
	return replay(db, d.m, t, t.inst.Doc, cold, 8, tokenStream(d.m, d.seed))
}

func (d *clusterDep) tracing() (*recorder, []*timedCore) {
	return d.rec, append([]*timedCore{d.rtc}, d.cores...)
}

// close tears down client, router mount, router, then every node.
func (d *clusterDep) close() {
	if d.cli != nil {
		d.cli.Close()
	}
	if d.rmount != nil {
		d.rmount.close()
	}
	if d.router != nil {
		d.router.Close()
	}
	for _, g := range d.mounts {
		g.close()
	}
	for _, s := range d.svcs {
		s.Close()
	}
	for _, db := range d.dbs {
		db.Close()
	}
}
