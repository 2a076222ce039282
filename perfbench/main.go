// Command perfbench is the request-path benchmark: it drives the serving
// surface from outside — SDK, HTTP or gRPC transport, serve.Core (Service
// and scheduler, or the cluster router), core, retrieval, attention — over
// one of three workloads generated from a seed, checks every output, and
// prints the end-to-end metrics (or, traced, the per-layer ones). See
// README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	root    string // repository root, for the commit stamp
	tmpdir  string // where a run makes its scratch directories, each removed when done
	setups  int    // set-ups timed for setup_s; the last one is measured
	tiny    bool   // shrink every workload to smoke-test size
}

// deployment is one set-up system a workload measures.
type deployment interface {
	// phase runs one measured phase of the workload's load.
	phase(ctx context.Context, seconds time.Duration) (*phaseOut, error)
	// counters reads the program counters summed over every node.
	counters() (counters, error)
	// replay times a fixed sample of steps below serve.Core.
	replay() replayOut
	// trace returns the deployment's recorder and the decorators it
	// mounted, so a traced phase can switch them on and read them.
	tracing() (*recorder, []*timedCore)
	close()
}

// phaseOut is what one measured phase produced.
type phaseOut struct {
	t    *tally
	wall time.Duration
	late samples // open loop only: how late each arrival was sent
	sent int
}

// setupInfo is what a workload's set-up reports beside its deployment.
type setupInfo struct {
	importS      float64 // seconds spent importing stored contexts
	indexBuildMS float64 // mean index build per imported context
}

// workloadDef is one named workload.
type workloadDef struct {
	name   string
	routed bool // a cluster router is the first server hop
	// prepare builds the seeded inputs once and returns the set-up
	// function (run once per timed set-up) and the workload parameters
	// stamped on the result.
	prepare func(o options) (setup func() (deployment, setupInfo, error), params map[string]interface{}, err error)
}

var workloads = []workloadDef{
	{name: "longctx-decode", prepare: prepareLongctx},
	{name: "chat-prefix", prepare: prepareChat},
	{name: "cluster-sharded", routed: true, prepare: prepareCluster},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// result is one workload run's output.
type result struct {
	workload          string
	e2e, layers       metrics
	attempted, failed int
	problems          []string
	params            map[string]interface{}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var names string
	var seed int64
	var seconds float64
	var trace int
	fs.StringVar(&names, "workload", "", "workload to run: longctx-decode, chat-prefix, cluster-sharded, or all")
	fs.Int64Var(&seed, "seed", 1, "seed the workload inputs are generated from")
	fs.Float64Var(&seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	fs.StringVar(&o.root, "root", ".", "repository root (for the commit stamp)")
	fs.StringVar(&o.tmpdir, "tmpdir", "", "directory for scratch files (default: the system temporary directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if seed < 0 || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seed must be >= 0, --seconds > 0, --trace 0 or 1")
		return 2
	}
	o.seed, o.seconds, o.trace = uint64(seed), time.Duration(seconds*float64(time.Second)), trace == 1
	o.setups = timedSetups
	var defs []workloadDef
	if names == "all" {
		defs = workloads
	} else if w, ok := findWorkload(names); ok {
		defs = []workloadDef{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q\n", names)
		return 2
	}
	st := newStamp(o)
	for _, w := range defs {
		res, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if err := report(stdout, st, o, res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	return 0
}

// timedSetups is how many times an untraced run sets its workload up;
// setup_s is their median.
const timedSetups = 3

// runWorkload sets the workload up (o.setups times untraced, once
// traced), then measures it: untraced, one phase of end-to-end metrics;
// traced, an untraced phase and a traced one, from which come the
// per-layer metrics and the tracing overhead.
func runWorkload(w workloadDef, o options) (*result, error) {
	if o.trace {
		o.setups = 1
	}
	setup, params, err := w.prepare(o)
	if err != nil {
		return nil, err
	}
	var dep deployment
	var info setupInfo
	var times []float64
	for i := 0; i < o.setups; i++ {
		if dep != nil {
			dep.close()
		}
		start := time.Now()
		d, in, err := setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		dep, info = d, in
	}
	defer dep.close()

	ctx := context.Background()
	res := &result{workload: w.name, params: params}
	plain, err := dep.phase(ctx, o.seconds)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		res.attempted, res.failed, res.problems = plain.t.attempted, plain.t.failed, plain.t.problems
		res.e2e.set("setup_s", median(times), "s")
		plain.t.endToEnd(&res.e2e, plain.wall)
		c, err := dep.counters()
		if err != nil {
			return nil, err
		}
		res.e2e.set("resident_mb", float64(c.storedBytes)/1e6, "MB")
		return res, nil
	}

	rec, cores := dep.tracing()
	in := layerInputs{routed: w.routed, importS: info.importS, indexBuildMS: info.indexBuildMS}
	if in.before, err = dep.counters(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&in.mem0)
	rec.on.Store(true)
	traced, err := dep.phase(ctx, o.seconds)
	rec.on.Store(false)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&in.mem1)
	if in.after, err = dep.counters(); err != nil {
		return nil, err
	}
	for _, c := range cores {
		if c.layer == "serve" && c.maxInflight.Load() > in.inflightMax {
			in.inflightMax = c.maxInflight.Load()
		}
	}
	in.spans = rec.snapshot()
	in.t, in.late, in.sent = traced.t, traced.late, traced.sent
	in.bytesPerStep = rec.bytesPerStep()
	if base := plain.t.tbt.percentile(50); base > 0 {
		in.overhead = traced.t.tbt.percentile(50)/base - 1
	}
	in.rp = dep.replay()
	res.layers = perLayer(in)
	res.attempted = plain.t.attempted + traced.t.attempted
	res.failed = plain.t.failed + traced.t.failed
	res.problems = append(plain.t.problems, traced.t.problems...)
	return res, nil
}

// report prints the workload's row, its stamp, and the result line.
func report(w io.Writer, st stamp, o options, res *result) error {
	ms := res.e2e
	kind := "end-to-end"
	if o.trace {
		ms, kind = res.layers, "per-layer"
	}
	var row strings.Builder
	fmt.Fprintf(&row, "%s %s seed=%d:", res.workload, kind, o.seed)
	for _, m := range ms {
		fmt.Fprintf(&row, " %s=%.4g%s", m.Name, m.Value, unitSuffix(m.Unit))
		if m.Note != "" {
			fmt.Fprintf(&row, "[%s]", m.Note)
		}
	}
	fmt.Fprintf(&row, " fail_frac=%.4g[%d/%d]", frac(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	fmt.Fprintln(w, row.String())
	for _, p := range res.problems {
		fmt.Fprintf(w, "%s failure: %s\n", res.workload, p)
	}
	st.Workload, st.Params = res.workload, res.params
	sj, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stamp %s\n", sj)

	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]val{}}
	for _, m := range ms {
		if !metricName.MatchString(m.Name) {
			return fmt.Errorf("metric name %q is malformed", m.Name)
		}
		out.Metrics[m.Name] = val{m.Value, m.Unit}
	}
	if out.Attempted < 1 {
		return errNoSamples
	}
	j, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(j))
	return nil
}

func unitSuffix(u string) string {
	switch u {
	case "frac", "count", "ratio":
		return ""
	}
	return u
}
