package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func namesUnits(ms metrics) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func checkAgainst(t *testing.T, what string, got metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	g := namesUnits(got)
	if len(g) != len(got) {
		t.Errorf("%s: a metric name is reported twice", what)
	}
	for _, m := range got {
		if !metricName.MatchString(m.Name) {
			t.Errorf("%s: metric name %q does not match %s", what, m.Name, metricName)
		}
	}
	w := map[string]string{}
	for _, m := range want {
		w[m.Name] = m.Unit
	}
	for n, u := range w {
		if gu, ok := g[n]; !ok {
			t.Errorf("%s: BENCHMARK.json names %q, the run does not report it", what, n)
		} else if gu != u {
			t.Errorf("%s: %q has unit %q, BENCHMARK.json says %q", what, n, gu, u)
		}
	}
	for n := range g {
		if _, ok := w[n]; !ok {
			t.Errorf("%s: the run reports %q, BENCHMARK.json does not name it", what, n)
		}
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	var got, want []string
	for _, w := range workloads {
		got = append(got, w.name)
	}
	for _, w := range spec.Workloads {
		want = append(want, w.Name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("workloads %v, BENCHMARK.json %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("workloads %v, BENCHMARK.json %v", got, want)
		}
	}
}

func TestTailRule(t *testing.T) {
	mk := func(n int) samples {
		s := make(samples, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // descending, so the rule must sort
		}
		return s
	}
	cases := []struct {
		n     int
		p     float64
		value float64
	}{
		{5, 100, 5},     // too few for any percentile: the maximum
		{20, 50, 10},    // exactly 10 beyond the median
		{99, 50, 50},    // 9 beyond p90: not enough
		{100, 90, 90},   // 10 beyond p90
		{999, 90, 900},  // 9 beyond p99
		{1000, 99, 990}, // 10 beyond p99
		{10000, 99.9, 9990},
	}
	for _, c := range cases {
		tl := mk(c.n).tail()
		if tl.P != c.p || tl.N != c.n || tl.Value != c.value {
			t.Errorf("n=%d: got p%g of n=%d = %g, want p%g = %g", c.n, tl.P, tl.N, tl.Value, c.p, c.value)
		}
		beyond := 0
		for _, x := range mk(c.n) {
			if x > tl.Value {
				beyond++
			}
		}
		if c.p < 100 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, c.p)
		}
	}
	if got := (tail{Value: 1, P: 90, N: 150}).String(); got != "p90 of n=150" {
		t.Errorf("tail prints %q", got)
	}
}

// fakeClock advances only when told to: sleeping moves it to the wake-up
// time, and work moves it by the work's length.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	ms := time.Millisecond
	offsets := []time.Duration{0, 10 * ms, 20 * ms, 100 * ms}
	var lat []time.Duration
	late := openLoop(clk, start, offsets, 1, func(i int, due time.Time) {
		clk.now = clk.now.Add(25 * ms) // every request takes 25ms
		lat = append(lat, clk.Now().Sub(due))
	})
	// One sender: arrivals 1 and 2 queue behind the one before; arrival
	// 3 finds the sender idle and waits for its due time.
	wantLate := []float64{0, 15, 30, 0}
	wantLat := []time.Duration{25 * ms, 40 * ms, 55 * ms, 25 * ms}
	for i := range offsets {
		if late[i] != wantLate[i] || lat[i] != wantLat[i] {
			t.Errorf("arrival %d: late %gms latency %v, want %gms and %v", i, late[i], lat[i], wantLate[i], wantLat[i])
		}
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 50, 10*time.Second)
	b := poissonSchedule(7, 50, 10*time.Second)
	c := poissonSchedule(8, 50, 10*time.Second)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
	if len(a) != 500 || a[len(a)-1] >= 10*time.Second {
		t.Errorf("rate 50/s over 10s gave %d arrivals, the last at %v", len(a), a[len(a)-1])
	}
	if len(c) == len(a) && c[0] == a[0] {
		t.Errorf("different seeds gave the same schedule")
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := span{Start: at(0), End: at(10)}
	cases := []struct {
		kids []span
		want time.Duration
	}{
		{nil, 10 * time.Millisecond},
		{[]span{{Start: at(2), End: at(5)}}, 7 * time.Millisecond},
		// A fan-out: overlapping children are subtracted once, and a
		// child running past the parent is clipped to it.
		{[]span{{Start: at(1), End: at(4)}, {Start: at(3), End: at(6)}, {Start: at(8), End: at(12)}}, 3 * time.Millisecond},
		{[]span{{Start: at(0), End: at(10)}, {Start: at(2), End: at(3)}}, 0},
	}
	for i, c := range cases {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("case %d: self time %v, want %v", i, got, c.want)
		}
	}
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks that every operation succeeds and that the reported metrics are
// exactly the ones BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{seed: 3, seconds: 400 * time.Millisecond, trace: traced, setups: 2, tiny: true, tmpdir: t.TempDir()}
			res, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, res.failed, res.attempted, res.problems)
			}
			if traced {
				checkAgainst(t, w.name+" per-layer", res.layers, spec.PerLayer)
			} else {
				checkAgainst(t, w.name+" end-to-end", res.e2e, spec.EndToEnd)
				if m, _ := res.e2e.get("answer_acc"); m.Value != 1 {
					t.Errorf("%s: answer_acc %g, want 1", w.name, m.Value)
				}
			}
		}
	}
}

// TestCommitStampMarksDirtyTree pins that a checkout with uncommitted
// changes is stamped with a source digest beside its commit, never as the
// clean commit alone.
func TestCommitStampMarksDirtyTree(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-C", dir, "-c", "user.name=t", "-c", "user.email=t@t"}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	src := filepath.Join(dir, "a.go")
	if err := os.WriteFile(src, []byte("package a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	git("init", "-q")
	git("add", "a.go")
	git("commit", "-q", "-m", "a")
	clean := commitOf(dir)
	if len(clean) != 40 || strings.Contains(clean, "dirty") {
		t.Fatalf("clean checkout stamped %q, want the bare commit", clean)
	}
	if err := os.WriteFile(src, []byte("package a\n\nvar x int\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dirty := commitOf(dir)
	if !strings.HasPrefix(dirty, clean+"-dirty+tree:") {
		t.Fatalf("dirty checkout stamped %q, want %q and a tree digest", dirty, clean+"-dirty+")
	}
}
