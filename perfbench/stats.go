package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// tailLadder lists the percentiles a _tail metric may report, highest
// first. The reported one is the highest with at least minBeyond samples
// above it, so a tail is never read off a handful of outliers.
var tailLadder = []float64{99.9, 99, 90, 50}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// samples is a set of latency observations in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/1e6) }

// percentile returns the nearest-rank p-th percentile (0 for no samples).
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c[rankIndex(len(c), p)]
}

// rankIndex is the nearest-rank index of the p-th percentile among n
// sorted samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1 // tolerance: p*n is not exact in binary
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tail is a _tail metric: the value at the highest ladder percentile that
// leaves at least minBeyond samples above it, with the percentile and the
// sample count it was read from.
type tail struct {
	Value float64
	P     float64
	N     int
}

// tailOf applies the tail rule. With fewer than minBeyond+1 samples no
// percentile qualifies and the maximum is reported as p100.
func (s samples) tail() tail {
	n := len(s)
	for _, p := range tailLadder {
		if n-1-rankIndex(n, p) >= minBeyond {
			return tail{Value: s.percentile(p), P: p, N: n}
		}
	}
	return tail{Value: s.percentile(100), P: 100, N: n}
}

func (t tail) String() string {
	return fmt.Sprintf("p%g of n=%d", t.P, t.N)
}

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string // printed beside the value in the human-readable row only
}

// metrics is an ordered metric set.
type metrics []metric

func (ms *metrics) set(name string, v float64, unit string) {
	*ms = append(*ms, metric{Name: name, Value: v, Unit: unit})
}

func (ms *metrics) setTail(name string, t tail, unit string) {
	*ms = append(*ms, metric{Name: name, Value: t.Value, Unit: unit, Note: t.String()})
}

func (ms metrics) get(name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}
