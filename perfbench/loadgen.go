package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// clock is the time source of the open-loop generator; tests substitute a
// fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// poissonSchedule returns the arrival offsets of a Poisson process at rate
// arrivals per second over [0, dur), drawn from seed, conditioned on its
// expected count: exactly round(rate*dur) arrivals, at independent
// uniform times (a Poisson process given its count), in order. Fixing the
// count keeps the offered load the same on every seed; only when the
// arrivals come varies.
func poissonSchedule(seed uint64, rate float64, dur time.Duration) []time.Duration {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	out := make([]time.Duration, int(math.Round(rate*dur.Seconds())))
	for i := range out {
		out[i] = time.Duration(r.Int64N(int64(dur)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// openLoop sends arrival i at start+offsets[i] whether or not earlier ones
// have finished, over at most workers concurrent senders, in due order.
// do receives each arrival's due time, so latencies it measures include
// any wait a stall imposed on later arrivals. openLoop returns once every
// arrival has been handled, with each one's lateness: how long after its
// due time a sender picked it up.
func openLoop(clk clock, start time.Time, offsets []time.Duration, workers int, do func(i int, due time.Time)) samples {
	late := make(samples, len(offsets))
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(offsets) {
					return
				}
				due := start.Add(offsets[i])
				clk.SleepUntil(due)
				late[i] = float64(clk.Now().Sub(due)) / 1e6
				do(i, due)
			}
		}()
	}
	wg.Wait()
	return late
}

// zipfSequence returns n choices among k items whose counts follow Zipf
// popularity exactly (item i weighted (1+i)^-s, item 0 the most popular),
// in an order shuffled by seed. Exact counts keep the mix of hot and cold
// items the same on every seed; only the order varies.
func zipfSequence(seed uint64, s float64, k, n int) []int {
	w := make([]float64, k)
	total := 0.0
	for i := range w {
		w[i] = math.Pow(float64(1+i), -s)
		total += w[i]
	}
	out := make([]int, 0, n)
	acc := 0.0
	for i := range w {
		acc += w[i] / total
		for float64(len(out)) < math.Round(acc*float64(n)) {
			out = append(out, i)
		}
	}
	for len(out) < n { // rounding left the cumulative share a hair under 1
		out = append(out, k-1)
	}
	r := rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d))
	r.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}
