//go:build amd64

package vec

import "fmt"

// The kernels below (vec_amd64.s) use only SSE, which is part of the amd64
// baseline, so there is no feature detection. Each takes n > 0 with
// n % 4 == 0; the Go wrappers run the shorter tail in scalar code, in the
// order the generic loops use, so every result is bitwise-identical to
// dotGeneric/axpyGeneric.

// dotSSE accumulates acc[j] = Σ a[i]·b[i] over i ≡ j (mod 4), i < n, with
// one 4-lane MULPS/ADDPS accumulator: lane j is dotGeneric's s_j.
//
//go:noescape
func dotSSE(a, b *float32, n int64, acc *[4]float32)

// dot4SSE is dotSSE for four rows against one query: each query chunk is
// loaded once and feeds four independent accumulators, acc[4r:4r+4] for
// row r, which hides the ADDPS latency without changing any row's order.
//
//go:noescape
func dot4SSE(q, r0, r1, r2, r3 *float32, n int64, acc *[16]float32)

// axpySSE computes y[i] += alpha·x[i] for i < n, four lanes at a time.
//
//go:noescape
func axpySSE(alpha float32, x, y *float32, n int64)

// axpy4SSE computes y[i] += w[0]·r0[i], then += w[1]·r1[i], w[2]·r2[i],
// w[3]·r3[i], for i < n, holding each y chunk in a register across the four
// adds. The per-element order is that of four Axpy calls.
//
//go:noescape
func axpy4SSE(w, r0, r1, r2, r3, y *float32, n int64)

// dot computes Dot(a, b) for len(a) == len(b).
func dot(a, b []float32) float32 {
	var acc [4]float32
	blk := len(a) &^ 3
	if blk > 0 {
		dotSSE(&a[0], &b[0], int64(blk), &acc)
	}
	return dotFinish(acc[:], a, b, blk)
}

// dotFinish completes one row of a kernel: the scalar tail a[from:]·b[from:]
// joins lane 0, then the lanes reduce in dotGeneric's order.
func dotFinish(s []float32, a, b []float32, from int) float32 {
	s0 := s[0]
	b = b[:len(a)]
	for i := from; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s[1] + s[2] + s[3]
}

// dot4 scores q against four rows, out[r] = Dot(q, rows[r]).
func dot4(q, r0, r1, r2, r3, out []float32) {
	n := len(q)
	if len(r0) != n || len(r1) != n || len(r2) != n || len(r3) != n {
		panic(fmt.Sprintf("vec: dot length mismatch: query %d, rows %d %d %d %d", n, len(r0), len(r1), len(r2), len(r3)))
	}
	out = out[:4]
	var acc [16]float32
	blk := n &^ 3
	if blk > 0 {
		dot4SSE(&q[0], &r0[0], &r1[0], &r2[0], &r3[0], int64(blk), &acc)
	}
	out[0] = dotFinish(acc[0:4], q, r0, blk)
	out[1] = dotFinish(acc[4:8], q, r1, blk)
	out[2] = dotFinish(acc[8:12], q, r2, blk)
	out[3] = dotFinish(acc[12:16], q, r3, blk)
}

// axpy computes Axpy(alpha, x, y) for len(x) == len(y).
func axpy(alpha float32, x, y []float32) {
	blk := len(x) &^ 3
	if blk > 0 {
		axpySSE(alpha, &x[0], &y[0], int64(blk))
	}
	y = y[:len(x)]
	for i := blk; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// axpy4 accumulates y += w[0]·r0 + … + w[3]·r3 with the per-element order of
// four Axpy calls.
func axpy4(w, r0, r1, r2, r3, y []float32) {
	n := len(y)
	if len(r0) != n || len(r1) != n || len(r2) != n || len(r3) != n {
		panic(fmt.Sprintf("vec: axpy length mismatch: output %d, rows %d %d %d %d", n, len(r0), len(r1), len(r2), len(r3)))
	}
	w = w[:4]
	blk := n &^ 3
	if blk > 0 {
		axpy4SSE(&w[0], &r0[0], &r1[0], &r2[0], &r3[0], &y[0], int64(blk))
	}
	for i := blk; i < n; i++ {
		v := y[i]
		v += w[0] * r0[i]
		v += w[1] * r1[i]
		v += w[2] * r2[i]
		v += w[3] * r3[i]
		y[i] = v
	}
}
