//go:build !amd64

package vec

// dot is the scalar dot off amd64; the amd64 build replaces it with an SSE
// kernel (vec_amd64.s) that is bitwise-identical.
func dot(a, b []float32) float32 { return dotGeneric(a, b) }

// axpy is the scalar Axpy off amd64; see dot.
func axpy(alpha float32, x, y []float32) { axpyGeneric(alpha, x, y) }

// dot4 scores q against four rows, out[r] = Dot(q, rows[r]).
func dot4(q, r0, r1, r2, r3, out []float32) {
	out[0] = Dot(q, r0)
	out[1] = Dot(q, r1)
	out[2] = Dot(q, r2)
	out[3] = Dot(q, r3)
}

// axpy4 accumulates y += w[0]·r0 + … + w[3]·r3 as four Axpy calls in order.
func axpy4(w, r0, r1, r2, r3, y []float32) {
	Axpy(w[0], r0, y)
	Axpy(w[1], r1, y)
	Axpy(w[2], r2, y)
	Axpy(w[3], r3, y)
}
