package vec

import "fmt"

// This file holds the blocked batch kernels of the zero-allocation decode
// path: scoring a query against many matrix rows at once, and accumulating
// weighted row sums, all into caller-provided buffers. The range kernels
// take the whole span through Matrix.RowSpan — one bounds check per range —
// and walk it in 4-row blocks; none of them allocate. A block goes through
// the 4-row kernels dot4/axpy4 (SSE on amd64), the rows left over after the
// last full block through Dot/Axpy.
//
// Every kernel is bitwise-identical to the per-row formulation it replaces
// (Dot per Row, Axpy per Row): blocks change how storage is addressed, not
// the floating-point accumulation order, so callers may mix blocked and
// per-row paths freely without results diverging. The output of
// WeightedSumRange/WeightedSumGather must not overlap the matrix.

// dotBlock is the number of rows per backing-array block: the row count of
// the dot4 and axpy4 kernels.
const dotBlock = 4

// DotBatchRange computes out[i] = q · m.Row(lo+i) for i in [0, hi-lo),
// walking the backing array in 4-row blocks. out must have at least hi-lo
// entries; q must match the matrix width.
func DotBatchRange(q []float32, m *Matrix, lo, hi int, out []float32) {
	n := hi - lo
	if lo < 0 || hi < lo || hi > m.Rows() {
		panic(fmt.Sprintf("vec: dot batch range [%d,%d) of %d-row matrix", lo, hi, m.Rows()))
	}
	if len(q) != m.cols {
		panic(fmt.Sprintf("vec: dot batch query dim %d, matrix width %d", len(q), m.cols))
	}
	if len(out) < n {
		panic(fmt.Sprintf("vec: dot batch output has %d of %d entries", len(out), n))
	}
	d := m.cols
	span := m.RowSpan(lo, hi)
	i := 0
	for ; i+dotBlock <= n; i += dotBlock {
		off := i * d
		blk := span[off : off+dotBlock*d : off+dotBlock*d]
		dot4(q, blk[:d], blk[d:2*d], blk[2*d:3*d], blk[3*d:], out[i:i+dotBlock])
	}
	for ; i < n; i++ {
		off := i * d
		out[i] = Dot(q, span[off:off+d:off+d])
	}
}

// DotBatch computes out[i] = q · m.Row(i) for every row of m (q·Mᵀ). out
// must have at least m.Rows() entries.
func DotBatch(q []float32, m *Matrix, out []float32) {
	DotBatchRange(q, m, 0, m.Rows(), out)
}

// DotGather computes out[j] = q · m.Row(idx[j]) for every listed row. The
// rows are random-access, so each block of four takes four row slices of
// the backing array instead of one span; nothing is allocated. Indices must
// be in range; out must have at least len(idx) entries.
func DotGather(q []float32, m *Matrix, idx []int, out []float32) {
	if len(q) != m.cols {
		panic(fmt.Sprintf("vec: dot gather query dim %d, matrix width %d", len(q), m.cols))
	}
	if len(out) < len(idx) {
		panic(fmt.Sprintf("vec: dot gather output has %d of %d entries", len(out), len(idx)))
	}
	j := 0
	for ; j+dotBlock <= len(idx); j += dotBlock {
		dot4(q, m.Row(idx[j]), m.Row(idx[j+1]), m.Row(idx[j+2]), m.Row(idx[j+3]), out[j:j+dotBlock])
	}
	for ; j < len(idx); j++ {
		out[j] = Dot(q, m.Row(idx[j]))
	}
}

// WeightedSumRange accumulates out += Σ_i w[i] · m.Row(lo+i), the value mix
// of partial attention over a contiguous row range. len(w) must be hi-lo and
// len(out) must equal the matrix width. Accumulation order matches an Axpy
// per row in ascending order.
func WeightedSumRange(w []float32, m *Matrix, lo, hi int, out []float32) {
	if lo < 0 || hi < lo || hi > m.Rows() {
		panic(fmt.Sprintf("vec: weighted sum range [%d,%d) of %d-row matrix", lo, hi, m.Rows()))
	}
	if len(w) < hi-lo {
		panic(fmt.Sprintf("vec: weighted sum has %d weights for %d rows", len(w), hi-lo))
	}
	if len(out) != m.cols {
		panic(fmt.Sprintf("vec: weighted sum output dim %d, matrix width %d", len(out), m.cols))
	}
	d := m.cols
	n := hi - lo
	span := m.RowSpan(lo, hi)
	i := 0
	for ; i+dotBlock <= n; i += dotBlock {
		off := i * d
		blk := span[off : off+dotBlock*d : off+dotBlock*d]
		axpy4(w[i:i+dotBlock], blk[:d], blk[d:2*d], blk[2*d:3*d], blk[3*d:], out)
	}
	for ; i < n; i++ {
		off := i * d
		Axpy(w[i], span[off:off+d:off+d], out)
	}
}

// WeightedSumGather accumulates out += Σ_j w[j] · m.Row(idx[j]) over listed
// rows, in index order. len(w) must be at least len(idx); len(out) must
// equal the matrix width.
func WeightedSumGather(w []float32, m *Matrix, idx []int, out []float32) {
	if len(w) < len(idx) {
		panic(fmt.Sprintf("vec: weighted sum has %d weights for %d rows", len(w), len(idx)))
	}
	if len(out) != m.cols {
		panic(fmt.Sprintf("vec: weighted sum output dim %d, matrix width %d", len(out), m.cols))
	}
	j := 0
	for ; j+dotBlock <= len(idx); j += dotBlock {
		axpy4(w[j:j+dotBlock], m.Row(idx[j]), m.Row(idx[j+1]), m.Row(idx[j+2]), m.Row(idx[j+3]), out)
	}
	for ; j < len(idx); j++ {
		Axpy(w[j], m.Row(idx[j]), out)
	}
}
