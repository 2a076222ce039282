package vec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The tests in this file pin the platform kernels (SSE on amd64) to the
// portable scalar loops bit for bit, compared with math.Float32bits. Off
// amd64 the platform kernels are the scalar loops, so the tests hold
// trivially there.

// sameBits reports whether got reproduces want: identical bits, or NaN in
// both (NaN payloads depend on operand order, which the kernels need not
// share with the compiler's scalar code).
func sameBits(got, want float32) bool {
	if math.IsNaN(float64(want)) {
		return math.IsNaN(float64(got))
	}
	return math.Float32bits(got) == math.Float32bits(want)
}

// valueRegimes generate the kernel inputs: plain values in [-1,1], wide
// magnitudes from 1e-30 to 1e30 of either sign (products overflow to ±Inf
// and underflow to subnormals or zero), and the special values ±0, ±Inf,
// subnormals and NaN sprinkled among plain values.
var valueRegimes = []struct {
	name string
	gen  func(rng *rand.Rand) float32
}{
	{"plain", func(rng *rand.Rand) float32 { return rng.Float32()*2 - 1 }},
	{"wide", func(rng *rand.Rand) float32 {
		v := float32(math.Pow(10, rng.Float64()*60-30))
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}},
	{"special", func(rng *rand.Rand) float32 {
		switch rng.Intn(16) {
		case 0:
			return 0
		case 1:
			return float32(math.Copysign(0, -1))
		case 2:
			return float32(math.Inf(1))
		case 3:
			return float32(math.Inf(-1))
		case 4:
			return math.Float32frombits(uint32(rng.Intn(1<<23-1)) + 1) // positive subnormal
		case 5:
			return -math.Float32frombits(uint32(rng.Intn(1<<23-1)) + 1)
		case 6:
			return float32(math.NaN())
		default:
			return rng.Float32()*2 - 1
		}
	}},
}

// fillAt returns n generated values starting off floats into a fresh
// buffer, so off = 1..3 hands the kernels vectors that are not 16-byte
// aligned.
func fillAt(rng *rand.Rand, gen func(*rand.Rand) float32, n, off int) []float32 {
	buf := make([]float32, off+n)
	for i := range buf {
		buf[i] = gen(rng)
	}
	return buf[off : off+n : off+n]
}

func TestDotKernelMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, reg := range valueRegimes {
		for n := 0; n <= 300; n++ {
			for off := 0; off < 4; off++ {
				a := fillAt(rng, reg.gen, n, off)
				b := fillAt(rng, reg.gen, n, 3-off)
				if got, want := dot(a, b), dotGeneric(a, b); !sameBits(got, want) {
					t.Fatalf("%s n=%d off=%d: dot = %v (%#x), generic = %v (%#x)",
						reg.name, n, off, got, math.Float32bits(got), want, math.Float32bits(want))
				}
			}
		}
	}
}

func TestAxpyKernelMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, reg := range valueRegimes {
		for n := 0; n <= 300; n++ {
			for off := 0; off < 4; off++ {
				alpha := reg.gen(rng)
				x := fillAt(rng, reg.gen, n, off)
				got := fillAt(rng, reg.gen, n, (off+1)%4)
				want := Clone(got)
				axpy(alpha, x, got)
				axpyGeneric(alpha, x, want)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("%s n=%d off=%d: y[%d] = %v, generic = %v", reg.name, n, off, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestAxpyKernelExactAlias pins the aliasing Axpy documents as allowed:
// x == y doubles-and-adds in place exactly as the scalar loop does.
func TestAxpyKernelExactAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 0; n <= 37; n++ {
		got := fillAt(rng, valueRegimes[0].gen, n, n%4)
		want := Clone(got)
		axpy(0.75, got, got)
		axpyGeneric(0.75, want, want)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("n=%d: y[%d] = %v, generic = %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestDot4KernelMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, reg := range valueRegimes {
		for n := 0; n <= 300; n++ {
			off := n % 4
			q := fillAt(rng, reg.gen, n, off)
			var rows [4][]float32
			for r := range rows {
				rows[r] = fillAt(rng, reg.gen, n, (off+r)%4)
			}
			out := make([]float32, 4)
			dot4(q, rows[0], rows[1], rows[2], rows[3], out)
			for r := range rows {
				if want := dotGeneric(q, rows[r]); !sameBits(out[r], want) {
					t.Fatalf("%s n=%d row %d: dot4 = %v, generic = %v", reg.name, n, r, out[r], want)
				}
			}
		}
	}
}

func TestAxpy4KernelMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, reg := range valueRegimes {
		for n := 0; n <= 300; n++ {
			off := n % 4
			w := fillAt(rng, reg.gen, 4, 3-off)
			var rows [4][]float32
			for r := range rows {
				rows[r] = fillAt(rng, reg.gen, n, (off+r)%4)
			}
			got := fillAt(rng, reg.gen, n, off)
			want := Clone(got)
			axpy4(w, rows[0], rows[1], rows[2], rows[3], got)
			for r := range rows {
				axpyGeneric(w[r], rows[r], want)
			}
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s n=%d: y[%d] = %v, generic = %v", reg.name, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBatchKernelsMatchGeneric drives the exported batch kernels over
// matrices whose backing array starts 0..3 floats into its allocation,
// with row counts and widths that are not multiples of the 4-row block or
// the 4-lane chunk, against per-row dotGeneric/axpyGeneric loops.
func TestBatchKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, reg := range valueRegimes {
		for _, d := range []int{1, 3, 4, 7, 16, 30, 128} {
			for _, rows := range []int{0, 1, 3, 4, 5, 8, 11} {
				off := (d + rows) % 4
				m := MatrixFromData(d, fillAt(rng, reg.gen, rows*d, off))
				q := fillAt(rng, reg.gen, d, 3-off)
				w := fillAt(rng, reg.gen, rows, off)
				idx := rng.Perm(rows)
				if rows > 1 {
					idx = append(idx, idx[0], rows-1) // repeats are legal
				}

				scores := make([]float32, len(idx))
				DotBatch(q, m, scores[:rows])
				for i := 0; i < rows; i++ {
					if want := dotGeneric(q, m.Row(i)); !sameBits(scores[i], want) {
						t.Fatalf("%s d=%d rows=%d: DotBatch[%d] = %v, generic = %v", reg.name, d, rows, i, scores[i], want)
					}
				}
				DotGather(q, m, idx, scores)
				for j, i := range idx {
					if want := dotGeneric(q, m.Row(i)); !sameBits(scores[j], want) {
						t.Fatalf("%s d=%d rows=%d: DotGather[%d] = %v, generic = %v", reg.name, d, rows, j, scores[j], want)
					}
				}

				got := fillAt(rng, reg.gen, d, 0)
				want := Clone(got)
				WeightedSumRange(w, m, 0, rows, got)
				for i := 0; i < rows; i++ {
					axpyGeneric(w[i], m.Row(i), want)
				}
				for c := range want {
					if !sameBits(got[c], want[c]) {
						t.Fatalf("%s d=%d rows=%d: WeightedSumRange[%d] = %v, generic = %v", reg.name, d, rows, c, got[c], want[c])
					}
				}
				gw := fillAt(rng, reg.gen, len(idx), 0)
				WeightedSumGather(gw, m, idx, got)
				for j, i := range idx {
					axpyGeneric(gw[j], m.Row(i), want)
				}
				for c := range want {
					if !sameBits(got[c], want[c]) {
						t.Fatalf("%s d=%d rows=%d: WeightedSumGather[%d] = %v, generic = %v", reg.name, d, rows, c, got[c], want[c])
					}
				}
			}
		}
	}
}

// FuzzDotMatchesGeneric reads two equal-length float32 vectors from the
// input bytes (any bit pattern, NaNs and subnormals included), starting
// off floats into the second one's buffer, and checks dot against
// dotGeneric and dot4 against it row by row.
func FuzzDotMatchesGeneric(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 64, 64, 0, 0, 128, 64}, uint8(1))
	f.Add(make([]byte, 8*37), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		n := len(data) / 8
		shift := int(off % 4)
		buf := make([]float32, 2*n+shift)
		for i := 0; i < 2*n; i++ {
			buf[shift+i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		a, b := buf[shift:shift+n], buf[shift+n:shift+2*n]
		want := dotGeneric(a, b)
		if got := dot(a, b); !sameBits(got, want) {
			t.Fatalf("n=%d: dot = %v (%#x), generic = %v (%#x)", n, got, math.Float32bits(got), want, math.Float32bits(want))
		}
		out := make([]float32, 4)
		dot4(a, b, a, b, b, out)
		for r, row := range [][]float32{b, a, b, b} {
			if want := dotGeneric(a, row); !sameBits(out[r], want) {
				t.Fatalf("n=%d: dot4 row %d = %v, generic = %v", n, r, out[r], want)
			}
		}
	})
}
