package mat

import (
	"math"
	"math/rand"
	"testing"
)

// The plain loops the blocked kernels replaced, kept as their
// references: one output element at a time, one row at a time.

func gramRangeReference(out, m *Dense) {
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j := i; j < m.rows; j++ {
			rj := m.data[j*m.cols : (j+1)*m.cols]
			var s float64
			for k := range ri {
				s += ri[k] * rj[k]
			}
			out.data[i*out.cols+j] = s
			out.data[j*out.cols+i] = s
		}
	}
}

func mulATBReference(out, a, b *Dense) {
	ac, bc := a.cols, b.cols
	for j := range out.data {
		out.data[j] = 0
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*ac : (i+1)*ac]
		brow := b.data[i*bc : (i+1)*bc]
		for l, v := range arow {
			if v == 0 {
				continue
			}
			orow := out.data[l*bc : (l+1)*bc]
			for j, bij := range brow {
				orow[j] += v * bij
			}
		}
	}
}

func reconstructReference(out, u, vt *Dense, shat []float64) {
	ku, c := u.cols, out.cols
	for i := 0; i < out.rows; i++ {
		orow := out.data[i*c : (i+1)*c]
		for j := range orow {
			orow[j] = 0
		}
		for l, sh := range shat {
			f := u.data[i*ku+l] * sh
			if f == 0 {
				continue
			}
			vrow := vt.data[l*c : (l+1)*c]
			for j, vv := range vrow {
				orow[j] += f * vv
			}
		}
	}
}

// sameBits reports bitwise equality, NaN payloads and zero signs
// included.
func sameBits(a, b *Dense) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Float64bits(a.data[i]) != math.Float64bits(b.data[i]) {
			return false
		}
	}
	return true
}

// spiky returns an r×c normal matrix with exact zeros, negative zeros
// and, where poison is set, ±Inf entries sprinkled in.
func spiky(rng *rand.Rand, r, c int, poison bool) *Dense {
	m := RandomNormal(rng, r, c, 0, 1)
	for i := range m.data {
		switch p := rng.Float64(); {
		case p < 0.1:
			m.data[i] = 0
		case p < 0.15:
			m.data[i] = math.Copysign(0, -1)
		case poison && p < 0.18:
			m.data[i] = math.Inf(1)
		case poison && p < 0.21:
			m.data[i] = math.Inf(-1)
		}
	}
	return m
}

// rowCounts are the row counts the differential tests sweep: every
// remainder mod 4 and the TP-matrix height 10.
var rowCounts = []int{1, 2, 3, 4, 5, 6, 7, 9, 10, 13}

// TestGramMatchesReference: the four-accumulator Gram equals the
// one-dot-product-at-a-time loop bit for bit on row counts of every
// remainder mod 4.
func TestGramMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, r := range rowCounts {
		for _, c := range []int{1, 7, 1024, 4099} {
			m := spiky(rng, r, c, false)
			want := NewDense(r, r)
			gramRangeReference(want, m)
			got := NewDense(r, r)
			GramInto(got, m)
			if !sameBits(got, want) {
				t.Fatalf("%dx%d: Gram differs from the reference loop", r, c)
			}
		}
	}
}

// TestMulATBMatchesReference: the multi-row axpy aᵀ·b equals the
// row-at-a-time loop bit for bit. Zero coefficients (a's entries) sit
// against ±Inf rows of b, where adding 0·Inf would make NaN, so the
// zero skip decides bits here.
func TestMulATBMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, r := range rowCounts {
		for _, k := range []int{1, 2, 3, 5, r} {
			for _, c := range []int{3, 1024} {
				a := spiky(rng, r, k, false)
				b := spiky(rng, r, c, true)
				want := NewDense(k, c)
				mulATBReference(want, a, b)
				got := NewDense(k, c)
				mulATBInto(got, a, b)
				if !sameBits(got, want) {
					t.Fatalf("%dx%d ᵀ· %dx%d: mulATBInto differs from the reference loop", r, k, r, c)
				}
			}
		}
	}
}

// TestReconstructMatchesReference: U·diag(ŝ)·Vᵀ through the multi-row
// axpy equals the component-at-a-time loop bit for bit at rank 0, 1, a
// rank that is not a multiple of 4 and full rank, with zero coefficients
// (zero entries of U or of ŝ) against ±Inf rows of Vᵀ.
func TestReconstructMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, r := range rowCounts {
		for _, rank := range []int{0, 1, min(3, r), r} {
			for _, c := range []int{5, 1024} {
				u := spiky(rng, r, r, false)
				vt := spiky(rng, rank, c, true)
				shat := make([]float64, rank)
				for l := range shat {
					if rng.Float64() < 0.8 {
						shat[l] = rng.ExpFloat64()
					}
				}
				want := NewDense(r, c)
				reconstructReference(want, u, vt, shat)
				got := NewDense(r, c)
				reconstructInto(got, u, shat, vt)
				if !sameBits(got, want) {
					t.Fatalf("%dx%d rank %d: reconstructInto differs from the reference loop", r, c, rank)
				}
			}
		}
	}
}

// TestParallelKernelsMatchNaive pins Mul and mulATBInto to straight
// reference loops in sequential order.
func TestParallelKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := RandomNormal(rng, 23, 310, 0, 1)
	b := RandomNormal(rng, 310, 17, 0, 1)

	naiveMul := NewDense(23, 17)
	for i := 0; i < 23; i++ {
		for j := 0; j < 17; j++ {
			var s float64
			for k2 := 0; k2 < 310; k2++ {
				s += a.At(i, k2) * b.At(k2, j)
			}
			naiveMul.Set(i, j, s)
		}
	}
	if got := a.Mul(b); !got.ApproxEqual(naiveMul, 1e-12) {
		t.Error("Mul deviates from naive triple loop")
	}
	atb := NewDense(310, 310)
	mulATBInto(atb, a, a)
	gramT := a.T().Gram()
	if !atb.ApproxEqual(gramT, 1e-12) {
		t.Error("mulATBInto(aᵀa) deviates from T().Gram()")
	}
}
