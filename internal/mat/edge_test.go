package mat

import (
	"math"
	"math/rand"
	"testing"
)

// TestSVDEmptyMatrix: 0×n and n×0 matrices must decompose into empty
// factors rather than panicking, and SVT on them must return rank 0.
func TestSVDEmptyMatrix(t *testing.T) {
	for _, sh := range [][2]int{{0, 5}, {5, 0}, {0, 0}} {
		m := NewDense(sh[0], sh[1])
		svd := m.SVD()
		if ur, _ := svd.U.Dims(); ur != sh[0] {
			t.Errorf("%dx%d: U has %d rows, want %d", sh[0], sh[1], ur, sh[0])
		}
		if vr, _ := svd.V.Dims(); vr != sh[1] {
			t.Errorf("%dx%d: V has %d rows, want %d", sh[0], sh[1], vr, sh[1])
		}
		if len(svd.S) != 0 {
			t.Errorf("%dx%d: %d singular values, want 0", sh[0], sh[1], len(svd.S))
		}
		d, rank := m.SVT(0.5)
		if dr, dc := d.Dims(); dr != sh[0] || dc != sh[1] || rank != 0 {
			t.Errorf("%dx%d: SVT gave %dx%d rank %d", sh[0], sh[1], dr, dc, rank)
		}
		ws := NewSVTWorkspace()
		out := NewDense(sh[0], sh[1])
		if r := ws.SVTInto(out, m, 0.5); r != 0 {
			t.Errorf("%dx%d: SVTInto rank %d, want 0", sh[0], sh[1], r)
		}
	}
}

// TestSVD1x1 pins the degenerate 1×1 decomposition: σ = |a|, U·S·Vᵀ
// reconstructs the input, SVT shrinks toward zero.
func TestSVD1x1(t *testing.T) {
	for _, v := range []float64{3.5, -2.25, 0} {
		m := NewDense(1, 1)
		m.Set(0, 0, v)
		svd := m.SVD()
		if len(svd.S) != 1 || math.Abs(svd.S[0]-math.Abs(v)) > 1e-15 {
			t.Errorf("value %g: S = %v, want [%g]", v, svd.S, math.Abs(v))
		}
		if rec := svd.Reconstruct(-1); math.Abs(rec.At(0, 0)-v) > 1e-15 {
			t.Errorf("value %g: reconstructed %g", v, rec.At(0, 0))
		}
		d, rank := m.SVT(1.0)
		want := Shrink(v, 1.0)
		if math.Abs(d.At(0, 0)-want) > 1e-15 {
			t.Errorf("value %g: SVT gave %g, want %g (rank %d)", v, d.At(0, 0), want, rank)
		}
	}
}

// TestReconstructKAboveRank: Reconstruct must clamp k to the number of
// components instead of reading out of range, and k beyond the numerical
// rank adds only zero-σ components (no change).
func TestReconstructKAboveRank(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Build an exactly rank-2 4×6 matrix.
	u := RandomNormal(rng, 4, 2, 0, 1)
	v := RandomNormal(rng, 6, 2, 0, 1)
	m := u.Mul(v.T())
	svd := m.SVD()
	full := svd.Reconstruct(-1)
	for _, k := range []int{2, 3, 4, 99, -5} {
		rec := svd.Reconstruct(k)
		if !rec.ApproxEqual(full, 1e-9) {
			t.Errorf("k=%d: reconstruction deviates from full", k)
		}
	}
	if !full.ApproxEqual(m, 1e-9) {
		t.Error("full reconstruction deviates from original")
	}
}

// TestRank1ZeroColumnSum: the power iteration's deterministic start is the
// column-sum vector; a matrix whose columns sum to zero must fall back to
// e₁ and still find the dominant component.
func TestRank1ZeroColumnSum(t *testing.T) {
	// Rows are ±the same vector, so every column sums to exactly zero but
	// the matrix is rank 1 with σ = √2·‖row‖.
	row := []float64{3, -1, 2, 0.5}
	m := NewDense(2, 4)
	for j, v := range row {
		m.Set(0, j, v)
		m.Set(1, j, -v)
	}
	sigma, u, v := m.Rank1()
	var norm float64
	for _, x := range row {
		norm += x * x
	}
	want := math.Sqrt(2 * norm)
	if math.Abs(sigma-want) > 1e-10 {
		t.Fatalf("sigma = %g, want %g", sigma, want)
	}
	// σ·u·vᵀ must reproduce the matrix.
	for i := 0; i < 2; i++ {
		for j := 0; j < 4; j++ {
			if got := sigma * u[i] * v[j]; math.Abs(got-m.At(i, j)) > 1e-9 {
				t.Fatalf("rank-1 reconstruction (%d,%d): %g vs %g", i, j, got, m.At(i, j))
			}
		}
	}

	// The all-zero matrix: σ = 0 and finite vectors, no NaN.
	z := NewDense(3, 3)
	sigma, u, v = z.Rank1()
	if sigma != 0 {
		t.Fatalf("zero matrix sigma = %g", sigma)
	}
	for _, x := range append(append([]float64{}, u...), v...) {
		if math.IsNaN(x) {
			t.Fatal("zero matrix produced NaN singular vectors")
		}
	}
}

// FuzzSVDReconstruct is a property fuzz: for arbitrary small matrices the
// thin SVD must reconstruct the input and produce non-negative descending
// singular values.
func FuzzSVDReconstruct(f *testing.F) {
	f.Add(int64(1), 3, 4)
	f.Add(int64(2), 1, 1)
	f.Add(int64(3), 1, 7)
	f.Add(int64(4), 6, 2)
	f.Fuzz(func(t *testing.T, seed int64, r, c int) {
		r = 1 + abs(r)%8
		c = 1 + abs(c)%8
		rng := rand.New(rand.NewSource(seed))
		m := RandomNormal(rng, r, c, 0, 3)
		svd := m.SVD()
		for i := range svd.S {
			if svd.S[i] < 0 {
				t.Fatalf("negative singular value %g", svd.S[i])
			}
			if i > 0 && svd.S[i] > svd.S[i-1]+1e-12 {
				t.Fatalf("singular values not descending: %v", svd.S)
			}
		}
		if rec := svd.Reconstruct(-1); !rec.ApproxEqual(m, 1e-8*math.Max(1, m.NormFrobenius())) {
			t.Fatal("SVD reconstruction deviates from input")
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
