package mat

import (
	"math"
	"math/rand"
	"testing"
)

// lowRankPlusNoise builds a rank-k r×c matrix with singular values around
// scale, plus small dense noise — the shape of an RPCA iterate.
func lowRankPlusNoise(rng *rand.Rand, r, c, k int, scale, noise float64) *Dense {
	u := RandomNormal(rng, r, k, 0, 1)
	v := RandomNormal(rng, c, k, 0, 1)
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			var s float64
			for l := 0; l < k; l++ {
				s += u.At(i, l) * v.At(j, l)
			}
			m.Set(i, j, scale*s/float64(k)+noise*rng.NormFloat64())
		}
	}
	return m
}

// TestSVTWorkspaceFatFullMatchesSVT pins the allocation-free Gram route to
// the existing Dense.SVT on fat and tall matrices: it must agree to
// rounding error in both reconstruction and rank.
func TestSVTWorkspaceFatFullMatchesSVT(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sh := range [][2]int{{24, 300}, {31, 200}, {300, 24}} {
		r, c := sh[0], sh[1]
		m := lowRankPlusNoise(rng, r, c, 5, 40, 0.05)
		want, wantRank := m.SVT(3.0)
		ws := NewSVTWorkspace()
		got := NewDense(r, c)
		rank := ws.SVTInto(got, m, 3.0)
		if rank != wantRank {
			t.Fatalf("%dx%d: rank = %d, want %d", r, c, rank, wantRank)
		}
		if !got.ApproxEqual(want, 1e-9*math.Max(1, want.NormFrobenius())) {
			t.Fatalf("%dx%d: full fat route deviates from Dense.SVT", r, c)
		}
	}
}

// TestSVTWorkspaceSquareMatchesSVT checks the square-ish route delegates to
// the exact Dense.SVT arithmetic.
func TestSVTWorkspaceSquareMatchesSVT(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := lowRankPlusNoise(rng, 40, 50, 4, 30, 0.1)
	want, wantRank := m.SVT(2.0)
	ws := NewSVTWorkspace()
	got := NewDense(40, 50)
	rank := ws.SVTInto(got, m, 2.0)
	if rank != wantRank || !bitsEqual(got, want) {
		t.Fatalf("square route: rank %d vs %d, bitwise match %v", rank, wantRank, bitsEqual(got, want))
	}
}

// TestSVTWorkspaceRankGrowth feeds a matrix whose rank jumps far past the
// previous call's: the answer must match the exact SVT and, bit for bit,
// a fresh workspace's — a call depends on its input alone.
func TestSVTWorkspaceRankGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	r, c := 48, 512
	ws := NewSVTWorkspace()
	got := NewDense(r, c)

	low := lowRankPlusNoise(rng, r, c, 2, 60, 0.01)
	ws.SVTInto(got, low, 5.0) // the previous call, at rank ≈ 2

	high := lowRankPlusNoise(rng, r, c, 20, 60, 0.01)
	want, wantRank := high.SVT(5.0)
	rank := ws.SVTInto(got, high, 5.0)
	if rank != wantRank {
		t.Fatalf("rank growth: rank = %d, want %d", rank, wantRank)
	}
	if diff := NormFroDiff(got, want); diff > 1e-6*math.Max(1, want.NormFrobenius()) {
		t.Fatalf("rank growth: result off by %g", diff)
	}
	fresh := NewDense(r, c)
	if rank := NewSVTWorkspace().SVTInto(fresh, high, 5.0); rank != wantRank || !bitsEqual(got, fresh) {
		t.Fatalf("rank growth: result depends on the previous call (fresh rank %d, bitwise match %v)", rank, bitsEqual(got, fresh))
	}
}

// TestSVTWorkspaceLeadingSubspace: after a fat or tall call the workspace
// records rank+slack orthonormal left vectors of the fat orientation whose
// leading rank columns span the thresholded output's columns; a
// square-ish call clears them.
func TestSVTWorkspaceLeadingSubspace(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	ws := NewSVTWorkspace()
	if u, _, _ := ws.LeadingSubspace(); u != nil {
		t.Fatal("fresh workspace reports a subspace")
	}
	for _, sh := range [][2]int{{24, 300}, {300, 24}} {
		r, c := sh[0], sh[1]
		m := lowRankPlusNoise(rng, r, c, 3, 40, 0.05)
		got := NewDense(r, c)
		rank := ws.SVTInto(got, m, 3.0)
		u, rows, k := ws.LeadingSubspace()
		if rank == 0 || rows != min(r, c) || k != rank+svtSlack || len(u) != rows*k {
			t.Fatalf("%dx%d: rank %d, subspace %dx%d over %d values", r, c, rank, rows, k, len(u))
		}
		q := NewDenseData(rows, k, append([]float64(nil), u...))
		checkOrthonormalCols(t, q, 1e-10)
		ur := NewDense(rows, rank)
		for i := 0; i < rows; i++ {
			copy(ur.Row(i), q.Row(i)[:rank])
		}
		fat := got
		if r > c {
			fat = got.T()
		}
		proj := ur.Mul(ur.T().Mul(fat))
		if diff := NormFroDiff(proj, fat); diff > 1e-10*math.Max(1, fat.NormFrobenius()) {
			t.Fatalf("%dx%d: output leaves the leading subspace by %g", r, c, diff)
		}
	}
	ws.SVTInto(NewDense(40, 50), lowRankPlusNoise(rng, 40, 50, 3, 30, 0.1), 2.0)
	if u, _, _ := ws.LeadingSubspace(); u != nil {
		t.Fatal("square-ish call left a subspace")
	}
}

// TestSVTWorkspaceZeroResult thresholds everything away: result must be
// the zero matrix with rank 0 on every repeated call.
func TestSVTWorkspaceZeroResult(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	r, c := 20, 200
	m := lowRankPlusNoise(rng, r, c, 3, 1, 0.01)
	ws := NewSVTWorkspace()
	got := NewDense(r, c)
	for step := 0; step < 3; step++ {
		if rank := ws.SVTInto(got, m, 1e9); rank != 0 {
			t.Fatalf("step %d: rank = %d, want 0", step, rank)
		}
		for i, v := range got.data {
			if v != 0 {
				t.Fatalf("step %d: element %d = %g, want 0", step, i, v)
			}
		}
	}
}

// TestSVTWorkspaceShapeRebind changes shape mid-stream; the workspace must
// re-size its buffers without corruption.
func TestSVTWorkspaceShapeRebind(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	ws := NewSVTWorkspace()
	for _, sh := range [][2]int{{24, 300}, {16, 128}, {24, 300}} {
		r, c := sh[0], sh[1]
		m := lowRankPlusNoise(rng, r, c, 3, 30, 0.05)
		want, wantRank := m.SVT(2.0)
		got := NewDense(r, c)
		rank := ws.SVTInto(got, m, 2.0)
		if rank != wantRank {
			t.Fatalf("%dx%d: rank = %d, want %d", r, c, rank, wantRank)
		}
		if diff := NormFroDiff(got, want); diff > 1e-6*math.Max(1, want.NormFrobenius()) {
			t.Fatalf("%dx%d: rebind result off by %g", r, c, diff)
		}
	}
}

// TestSVTWorkspaceParallelDeterminism: workspace results must be bitwise
// identical at any parallelism.
func TestSVTWorkspaceParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	r, c := 48, 512
	seq := make([]*Dense, 4)
	par := make([]*Dense, 4)
	iterates := make([]*Dense, 4)
	for i := range iterates {
		iterates[i] = lowRankPlusNoise(rng, r, c, 4, 60, 0.02)
	}
	run := func(dst []*Dense) {
		ws := NewSVTWorkspace()
		for i, m := range iterates {
			dst[i] = NewDense(r, c)
			ws.SVTInto(dst[i], m, 5.0)
		}
	}
	withParallelism(1, func() { run(seq) })
	withParallelism(8, func() { run(par) })
	for i := range seq {
		if !bitsEqual(seq[i], par[i]) {
			t.Fatalf("iterate %d: SVTInto differs between 1 and 8 workers", i)
		}
	}
}
