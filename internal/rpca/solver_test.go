package rpca

import (
	"math"
	"math/rand"
	"testing"

	"netconstant/internal/mat"
)

// syntheticTP builds a fat temporal-performance-style matrix: a low-rank
// constant component plus sparse spikes, the workload the solvers target.
func syntheticTP(rng *rand.Rand, r, c, rank int, spikeFrac float64) *mat.Dense {
	u := mat.RandomNormal(rng, r, rank, 0, 1)
	v := mat.RandomNormal(rng, c, rank, 0, 1)
	a := mat.NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			var s float64
			for l := 0; l < rank; l++ {
				s += u.At(i, l) * v.At(j, l)
			}
			a.Set(i, j, 10+s)
		}
	}
	n := int(spikeFrac * float64(r*c))
	for k := 0; k < n; k++ {
		a.Set(rng.Intn(r), rng.Intn(c), 10+20*rng.NormFloat64())
	}
	return a
}

// TestSolverMatchesPackageFunctions pins the arena solver to the
// package-level entry point (itself arena-backed, so this is a
// reuse-vs-fresh consistency check: a recycled Solver must give the same
// answers as a throwaway one).
func TestSolverMatchesPackageFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewSolver()
	for trial := 0; trial < 3; trial++ {
		a := syntheticTP(rng, 24, 256, 3, 0.05)

		fresh, err := Decompose(a, Options{MaxIter: 120})
		if err != nil {
			t.Fatal(err)
		}
		reused, err := s.Decompose(a, Options{MaxIter: 120})
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Iterations != reused.Iterations || fresh.RankD != reused.RankD {
			t.Fatalf("trial %d: fresh (it=%d rank=%d) vs reused (it=%d rank=%d)",
				trial, fresh.Iterations, fresh.RankD, reused.Iterations, reused.RankD)
		}
		if d := fresh.D.Sub(reused.D).NormFrobenius(); d != 0 {
			t.Fatalf("trial %d: reused solver D deviates by %g", trial, d)
		}
	}
}

// TestSolverResultsDetached checks the returned matrices are copies, not
// arena aliases: a later solve must not mutate an earlier result.
func TestSolverResultsDetached(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := NewSolver()
	a1 := syntheticTP(rng, 16, 128, 2, 0.05)
	a2 := syntheticTP(rng, 16, 128, 2, 0.05)
	r1, err := s.Decompose(a1, Options{MaxIter: 80})
	if err != nil {
		t.Fatal(err)
	}
	d1 := r1.D.Clone()
	if _, err := s.Decompose(a2, Options{MaxIter: 80}); err != nil {
		t.Fatal(err)
	}
	if r1.D.Sub(d1).NormFrobenius() != 0 {
		t.Fatal("second solve mutated the first result: arena leaked into Result")
	}
}

// TestIALMStepAllocationFree is the headline regression for the arena
// solver: once it is bound and past the cold SVT, each IALM iteration,
// masked variant included, must perform zero heap allocations.
func TestIALMStepAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := syntheticTP(rng, 48, 512, 3, 0.05)

	s := NewSolver()
	if _, err := s.Decompose(a, Options{MaxIter: 4}); err != nil {
		t.Fatal(err)
	}
	it := ialmIter{s: s, a: a, lambda: 1 / math.Sqrt(512), mu: 0.1, muBar: 1e6}
	for k := 0; k < 10; k++ {
		it.step()
	}
	if allocs := testing.AllocsPerRun(20, func() { it.step() }); allocs != 0 {
		t.Fatalf("IALM step allocates %.1f objects/iteration, want 0", allocs)
	}

	// Masked: mark ~10% of entries unobserved, rebuild the fill, re-warm.
	mask := mat.NewDense(48, 512)
	md := mask.Data()
	for i := range md {
		if rng.Float64() < 0.9 {
			md[i] = 1
		}
	}
	if _, err := s.DecomposeMasked(a, mask, Options{MaxIter: 4}); err != nil {
		t.Fatal(err)
	}
	itm := ialmIter{s: s, a: s.fill, lambda: 1 / math.Sqrt(512), mu: 0.1, muBar: 1e6, masked: true}
	for k := 0; k < 10; k++ {
		itm.step()
	}
	if allocs := testing.AllocsPerRun(20, func() { itm.step() }); allocs != 0 {
		t.Fatalf("masked IALM step allocates %.1f objects/iteration, want 0", allocs)
	}
}

// TestSolverMaskedMatchesPackage: reused solver on the masked route agrees
// with the package function and keeps interpolating gaps.
func TestSolverMaskedMatchesPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := syntheticTP(rng, 20, 160, 2, 0.03)
	mask := mat.NewDense(20, 160)
	md := mask.Data()
	for i := range md {
		if rng.Float64() < 0.85 {
			md[i] = 1
		}
	}
	fresh, err := DecomposeMasked(a, mask, Options{MaxIter: 150})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver()
	// Prior unrelated solve: the arena must be fully re-initialized.
	if _, err := s.Decompose(syntheticTP(rng, 20, 160, 4, 0.1), Options{MaxIter: 30}); err != nil {
		t.Fatal(err)
	}
	reused, err := s.DecomposeMasked(a, mask, Options{MaxIter: 150})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Iterations != reused.Iterations || fresh.D.Sub(reused.D).NormFrobenius() != 0 {
		t.Fatalf("masked reuse deviates: it %d vs %d, |ΔD| = %g",
			fresh.Iterations, reused.Iterations, fresh.D.Sub(reused.D).NormFrobenius())
	}
}

// referenceStep is the IALM iteration as separate whole-matrix passes:
// the D-step, then LinComb3Into, a soft-threshold loop and a mask loop
// for E, LinComb3Into and a mask loop for Z, Y += μZ, the fill refresh
// and NormFrobenius — the loops step fuses into one. z is its residual
// scratch.
func referenceStep(it *ialmIter, z *mat.Dense) (resid float64, rank int) {
	s := it.s
	inv := 1 / it.mu
	mat.LinComb3Into(s.t, 1, it.a, -1, s.e, inv, s.y)
	rank = s.svt.SVTInto(s.d, s.t, inv)

	mat.LinComb3Into(s.t, 1, it.a, -1, s.d, inv, s.y)
	ed := s.e.Data()
	for i, v := range s.t.Data() {
		ed[i] = mat.Shrink(v, it.lambda*inv)
	}
	if it.masked {
		for i, ob := range s.obs {
			if !ob {
				ed[i] = 0
			}
		}
	}
	mat.LinComb3Into(z, 1, it.a, -1, s.d, -1, s.e)
	zd := z.Data()
	if it.masked {
		for i, ob := range s.obs {
			if !ob {
				zd[i] = 0
			}
		}
	}
	yd := s.y.Data()
	for i, v := range zd {
		yd[i] += it.mu * v
	}
	it.mu = math.Min(muGrowth*it.mu, it.muBar)
	if it.masked {
		fd, dd := it.a.Data(), s.d.Data()
		for i, ob := range s.obs {
			if !ob {
				fd[i] = dd[i] + ed[i]
			}
		}
	}
	return z.NormFrobenius(), rank
}

// TestIALMStepMatchesReference runs the fused step and the pass-by-pass
// reference side by side from the same state, on the plain and the
// masked route, at a TP-matrix shape, an odd row count and a tall shape,
// and requires every iterate, the fill, the residual and the rank to
// agree bit for bit after every iteration.
func TestIALMStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	same := func(a, b *mat.Dense) bool {
		ad, bd := a.Data(), b.Data()
		for i := range ad {
			if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
				return false
			}
		}
		return true
	}
	for _, sh := range [][2]int{{10, 1024}, {7, 300}, {256, 10}} {
		r, c := sh[0], sh[1]
		a := syntheticTP(rng, min(r, c), max(r, c), 2, 0.05)
		if r > c {
			a = a.T()
		}
		mask := mat.NewDense(r, c)
		for i, md := 0, mask.Data(); i < len(md); i++ {
			if rng.Float64() < 0.9 {
				md[i] = 1
			}
		}
		for _, masked := range []bool{false, true} {
			opts := Options{MaxIter: 1, Lambda: 1 / math.Sqrt(float64(min(r, c)))}
			iters := [2]ialmIter{}
			for k, s := range []*Solver{NewSolver(), NewSolver()} {
				work := a
				if masked {
					if _, err := s.DecomposeMasked(a, mask, opts); err != nil {
						t.Fatal(err)
					}
					work = s.fill
				} else if _, err := s.Decompose(a, opts); err != nil {
					t.Fatal(err)
				}
				mu := mu0Scale / a.NormSpectral() * muGrowth
				iters[k] = ialmIter{s: s, a: work, lambda: opts.Lambda, mu: mu, muBar: mu * muCapRatio, masked: masked}
			}
			fused, ref := &iters[0], &iters[1]
			z := mat.NewDense(r, c)
			for k := 0; k < 25; k++ {
				gotResid, gotRank := fused.step()
				wantResid, wantRank := referenceStep(ref, z)
				fs, rs := fused.s, ref.s
				if math.Float64bits(gotResid) != math.Float64bits(wantResid) || gotRank != wantRank ||
					fused.mu != ref.mu || !same(fs.d, rs.d) || !same(fs.e, rs.e) || !same(fs.y, rs.y) || !same(fused.a, ref.a) {
					t.Fatalf("%dx%d masked=%v iteration %d: fused step (resid %v, rank %d) differs from the reference (resid %v, rank %d)",
						r, c, masked, k, gotResid, gotRank, wantResid, wantRank)
				}
			}
		}
	}
}
