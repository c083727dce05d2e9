package rpca

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netconstant/internal/mat"
)

// synth builds A = lowrank(rank) + sparse(density, amplitude) and returns
// all three matrices.
func synth(rng *rand.Rand, r, c, rank int, density, amplitude float64) (a, d, e *mat.Dense) {
	u := mat.RandomNormal(rng, r, rank, 0, 1)
	v := mat.RandomNormal(rng, c, rank, 0, 1)
	d = u.Mul(v.T())
	e = mat.NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				sign := 1.0
				if rng.Float64() < 0.5 {
					sign = -1
				}
				e.Set(i, j, sign*amplitude*(0.5+rng.Float64()))
			}
		}
	}
	a = d.Add(e)
	return a, d, e
}

func TestDecomposeExactRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, dTrue, eTrue := synth(rng, 40, 40, 2, 0.05, 10)
	res, err := Decompose(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("did not converge")
	}
	relD := res.D.Sub(dTrue).NormFrobenius() / dTrue.NormFrobenius()
	relE := res.E.Sub(eTrue).NormFrobenius() / math.Max(1, eTrue.NormFrobenius())
	if relD > 0.02 {
		t.Errorf("low-rank recovery error %.4f", relD)
	}
	if relE > 0.1 {
		t.Errorf("sparse recovery error %.4f", relE)
	}
	if res.RankD > 6 {
		t.Errorf("rank blew up: %d", res.RankD)
	}
}

func TestDecomposeRank1TPStyle(t *testing.T) {
	// A TP-matrix-like input: all rows equal a constant vector plus sparse
	// spikes — exactly the paper's model. RPCA must recover the constant.
	rng := rand.New(rand.NewSource(2))
	n, m := 10, 64 // 10 calibrations of an 8-VM cluster
	constant := make([]float64, m)
	for j := range constant {
		constant[j] = 50 + 100*rng.Float64()
	}
	a := constantMatrix(constant, n)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if rng.Float64() < 0.08 {
				a.Set(i, j, a.At(i, j)+200*rng.Float64())
			}
		}
	}
	res, err := Decompose(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	row := ConstantRow(res.D, ExtractMean)
	if rd := RelDiff(row, constant); rd > 0.05 {
		t.Errorf("constant row relative difference %.4f", rd)
	}
}

func TestDecomposeSumInvariant(t *testing.T) {
	// D + E must approximate A tightly after convergence.
	rng := rand.New(rand.NewSource(3))
	a, _, _ := synth(rng, 20, 30, 3, 0.1, 5)
	res, err := Decompose(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	diff := res.D.Add(res.E).Sub(a).NormFrobenius() / a.NormFrobenius()
	if diff > 1e-4 {
		t.Errorf("A = D + E violated: rel %v", diff)
	}
}

func TestDecomposeZeroMatrix(t *testing.T) {
	res, err := Decompose(mat.NewDense(5, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("zero matrix should converge trivially")
	}
	if res.D.NormFrobenius() != 0 || res.E.NormFrobenius() != 0 {
		t.Error("zero decomposition expected")
	}
}

func TestDecomposeEmpty(t *testing.T) {
	if _, err := Decompose(mat.NewDense(0, 5), Options{}); err == nil {
		t.Error("empty matrix should error")
	}
}

func TestDecomposeMaxIter(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, _, _ := synth(rng, 15, 15, 2, 0.1, 5)
	res, err := Decompose(a, Options{MaxIter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("2 iterations should not converge")
	}
	if res.Iterations != 2 {
		t.Errorf("iterations %d", res.Iterations)
	}
}

func TestDecomposeCustomLambda(t *testing.T) {
	// Large lambda forces E towards zero; D absorbs everything.
	rng := rand.New(rand.NewSource(5))
	a, _, _ := synth(rng, 12, 12, 2, 0.1, 5)
	res, err := Decompose(a, Options{Lambda: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.E.NormL1() > 1e-6*a.NormL1() {
		t.Errorf("huge lambda should suppress E, got ‖E‖₁=%v", res.E.NormL1())
	}
}

func TestIALMExactRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a, dTrue, eTrue := synth(rng, 40, 40, 2, 0.05, 10)
	res, err := Decompose(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("IALM did not converge")
	}
	relD := res.D.Sub(dTrue).NormFrobenius() / dTrue.NormFrobenius()
	relE := res.E.Sub(eTrue).NormFrobenius() / math.Max(1, eTrue.NormFrobenius())
	if relD > 0.02 {
		t.Errorf("IALM low-rank recovery error %.4f", relD)
	}
	if relE > 0.1 {
		t.Errorf("IALM sparse recovery error %.4f", relE)
	}
}

func TestIALMSumInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a, _, _ := synth(rng, 15, 20, 2, 0.1, 5)
	res, err := Decompose(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rel := res.D.Add(res.E).Sub(a).NormFrobenius() / a.NormFrobenius()
	if rel > 1e-5 {
		t.Errorf("A = D + E violated: %v", rel)
	}
}

func TestIALMEdgeCases(t *testing.T) {
	if _, err := Decompose(mat.NewDense(0, 3), Options{}); err == nil {
		t.Error("empty should error")
	}
	res, err := Decompose(mat.NewDense(4, 4), Options{})
	if err != nil || !res.Converged {
		t.Error("zero matrix should converge trivially")
	}
	// MaxIter respected.
	rng := rand.New(rand.NewSource(25))
	a, _, _ := synth(rng, 10, 10, 2, 0.1, 5)
	lim, err := Decompose(a, Options{MaxIter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if lim.Iterations != 2 || lim.Converged {
		t.Errorf("MaxIter handling: %d converged=%v", lim.Iterations, lim.Converged)
	}
}

func TestConstantRowMethodsAgreeOnCleanInput(t *testing.T) {
	p := []float64{1, 2, 3, 4}
	d := constantMatrix(p, 6)
	for _, m := range []ExtractMethod{ExtractMean, ExtractMedian, ExtractRank1} {
		row := ConstantRow(d, m)
		for j := range p {
			if math.Abs(row[j]-p[j]) > 1e-9 {
				t.Errorf("method %v: row[%d]=%v want %v", m, j, row[j], p[j])
			}
		}
	}
}

func TestConstantRowMedianRobustness(t *testing.T) {
	p := []float64{10, 20, 30}
	d := constantMatrix(p, 5)
	d.Set(0, 0, 1e6) // one gross outlier
	mean := ConstantRow(d, ExtractMean)
	med := ConstantRow(d, ExtractMedian)
	if math.Abs(med[0]-10) > 1e-9 {
		t.Errorf("median should resist outlier: %v", med[0])
	}
	if math.Abs(mean[0]-10) < 1 {
		t.Errorf("mean should be pulled by outlier: %v", mean[0])
	}
}

func TestConstantRowMedianEvenRows(t *testing.T) {
	d := mat.FromRows([][]float64{{1}, {3}, {5}, {7}})
	med := ConstantRow(d, ExtractMedian)
	if med[0] != 4 {
		t.Errorf("even-row median %v", med[0])
	}
}

func TestConstantRowEmpty(t *testing.T) {
	row := ConstantRow(mat.NewDense(0, 3), ExtractMean)
	if len(row) != 3 {
		t.Error("empty extraction length")
	}
}

// constantMatrix replicates row p into an n-row matrix — the TC-matrix
// N_D of the paper, whose rank is one by construction.
func constantMatrix(p []float64, n int) *mat.Dense {
	m := mat.NewDense(n, len(p))
	for i := 0; i < n; i++ {
		copy(m.Row(i), p)
	}
	return m
}

func TestConstantMatrixRank(t *testing.T) {
	m := constantMatrix([]float64{1, 2, 3}, 4)
	if r := m.Rank(0); r != 1 {
		t.Errorf("TC-matrix rank %d, want 1", r)
	}
}

func TestRelNorm(t *testing.T) {
	a := mat.FromRows([][]float64{{10, 10}, {10, 10}})
	e := mat.FromRows([][]float64{{1, 1}, {1, 1}})
	if v := RelNorm(e, a, NormL1, 0); math.Abs(v-0.1) > 1e-12 {
		t.Errorf("L1 relnorm %v", v)
	}
	if v := RelNorm(e, a, NormFro, 0); math.Abs(v-0.1) > 1e-12 {
		t.Errorf("Fro relnorm %v", v)
	}
	// L0: all |e|=1 > 1e-3·10, all |a|=10 > threshold → ratio 1.
	if v := RelNorm(e, a, NormL0, 0); v != 1 {
		t.Errorf("L0 relnorm %v", v)
	}
	// L0 with a coarser threshold that excludes E entries.
	if v := RelNorm(e, a, NormL0, 0.5); v != 0 {
		t.Errorf("L0 coarse relnorm %v", v)
	}
	// Zero denominator.
	z := mat.NewDense(2, 2)
	if RelNorm(e, z, NormL1, 0) != 0 {
		t.Error("zero denominator should give 0")
	}
	// Clamp to 1.
	big := mat.FromRows([][]float64{{100, 100}, {100, 100}})
	if RelNorm(big, a, NormL1, 0) != 1 {
		t.Error("relnorm should clamp at 1")
	}
}

func TestRelDiff(t *testing.T) {
	if v := RelDiff([]float64{1, 2}, []float64{1, 2}); v != 0 {
		t.Errorf("identical reldiff %v", v)
	}
	if v := RelDiff([]float64{2, 2}, []float64{1, 3}); math.Abs(v-0.5) > 1e-12 {
		t.Errorf("reldiff %v", v)
	}
	if !math.IsInf(RelDiff([]float64{1}, []float64{0}), 1) {
		t.Error("zero oracle with nonzero prediction should be +Inf")
	}
	if RelDiff([]float64{0}, []float64{0}) != 0 {
		t.Error("all-zero reldiff should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	RelDiff([]float64{1}, []float64{1, 2})
}

// TestRPCAPaperExample reproduces the paper's Figure 2 walk-through: five
// calibrations of a 4-machine cluster whose link performance is constant
// with occasional spikes; RPCA recovers a rank-one N_D whose row is the
// constant performance matrix.
func TestRPCAPaperExample(t *testing.T) {
	// Simplified 4-machine topology of Fig 2(a): weights between machines.
	base := []float64{
		0, 2, 4, 6,
		2, 0, 3, 5,
		4, 3, 0, 2,
		6, 5, 2, 0,
	}
	n := 5
	a := constantMatrix(base, n)
	// Calibration noise: a couple of interference spikes.
	a.Set(1, 1*4+2, 9) // link (1,2) spiked during calibration 1
	a.Set(3, 2*4+3, 7) // link (2,3) spiked during calibration 3
	res, err := Decompose(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	row := ConstantRow(res.D, ExtractMean)
	if rd := RelDiff(row, base); rd > 0.12 {
		t.Errorf("Fig 2 constant recovery rel diff %.4f", rd)
	}
	// The error norm should be small but nonzero.
	rel := RelNorm(res.E, a, NormL1, 0)
	if rel <= 0 || rel > 0.3 {
		t.Errorf("Fig 2 Norm(N_E)=%v out of expected band", rel)
	}
}

// Property: for random constant-plus-sparse inputs the recovered constant
// row is closer to the truth than any single calibration row (the paper's
// core claim against ad-hoc measurement use).
func TestPropertyBeatsSingleMeasurement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nRows, nCols := 8+rng.Intn(6), 25
		constant := make([]float64, nCols)
		for j := range constant {
			constant[j] = 10 + 90*rng.Float64()
		}
		a := constantMatrix(constant, nRows)
		for i := 0; i < nRows; i++ {
			for j := 0; j < nCols; j++ {
				// Mild volatility on every entry plus sparse spikes.
				a.Set(i, j, a.At(i, j)*(1+0.02*rng.NormFloat64()))
				if rng.Float64() < 0.1 {
					a.Set(i, j, a.At(i, j)+100*rng.Float64())
				}
			}
		}
		res, err := Decompose(a, Options{})
		if err != nil {
			return false
		}
		row := ConstantRow(res.D, ExtractMean)
		rpcaErr := RelDiff(row, constant)
		worst := 0.0
		for i := 0; i < nRows; i++ {
			if d := RelDiff(a.Row(i), constant); d > worst {
				worst = d
			}
		}
		return rpcaErr <= worst+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: RelNorm is scale-invariant — scaling A and E together leaves
// the metric unchanged.
func TestPropertyRelNormScaleInvariant(t *testing.T) {
	f := func(seed int64, scale float64) bool {
		scale = 0.1 + math.Abs(math.Mod(scale, 10))
		rng := rand.New(rand.NewSource(seed))
		a := mat.RandomNormal(rng, 5, 5, 10, 2)
		e := mat.RandomNormal(rng, 5, 5, 0, 1)
		v1 := RelNorm(e, a, NormL1, 0)
		v2 := RelNorm(e.Scale(scale), a.Scale(scale), NormL1, 0)
		return math.Abs(v1-v2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
