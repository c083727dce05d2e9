package rpca

// The Accelerated Proximal Gradient (APG) solver of Ji & Ye — the RPCA
// sample code the paper ran — kept as a differential oracle for the
// production IALM solver. Both solve the same convex program, so on a
// well-posed input they must land on the same decomposition.

import (
	"math"
	"math/rand"
	"testing"

	"netconstant/internal/mat"
)

// decomposeAPG solves min ‖D‖* + λ‖E‖₁ s.t. A = D + E by APG with
// continuation: it minimizes μ‖D‖* + μλ‖E‖₁ + ½‖A − D − E‖F² with
// Nesterov momentum on (D, E), decaying μ geometrically by η = 0.9 from
// μ₀ = 0.99‖A‖₂ to μ̄ = 10⁻⁹μ₀. It stops once the relative iterate change
// falls below 10⁻⁷ or at opts.MaxIter (0 selects the sample code's 500).
// opts.Lambda = 0 selects 1/√max(r,c); opts.Ctx is ignored.
func decomposeAPG(a *mat.Dense, opts Options) (*Result, error) {
	r, c := a.Dims()
	if err := checkFinite(a); err != nil {
		return nil, err
	}
	lambda := opts.Lambda
	if lambda <= 0 {
		lambda = 1 / math.Sqrt(float64(max(r, c)))
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 500
	}
	mu := 0.99 * a.NormSpectral()
	if mu == 0 {
		return &Result{D: mat.NewDense(r, c), E: mat.NewDense(r, c), Converged: true}, nil
	}
	muBar := 1e-9 * mu
	const eta, tol = 0.9, 1e-7

	svt := mat.NewSVTWorkspace()
	d, e := mat.NewDense(r, c), mat.NewDense(r, c)
	dPrev, ePrev := mat.NewDense(r, c), mat.NewDense(r, c)
	yd, ye := mat.NewDense(r, c), mat.NewDense(r, c)
	ad := a.Data()
	den := math.Max(1, a.NormFrobenius())
	t, tPrev := 1.0, 1.0
	res := &Result{}
	for k := 0; k < maxIter; k++ {
		// Extrapolate, then take a gradient step of g/2 on each block,
		// g = Y_D + Y_E − A.
		beta := (tPrev - 1) / t
		ydd, yed := yd.Data(), ye.Data()
		dd, pd, ed, qd := d.Data(), dPrev.Data(), e.Data(), ePrev.Data()
		for i := range ydd {
			ydd[i] = dd[i] + beta*(dd[i]-pd[i])
			yed[i] = ed[i] + beta*(ed[i]-qd[i])
			g := ydd[i] + yed[i] - ad[i]
			ydd[i] -= 0.5 * g
			yed[i] -= 0.5 * g
		}
		// The next iterates overwrite the spent previous ones.
		res.RankD = svt.SVTInto(dPrev, yd, mu/2)
		for i, v := range yed {
			qd[i] = mat.Shrink(v, lambda*mu/2)
		}

		change := dPrev.Sub(d).NormFrobenius() + ePrev.Sub(e).NormFrobenius()
		d, dPrev = dPrev, d
		e, ePrev = ePrev, e
		tPrev, t = t, (1+math.Sqrt(1+4*t*t))/2
		mu = math.Max(eta*mu, muBar)
		res.Iterations = k + 1
		if change/den < tol {
			res.Converged = true
			break
		}
	}
	res.D, res.E = d, e
	return res, nil
}

func TestIALMAgreesWithAPG(t *testing.T) {
	// Two independent solvers must land on (numerically) the same
	// decomposition of a well-posed instance.
	rng := rand.New(rand.NewSource(22))
	a, _, _ := synth(rng, 25, 30, 2, 0.08, 8)
	apg, err := decomposeAPG(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ialm, err := Decompose(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	diff := apg.D.Sub(ialm.D).NormFrobenius() / math.Max(1, apg.D.NormFrobenius())
	if diff > 0.02 {
		t.Errorf("APG and IALM disagree on D: rel %.4f", diff)
	}
}

func TestIALMConvergesFasterThanAPG(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a, _, _ := synth(rng, 30, 30, 3, 0.05, 10)
	apg, err := decomposeAPG(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ialm, err := Decompose(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ialm.Iterations >= apg.Iterations {
		t.Errorf("IALM (%d iters) expected to beat APG (%d iters)", ialm.Iterations, apg.Iterations)
	}
}

func TestIALMConstantRowPipeline(t *testing.T) {
	// End-to-end: TP-style matrix through IALM gives the same constant row
	// as through APG.
	rng := rand.New(rand.NewSource(26))
	constant := make([]float64, 49)
	for j := range constant {
		constant[j] = 20 + 80*rng.Float64()
	}
	a := constantMatrix(constant, 10)
	for i := 0; i < 10; i++ {
		for j := 0; j < 49; j++ {
			if rng.Float64() < 0.07 {
				a.Set(i, j, a.At(i, j)*(1+2*rng.Float64()))
			}
		}
	}
	apg, _ := decomposeAPG(a, Options{Lambda: 0.316})
	ialm, _ := Decompose(a, Options{Lambda: 0.316})
	rowA := ConstantRow(apg.D, ExtractMedian)
	rowI := ConstantRow(ialm.D, ExtractMedian)
	if d := RelDiff(rowA, rowI); d > 0.03 {
		t.Errorf("constant rows disagree: %v", d)
	}
	if d := RelDiff(rowI, constant); d > 0.05 {
		t.Errorf("IALM constant recovery: %v", d)
	}
}
