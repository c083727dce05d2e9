package rpca

// Solver is the arena-backed engine behind Decompose and DecomposeMasked.
// It owns every per-iteration buffer plus an SVT workspace, so solving a
// sequence of same-shaped temporal performance matrices — the latency and
// bandwidth solves of one advisor analysis, or the Fig 5 sweep's prefixes
// — performs zero heap allocations in steady-state iterations: each step
// is one SVT and two fused elementwise passes into preallocated storage.
//
// The arena is scratch memory, not state: a solve zeroes its iterates and
// no SVT carries anything from one call to the next, so a fresh Solver
// returns the same bits as a reused one. The advisor therefore builds one
// per analysis and drops it afterwards, so an idle tenant holds no arena.
//
// A Solver is not safe for concurrent use. The package-level functions
// construct a throwaway Solver per call and remain the convenient entry
// points; a loop of solves holds one Solver and reuses it.

import (
	"errors"
	"fmt"
	"math"

	"netconstant/internal/cancel"
	"netconstant/internal/mat"
)

// Solver holds the iteration arena. The zero value is not usable; call
// NewSolver. Buffers bind lazily to the first decomposed shape and rebind
// automatically when the shape changes.
type Solver struct {
	rows, cols int
	svt        *mat.SVTWorkspace

	// Iterates, multiplier and the D-step's SVT input.
	d, e, y, t *mat.Dense

	// The masked route's observed data, its refreshed working copy and
	// the observed-entry flags (row-major), allocated by the first
	// DecomposeMasked at the bound shape.
	aObs, fill *mat.Dense
	obs        []bool
}

// NewSolver returns a Solver with an empty arena.
func NewSolver() *Solver {
	return &Solver{svt: mat.NewSVTWorkspace()}
}

// SVTStats reports how many SVT calls the solver has made over its
// lifetime. Every SVT is a full decomposition on a route chosen by shape,
// so the second result is always 0; it stays only because perfbench
// reports it as `rpca.svt_truncated`.
//
//netlint:allow testonly perfbench, a module of its own, reports it as rpca.svt_full and rpca.svt_truncated
func (s *Solver) SVTStats() (full, truncated int) { return s.svt.Calls(), 0 }

// bind (re)allocates the arena for an r×c problem; at the bound shape it
// keeps the buffers.
func (s *Solver) bind(r, c int) {
	if s.rows == r && s.cols == c {
		return
	}
	s.rows, s.cols = r, c
	s.d = mat.NewDense(r, c)
	s.e = mat.NewDense(r, c)
	s.y = mat.NewDense(r, c)
	s.t = mat.NewDense(r, c)
	s.aObs, s.fill, s.obs = nil, nil, nil
}

// ialmIter carries the scalar state of the IALM loop over the arena.
type ialmIter struct {
	s         *Solver
	a         *mat.Dense // the working data matrix (the refreshed fill when masked)
	lambda    float64
	mu, muBar float64
	masked    bool
}

// step performs one IALM iteration against the arena: SVT D-step, then
// one pass over the elements that does the soft-threshold E-step
// (mask-confined when masked), the residual Z = A − D − E (observed
// entries only when masked), the multiplier update Y += μZ, ‖Z‖²_F and,
// when masked, the refresh of the unobserved fill from D + E; then the
// penalty growth. Returns the residual Frobenius norm and the post-SVT
// rank. Allocation-free after arena binding.
//
// The pass is bit-identical to the pass-by-pass iteration referenceStep
// keeps in solver_test.go: each element evaluates the same expressions
// with the same scalars (1·x = x and (−1)·x = −x are exact, and x + (−y)
// is by definition x − y), an unobserved element still adds μ·0 to Y
// and +0 to its fill, and ‖Z‖²_F sums in element order.
//
//netlint:hotpath
func (it *ialmIter) step() (resid float64, rank int) {
	s := it.s
	inv := 1 / it.mu

	// D-step: SVT of A − E + Y/μ at threshold 1/μ.
	mat.LinComb3Into(s.t, 1, it.a, -1, s.e, inv, s.y)
	rank = s.svt.SVTInto(s.d, s.t, inv)

	ad, dd, ed, yd := it.a.Data(), s.d.Data(), s.e.Data(), s.y.Data()
	dd, ed, yd = dd[:len(ad)], ed[:len(ad)], yd[:len(ad)]
	var obs []bool
	if it.masked {
		obs = s.obs[:len(ad)]
	}
	tau, mu := it.lambda*inv, it.mu
	var zz float64
	for i, a := range ad {
		amd := a - dd[i]
		e := mat.Shrink(amd+inv*yd[i], tau) // soft threshold of A − D + Y/μ at λ/μ
		z := amd - e
		if obs != nil && !obs[i] {
			// Unobserved: no error term and no residual; refresh the
			// fill from the completion D + E.
			e, z = 0, 0
			ad[i] = dd[i] + e
		}
		ed[i] = e
		yd[i] += mu * z
		zz += z * z
	}
	//netlint:allow floatsafe mu and muBar are solver constants seeded from norms of the entry-validated (NaN/Inf-rejected) input
	it.mu = math.Min(muGrowth*it.mu, it.muBar)
	return math.Sqrt(zz), rank
}

// Decompose runs RPCA on a over the arena (see the package-level
// Decompose). The input is not modified; the returned matrices are owned
// by the caller, not the arena.
func (s *Solver) Decompose(a *mat.Dense, opts Options) (*Result, error) {
	r, c := a.Dims()
	if r == 0 || c == 0 {
		return nil, errors.New("rpca: empty matrix")
	}
	if err := checkFinite(a); err != nil {
		return nil, err
	}
	s.bind(r, c)
	return s.solve("rpca.Decompose", a, a, false, opts)
}

// DecomposeMasked solves RPCA with missing entries: given an observation
// mask Ω (mask cell > 0.5 ⇔ observed), it finds D low-rank and E sparse
// with P_Ω(A) = P_Ω(D + E), leaving the unobserved entries of A free. This
// is the IALM iteration with missing-entry projection: each round the
// unobserved entries of the working matrix are refreshed from the current
// D + E (so they exert no pull of their own), the sparse component is
// confined to Ω (no error term can live where nothing was measured), and
// the multiplier/residual updates only count observed entries.
//
// Calibrations with probe gaps use this instead of zero-filling: a zero
// bandwidth cell fed to the unmasked solver looks like an extreme outlier
// and corrupts the constant component, whereas the mask lets the low-rank
// structure interpolate the gap.
//
// A nil mask (or an all-ones mask) reduces to Decompose. It runs over the
// arena, and the returned matrices are caller-owned.
func (s *Solver) DecomposeMasked(a, mask *mat.Dense, opts Options) (*Result, error) {
	if mask == nil {
		return s.Decompose(a, opts)
	}
	r, c := a.Dims()
	if r == 0 || c == 0 {
		return nil, errors.New("rpca: empty matrix")
	}
	if mr, mc := mask.Dims(); mr != r || mc != c {
		return nil, fmt.Errorf("rpca: mask dims %dx%d != data %dx%d", mr, mc, r, c)
	}
	if err := checkFinite(a); err != nil {
		return nil, err
	}

	s.bind(r, c)
	if s.aObs == nil {
		s.aObs = mat.NewDense(r, c)
		s.fill = mat.NewDense(r, c)
		s.obs = make([]bool, r*c)
	}
	ad, md := a.Data(), mask.Data()
	obsData := s.aObs.Data()
	nObs := 0
	for i := range obsData {
		if md[i] > 0.5 {
			s.obs[i] = true
			obsData[i] = ad[i]
			nObs++
		} else {
			s.obs[i] = false
			obsData[i] = 0
		}
	}
	if nObs == 0 {
		return nil, ErrEmptyMask
	}
	if nObs == r*c {
		return s.Decompose(a, opts)
	}
	s.fill.CopyFrom(s.aObs) // P_Ω(A) + P_Ωᶜ(D+E), refreshed per iteration
	return s.solve("rpca.DecomposeMasked", s.aObs, s.fill, true, opts)
}

// solve runs the IALM loop on the bound arena. The parameters resolve
// against obs, the (mask-projected) data matrix; the iteration reads
// work, which the masked route refreshes in place. op names the solve in
// cancellation errors. An all-zero obs decomposes exactly into zeros.
func (s *Solver) solve(op string, obs, work *mat.Dense, masked bool, opts Options) (*Result, error) {
	r, c := obs.Dims()
	normA2 := obs.NormSpectral()
	if normA2 == 0 {
		return &Result{D: mat.NewDense(r, c), E: mat.NewDense(r, c), Converged: true}, nil
	}
	lambda := opts.Lambda
	if lambda <= 0 {
		lambda = 1 / math.Sqrt(float64(max(r, c)))
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = defaultMaxIter
	}
	mu := mu0Scale / normA2
	//netlint:allow floatsafe both operands are norms of the entry-validated (NaN/Inf-rejected) input, hence finite
	scale := math.Max(normA2, obs.NormMax()/lambda)
	stop := tolerance * math.Max(1, obs.NormFrobenius())

	s.e.Zero()
	s.d.Zero()
	s.y.CopyFrom(obs)
	s.y.ScaleInPlace(1 / scale)
	it := ialmIter{s: s, a: work, lambda: lambda, mu: mu, muBar: mu * muCapRatio, masked: masked}

	res := &Result{}
	for k := 0; k < maxIter; k++ {
		if err := cancel.Check(opts.Ctx, op, k, maxIter); err != nil {
			return nil, err
		}
		resid, rank := it.step()
		res.Iterations = k + 1
		res.RankD = rank
		if resid <= stop {
			res.Converged = true
			break
		}
	}
	res.D = s.d.Clone()
	res.E = s.e.Clone()
	return res, nil
}
