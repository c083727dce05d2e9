package mat

import "math"

// NormFrobenius returns the Frobenius norm sqrt(Σ aij²).
//
//netlint:hotpath
func (m *Dense) NormFrobenius() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// NormL1 returns the entrywise L1 norm Σ |aij| (the convex relaxation of
// the L0 norm used by RPCA's sparse term).
func (m *Dense) NormL1() float64 {
	var s float64
	for _, v := range m.data {
		s += math.Abs(v)
	}
	return s
}

// NormL0 counts entries with |aij| > eps. The paper's problem statement is
// written with the exact zero norm; any practical measurement matrix is
// fully dense with noise, so a tolerance is required to make the count
// meaningful.
func (m *Dense) NormL0(eps float64) float64 {
	var n float64
	for _, v := range m.data {
		if math.Abs(v) > eps {
			n++
		}
	}
	return n
}

// NormMax returns the max-absolute-entry norm.
func (m *Dense) NormMax() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// NormSpectral returns the largest singular value, computed by power
// iteration on mᵀm (cheap and allocation-light; sufficient for step-size
// selection in proximal methods) and certified against the largest
// eigenvalue of the Gram matrix of m's small side.
//
// The power iteration starts from the all-ones direction, so on an input
// whose leading right singular vector is (nearly) orthogonal to it the
// iteration first settles on σ₂ and may stop there, and on one whose
// rows are orthogonal to it returns 0. The certificate replaces the
// iterate only when it is clearly low (relative gap above 1e-9, far
// beyond the iteration's 1e-10 stop), so a converged iterate keeps its
// exact bits.
func (m *Dense) NormSpectral() float64 {
	if m.rows == 0 || m.cols == 0 {
		return 0
	}
	sigma := m.powerSpectral()
	if top := m.gramTopSingular(); top > sigma*(1+1e-9) {
		return top
	}
	return sigma
}

// gramTopSingular returns √λ₁ of the Gram matrix of m's small side
// (m·mᵀ for fat m, mᵀm for tall m), whose eigenvalues are the squared
// singular values of m.
func (m *Dense) gramTopSingular() float64 {
	s := minInt(m.rows, m.cols)
	g := NewDense(s, s)
	if m.rows <= m.cols {
		GramInto(g, m)
	} else {
		mulATBInto(g, m, m)
	}
	vals := make([]float64, s)
	eigSymInPlace(g, NewDense(s, s), vals)
	return math.Sqrt(math.Max(vals[0], 0))
}

// powerSpectral estimates the largest singular value by power iteration
// x ← normalize(mᵀ(m·x)) from the all-ones direction.
func (m *Dense) powerSpectral() float64 {
	x := make([]float64, m.cols)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(len(x)))
	}
	var sigma, prevDelta float64
	for iter := 0; iter < 500; iter++ {
		y := m.MulVec(x)
		z := m.MulTVec(y)
		n := Normalize(z)
		if n == 0 {
			return 0
		}
		newSigma := math.Sqrt(n)
		delta := newSigma - sigma
		x = z
		if iter > 0 && math.Abs(delta) <= 1e-13*math.Max(1, newSigma) {
			return newSigma
		}
		// Clustered leading singular values converge geometrically with
		// ratio ρ = (σ₂/σ₁)² ≈ 1, where the per-step delta understates
		// the remaining gap by 1/(1−ρ). Once the delta sequence looks
		// geometric (same sign, shrinking), extrapolate the tail
		// (Aitken Δ²) and stop when the corrected estimate has converged.
		if iter > 1 {
			rho := delta / prevDelta
			if rho > 0 && rho < 1 {
				tail := delta * rho / (1 - rho)
				if math.Abs(tail) <= 1e-10*math.Max(1, newSigma) {
					return newSigma + tail
				}
			}
		}
		prevDelta = delta
		sigma = newSigma
	}
	return sigma
}

// Rank returns the numerical rank: the number of singular values larger
// than tol·σmax. A tol of 0 uses the conventional machine-precision
// threshold max(r,c)·eps.
//
//netlint:allow testonly rpca's TestConstantMatrixRank checks the TC-matrix's rank with it
func (m *Dense) Rank(tol float64) int {
	sv := m.SingularValues()
	if len(sv) == 0 {
		return 0
	}
	if tol <= 0 {
		tol = float64(maxInt(m.rows, m.cols)) * 2.22e-16
	}
	thresh := tol * sv[0]
	r := 0
	for _, v := range sv {
		if v > thresh {
			r++
		}
	}
	return r
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
