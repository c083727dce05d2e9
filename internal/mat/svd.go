package mat

import (
	"math"
	"sort"
)

// SVDResult is a thin singular value decomposition A = U · diag(S) · Vᵀ,
// with U of size r×k, V of size c×k and k = min(r, c). Singular values are
// non-negative and sorted in descending order.
type SVDResult struct {
	U *Dense
	S []float64
	V *Dense
}

// Reconstruct returns U · diag(S) · Vᵀ, truncated to the leading k
// components (k <= len(S); k < 0 means all).
func (s *SVDResult) Reconstruct(k int) *Dense {
	if k < 0 || k > len(s.S) {
		k = len(s.S)
	}
	r := s.U.rows
	c := s.V.rows
	out := NewDense(r, c)
	for comp := 0; comp < k; comp++ {
		sv := s.S[comp]
		if sv == 0 {
			continue
		}
		for i := 0; i < r; i++ {
			ui := s.U.data[i*s.U.cols+comp] * sv
			if ui == 0 {
				continue
			}
			orow := out.data[i*c : (i+1)*c]
			for j := 0; j < c; j++ {
				orow[j] += ui * s.V.data[j*s.V.cols+comp]
			}
		}
	}
	return out
}

// SVD computes a thin singular value decomposition. The route is chosen by
// shape: strongly rectangular matrices (aspect ratio > 4) go through the
// small-side Gram matrix (O(min² · max) via the Jacobi eigensolver), which
// is the case for temporal performance matrices (time-step rows × N²
// columns); roughly square matrices use one-sided Jacobi SVD directly for
// better accuracy on small singular values.
func (m *Dense) SVD() *SVDResult {
	r, c := m.rows, m.cols
	if r == 0 || c == 0 {
		return &SVDResult{U: NewDense(r, 0), S: nil, V: NewDense(c, 0)}
	}
	small, large := r, c
	if c < r {
		small, large = c, r
	}
	if large > 4*small {
		return m.svdGram()
	}
	return m.svdJacobi()
}

// svdGram computes the thin SVD via eigendecomposition of the smaller Gram
// matrix. For r <= c: A·Aᵀ = U Λ Uᵀ, σ = sqrt(λ), V = Aᵀ U Σ⁻¹.
func (m *Dense) svdGram() *SVDResult {
	r, c := m.rows, m.cols
	if r <= c {
		g := m.Gram() // r×r
		vals, u := EigSym(g)
		s := make([]float64, r)
		for i, v := range vals {
			if v > 0 {
				s[i] = math.Sqrt(v)
			}
		}
		// V = Aᵀ U Σ⁻¹, computed column by column; zero σ gives a zero
		// column (valid padding for a thin SVD of a rank-deficient matrix).
		v := NewDense(c, r)
		for comp := 0; comp < r; comp++ {
			if s[comp] <= 0 {
				continue
			}
			ucol := make([]float64, r)
			for i := 0; i < r; i++ {
				ucol[i] = u.data[i*r+comp]
			}
			vc := m.MulTVec(ucol)
			inv := 1 / s[comp]
			for j := 0; j < c; j++ {
				v.data[j*r+comp] = vc[j] * inv
			}
		}
		return &SVDResult{U: u, S: s, V: v}
	}
	// Tall case: work on Aᵀ A (c×c).
	g := m.T().Gram() // c×c = Aᵀ·A
	vals, v := EigSym(g)
	s := make([]float64, c)
	for i, val := range vals {
		if val > 0 {
			s[i] = math.Sqrt(val)
		}
	}
	u := NewDense(r, c)
	for comp := 0; comp < c; comp++ {
		if s[comp] <= 0 {
			continue
		}
		vcol := make([]float64, c)
		for j := 0; j < c; j++ {
			vcol[j] = v.data[j*c+comp]
		}
		uc := m.MulVec(vcol)
		inv := 1 / s[comp]
		for i := 0; i < r; i++ {
			u.data[i*c+comp] = uc[i] * inv
		}
	}
	return &SVDResult{U: u, S: s, V: v}
}

// jacobiRound rotates the column pairs of one round-robin round,
// skipping byes, and reports whether it rotated any pair. The pairs of a
// round are disjoint, so no rotation reads a column another one writes.
func jacobiRound(w, v *Dense, pairs [][2]int, tol float64) (rotated bool) {
	r, c := w.rows, w.cols
	for _, pq := range pairs {
		p, q := pq[0], pq[1]
		if p < 0 {
			continue
		}
		// Column inner products.
		var app, aqq, apq float64
		for i := 0; i < r; i++ {
			wp := w.data[i*c+p]
			wq := w.data[i*c+q]
			app += wp * wp
			aqq += wq * wq
			apq += wp * wq
		}
		if math.Abs(apq) <= tol*math.Sqrt(app*aqq) {
			continue
		}
		rotated = true
		// Jacobi rotation angle that orthogonalizes columns p, q.
		tau := (aqq - app) / (2 * apq)
		var tt float64
		if tau >= 0 {
			tt = 1 / (tau + math.Sqrt(1+tau*tau))
		} else {
			tt = -1 / (-tau + math.Sqrt(1+tau*tau))
		}
		cs := 1 / math.Sqrt(1+tt*tt)
		sn := tt * cs
		for i := 0; i < r; i++ {
			wp := w.data[i*c+p]
			wq := w.data[i*c+q]
			w.data[i*c+p] = cs*wp - sn*wq
			w.data[i*c+q] = sn*wp + cs*wq
		}
		for i := 0; i < c; i++ {
			vp := v.data[i*c+p]
			vq := v.data[i*c+q]
			v.data[i*c+p] = cs*vp - sn*vq
			v.data[i*c+q] = sn*vp + cs*vq
		}
	}
	return rotated
}

// roundRobinPairs fills pairs with round k of the (n-1)-round tournament
// schedule over players 0..n-1 (n even): every round pairs all players,
// consecutive rounds rotate partners, and the n-1 rounds together cover
// every unordered pair exactly once. Entries with a player >= limit are
// byes from padding an odd limit and are skipped by the caller via p/q
// ordering: each returned pair satisfies pair[0] < pair[1] < limit or is
// marked {-1,-1}.
func roundRobinPairs(pairs [][2]int, k, n, limit int) {
	put := func(i int, a, b int) {
		if a > b {
			a, b = b, a
		}
		if b >= limit {
			pairs[i] = [2]int{-1, -1}
			return
		}
		pairs[i] = [2]int{a, b}
	}
	put(0, n-1, k%(n-1))
	for i := 1; i < n/2; i++ {
		a := (k + i) % (n - 1)
		b := (k - i + n - 1) % (n - 1)
		put(i, a, b)
	}
}

// svdJacobi computes the thin SVD by one-sided Jacobi orthogonalization of
// the columns of the (tall-or-square oriented) working matrix. Each sweep
// is a round-robin tournament over the columns; the tournament fixes the
// order of the rotations, and with it every bit of the result.
func (m *Dense) svdJacobi() *SVDResult {
	transposed := m.rows < m.cols
	var w *Dense
	if transposed {
		w = m.T()
	} else {
		w = m.Clone()
	}
	r, c := w.rows, w.cols // r >= c

	v := Eye(c)
	const maxSweeps = 60
	tol := 1e-15
	n := c
	if n%2 == 1 {
		n++
	}
	if c > 1 {
		pairs := make([][2]int, n/2)
		for sweep := 0; sweep < maxSweeps; sweep++ {
			rotated := false
			for k := 0; k < n-1; k++ {
				roundRobinPairs(pairs, k, n, c)
				if jacobiRound(w, v, pairs, tol) {
					rotated = true
				}
			}
			if !rotated {
				break
			}
		}
	}

	// Singular values are column norms; left vectors the normalized columns.
	s := make([]float64, c)
	u := NewDense(r, c)
	for j := 0; j < c; j++ {
		var n float64
		for i := 0; i < r; i++ {
			n += w.data[i*c+j] * w.data[i*c+j]
		}
		n = math.Sqrt(n)
		s[j] = n
		if n > 0 {
			for i := 0; i < r; i++ {
				u.data[i*c+j] = w.data[i*c+j] / n
			}
		}
	}

	// Sort descending by singular value.
	idx := make([]int, c)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return s[idx[x]] > s[idx[y]] })
	ss := make([]float64, c)
	us := NewDense(r, c)
	vs := NewDense(c, c)
	for newJ, oldJ := range idx {
		ss[newJ] = s[oldJ]
		for i := 0; i < r; i++ {
			us.data[i*c+newJ] = u.data[i*c+oldJ]
		}
		for i := 0; i < c; i++ {
			vs.data[i*c+newJ] = v.data[i*c+oldJ]
		}
	}

	if transposed {
		// A = (Wᵀ) = V S Uᵀ with W = U S Vᵀ, so swap roles.
		return &SVDResult{U: vs, S: ss, V: us}
	}
	return &SVDResult{U: us, S: ss, V: vs}
}

// SingularValues returns the singular values in descending order.
func (m *Dense) SingularValues() []float64 {
	return m.SVD().S
}

// Rank1 returns the best rank-one approximation σ·u·vᵀ using power
// iteration (cheaper than a full SVD when only the leading component is
// needed, as for TC-matrix extraction).
func (m *Dense) Rank1() (sigma float64, u, v []float64) {
	r, c := m.rows, m.cols
	if r == 0 || c == 0 {
		return 0, make([]float64, r), make([]float64, c)
	}
	v = make([]float64, c)
	// Deterministic start: the normalized column-sum vector; fall back to e1
	// if it is zero.
	for i := 0; i < r; i++ {
		row := m.data[i*c : (i+1)*c]
		for j := range row {
			v[j] += row[j]
		}
	}
	if Normalize(v) == 0 {
		v[0] = 1
	}
	var prev float64
	for iter := 0; iter < 500; iter++ {
		u = m.MulVec(v)
		sigma = Normalize(u)
		v = m.MulTVec(u)
		sigma = Normalize(v)
		if math.Abs(sigma-prev) <= 1e-13*math.Max(1, sigma) {
			break
		}
		prev = sigma
	}
	u = m.MulVec(v)
	sigma = Normalize(u)
	return sigma, u, v
}
