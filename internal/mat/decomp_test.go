package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, r, c int) *Dense {
	return RandomNormal(rng, r, c, 0, 1)
}

// checkOrthonormalCols verifies QᵀQ ≈ I for the nonzero columns.
func checkOrthonormalCols(t *testing.T, q *Dense, tol float64) {
	t.Helper()
	for a := 0; a < q.Cols(); a++ {
		ca := q.Col(a)
		na := VecNorm2(ca)
		if na == 0 {
			continue // zero padding column for rank-deficient input
		}
		if math.Abs(na-1) > tol {
			t.Errorf("column %d norm %v", a, na)
		}
		for b := a + 1; b < q.Cols(); b++ {
			cb := q.Col(b)
			if VecNorm2(cb) == 0 {
				continue
			}
			if d := math.Abs(Dot(ca, cb)); d > tol {
				t.Errorf("columns %d,%d not orthogonal: %v", a, b, d)
			}
		}
	}
}

func TestEigSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 12} {
		a := randMat(rng, n, n)
		sym := a.Add(a.T()).Scale(0.5)
		vals, vecs := EigSym(sym)
		// Reconstruct V Λ Vᵀ.
		lam := NewDense(n, n)
		for i, v := range vals {
			lam.Set(i, i, v)
		}
		rec := vecs.Mul(lam).Mul(vecs.T())
		if !rec.ApproxEqual(sym, 1e-9) {
			t.Errorf("n=%d: eig reconstruction failed", n)
		}
		checkOrthonormalCols(t, vecs, 1e-9)
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				t.Errorf("eigenvalues not descending: %v", vals)
			}
		}
	}
}

func TestEigSymDiagonal(t *testing.T) {
	d := FromRows([][]float64{{3, 0}, {0, 7}})
	vals, _ := EigSym(d)
	if math.Abs(vals[0]-7) > 1e-12 || math.Abs(vals[1]-3) > 1e-12 {
		t.Errorf("diagonal eigenvalues: %v", vals)
	}
	mustPanic(t, func() { EigSym(NewDense(2, 3)) })
}

func TestSVDKnown(t *testing.T) {
	// A = diag(3, 1) embedded in 2x2: singular values 3, 1.
	a := FromRows([][]float64{{3, 0}, {0, 1}})
	svd := a.SVD()
	if math.Abs(svd.S[0]-3) > 1e-10 || math.Abs(svd.S[1]-1) > 1e-10 {
		t.Errorf("singular values: %v", svd.S)
	}
}

func TestSVDReconstructionAllShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shapes := [][2]int{{1, 1}, {3, 3}, {5, 8}, {8, 5}, {4, 40}, {40, 4}, {2, 100}, {10, 10}}
	for _, sh := range shapes {
		a := randMat(rng, sh[0], sh[1])
		for name, svd := range map[string]*SVDResult{
			"auto":   a.SVD(),
			"jacobi": a.svdJacobi(),
			"gram":   a.svdGram(),
		} {
			rec := svd.Reconstruct(-1)
			diff := rec.Sub(a).NormFrobenius() / math.Max(1, a.NormFrobenius())
			if diff > 1e-8 {
				t.Errorf("%s %dx%d: reconstruction rel error %v", name, sh[0], sh[1], diff)
			}
			for i := 1; i < len(svd.S); i++ {
				if svd.S[i] > svd.S[i-1]+1e-10 {
					t.Errorf("%s: singular values not sorted: %v", name, svd.S)
				}
			}
			for _, s := range svd.S {
				if s < 0 {
					t.Errorf("%s: negative singular value %v", name, s)
				}
			}
			checkOrthonormalCols(t, svd.U, 1e-7)
			checkOrthonormalCols(t, svd.V, 1e-7)
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-2 matrix in 5x5.
	rng := rand.New(rand.NewSource(5))
	u := randMat(rng, 5, 2)
	v := randMat(rng, 5, 2)
	a := u.Mul(v.T())
	svd := a.SVD()
	for i := 2; i < len(svd.S); i++ {
		if svd.S[i] > 1e-8*svd.S[0] {
			t.Errorf("trailing singular value too large: %v", svd.S)
		}
	}
	rec := svd.Reconstruct(2)
	if rec.Sub(a).NormFrobenius() > 1e-8*a.NormFrobenius() {
		t.Error("rank-2 reconstruction")
	}
}

func TestSVDEmpty(t *testing.T) {
	svd := NewDense(0, 3).SVD()
	if len(svd.S) != 0 {
		t.Error("empty SVD")
	}
}

func TestSVDAgainstEigenvalues(t *testing.T) {
	// Singular values of A must be sqrt of eigenvalues of AᵀA.
	rng := rand.New(rand.NewSource(6))
	a := randMat(rng, 7, 5)
	sv := a.SingularValues()
	vals, _ := EigSym(a.T().Mul(a))
	for i := range sv {
		want := math.Sqrt(math.Max(0, vals[i]))
		if math.Abs(sv[i]-want) > 1e-8*math.Max(1, want) {
			t.Errorf("sv[%d]=%v want %v", i, sv[i], want)
		}
	}
}

func TestTruncateRankEckartYoung(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(rng, 8, 8)
	sv := a.SingularValues()
	for _, k := range []int{1, 3, 7} {
		tr := a.TruncateRank(k)
		// Frobenius error must equal sqrt of the sum of squared trailing
		// singular values.
		var want float64
		for i := k; i < len(sv); i++ {
			want += sv[i] * sv[i]
		}
		want = math.Sqrt(want)
		got := tr.Sub(a).NormFrobenius()
		if math.Abs(got-want) > 1e-8*math.Max(1, want) {
			t.Errorf("k=%d: trunc error %v want %v", k, got, want)
		}
	}
}

func TestRank1PowerIteration(t *testing.T) {
	// Exact rank-1 input must be recovered exactly.
	u := []float64{1, 2, 3}
	v := []float64{4, 5}
	a := Outer(u, v)
	sigma, uu, vv := a.Rank1()
	rec := Outer(uu, vv).Scale(sigma)
	if !rec.ApproxEqual(a, 1e-9) {
		t.Error("rank1 recovery of exact rank-1 matrix")
	}
	wantSigma := VecNorm2(u) * VecNorm2(v)
	if math.Abs(sigma-wantSigma) > 1e-9 {
		t.Errorf("sigma %v want %v", sigma, wantSigma)
	}
	// Rank-1 of a zero matrix.
	s0, _, _ := NewDense(3, 3).Rank1()
	if s0 != 0 {
		t.Error("rank1 of zero matrix")
	}
	// Empty matrix.
	se, _, _ := NewDense(0, 2).Rank1()
	if se != 0 {
		t.Error("rank1 of empty")
	}
}

func TestRank1MatchesSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randMat(rng, 6, 9)
	sigma, _, _ := a.Rank1()
	sv := a.SingularValues()
	if math.Abs(sigma-sv[0]) > 1e-7*sv[0] {
		t.Errorf("rank1 sigma %v, svd %v", sigma, sv[0])
	}
}

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, sh := range [][2]int{{3, 3}, {6, 4}, {4, 6}, {1, 1}, {10, 2}} {
		a := randMat(rng, sh[0], sh[1])
		qr := a.QR()
		rec := qr.Q.Mul(qr.R)
		if !rec.ApproxEqual(a, 1e-9) {
			t.Errorf("QR reconstruction failed for %v", sh)
		}
		checkOrthonormalCols(t, qr.Q, 1e-9)
		// R upper triangular.
		for i := 0; i < qr.R.Rows(); i++ {
			for j := 0; j < i && j < qr.R.Cols(); j++ {
				if math.Abs(qr.R.At(i, j)) > 1e-10 {
					t.Errorf("R not upper triangular at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestQRZeroColumn(t *testing.T) {
	a := FromRows([][]float64{{0, 1}, {0, 2}, {0, 3}})
	qr := a.QR()
	if !qr.Q.Mul(qr.R).ApproxEqual(a, 1e-9) {
		t.Error("QR with zero column")
	}
}

func TestLeastSquares(t *testing.T) {
	// Overdetermined consistent system.
	a := FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	xTrue := []float64{2, -3}
	b := a.MulVec(xTrue)
	x := LeastSquares(a, b)
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-9 {
			t.Errorf("lsq x=%v", x)
		}
	}
	mustPanic(t, func() { LeastSquares(NewDense(2, 3), []float64{1, 2}) })
	mustPanic(t, func() { SolveUpperTriangular(NewDense(2, 2), []float64{1, 2}) })
}

func TestSoftThreshold(t *testing.T) {
	m := FromRows([][]float64{{3, -3}, {0.5, -0.5}})
	s := m.SoftThreshold(1)
	want := FromRows([][]float64{{2, -2}, {0, 0}})
	if !s.ApproxEqual(want, 1e-12) {
		t.Errorf("soft threshold: %v", s)
	}
}

func TestHardThreshold(t *testing.T) {
	m := FromRows([][]float64{{3, -0.5}})
	h := m.HardThreshold(1)
	if h.At(0, 0) != 3 || h.At(0, 1) != 0 {
		t.Error("hard threshold")
	}
}

func TestSVT(t *testing.T) {
	// Diagonal matrix: SVT shrinks each diagonal entry.
	m := FromRows([][]float64{{5, 0}, {0, 2}})
	out, rank := m.SVT(3)
	if rank != 1 {
		t.Errorf("rank %d", rank)
	}
	if math.Abs(out.At(0, 0)-2) > 1e-9 || math.Abs(out.At(1, 1)) > 1e-9 {
		t.Errorf("SVT:\n%v", out)
	}
	// Threshold above all singular values → zero matrix, rank 0.
	z, r0 := m.SVT(100)
	if r0 != 0 || z.NormFrobenius() > 1e-9 {
		t.Error("SVT full shrink")
	}
}

func TestSVTNonExpansive(t *testing.T) {
	// SVT is a proximal operator so it is non-expansive:
	// ‖SVT(A)−SVT(B)‖F <= ‖A−B‖F.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, 4, 4)
		b := randMat(rng, 4, 4)
		sa, _ := a.SVT(0.5)
		sb, _ := b.SVT(0.5)
		return sa.Sub(sb).NormFrobenius() <= a.Sub(b).NormFrobenius()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSoftThresholdNonExpansiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, 3, 5)
		b := randMat(rng, 3, 5)
		sa := a.SoftThreshold(0.7)
		sb := b.SoftThreshold(0.7)
		return sa.Sub(sb).NormFrobenius() <= a.Sub(b).NormFrobenius()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSVDPropertyReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		a := randMat(rng, r, c)
		rec := a.SVD().Reconstruct(-1)
		return rec.Sub(a).NormFrobenius() <= 1e-8*math.Max(1, a.NormFrobenius())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSpectralNormProperty(t *testing.T) {
	// Spectral norm must match the largest singular value.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, 2+rng.Intn(5), 2+rng.Intn(5))
		sv := a.SingularValues()
		return math.Abs(a.NormSpectral()-sv[0]) <= 1e-6*math.Max(1, sv[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSpectralNormClustered pins the regression where clustered leading
// singular values (σ₂/σ₁ ≈ 0.989 here) made the plain power iteration's
// delta-based stop quit ~1.5e-6 away from σ₁: the geometric per-step
// delta understates the remaining gap by 1/(1−ρ). The quickcheck seed
// below is the original failing input.
func TestSpectralNormClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(-8949330033352386599))
	a := randMat(rng, 2+rng.Intn(5), 2+rng.Intn(5))
	sv := a.SingularValues()
	if err := math.Abs(a.NormSpectral() - sv[0]); err > 1e-9*sv[0] {
		t.Fatalf("spectral norm off by %.3e (σ1=%v σ2=%v)", err, sv[0], sv[1])
	}
}

// TestSpectralNormStartOrthogonal pins the regression where the power
// iteration's all-ones start vector was nearly orthogonal to the leading
// right singular vector: on the quickcheck seed below (2×5) it settled
// on σ₂ = 1.86585 and stopped there, against σ₁ = 2.55590. A matrix
// whose rows are exactly orthogonal to that start made it return 0.
func TestSpectralNormStartOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(-4552043874624189420))
	a := randMat(rng, 2+rng.Intn(5), 2+rng.Intn(5))
	sv := a.SingularValues()
	if err := math.Abs(a.NormSpectral() - sv[0]); err > 1e-9*sv[0] {
		t.Fatalf("spectral norm %v, want σ1=%v (σ2=%v)", a.NormSpectral(), sv[0], sv[1])
	}
	for _, m := range []*Dense{FromRows([][]float64{{1, -1}, {2, -2}}), FromRows([][]float64{{1, -1}, {2, -2}}).T()} {
		if got, want := m.NormSpectral(), math.Sqrt(10); math.Abs(got-want) > 1e-12 {
			t.Errorf("%dx%d rows orthogonal to the start: spectral norm %v, want √10", m.Rows(), m.Cols(), got)
		}
	}
}

// BenchmarkAblationSVDRoute compares the Gram-matrix thin-SVD route
// against one-sided Jacobi on a fat TP-matrix-shaped input (DESIGN.md §5).
func BenchmarkAblationSVDRoute(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	a := RandomNormal(rng, 10, 32*32, 50e6, 5e6)
	b.Run("gram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.svdGram()
		}
	})
	b.Run("jacobi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.svdJacobi()
		}
	})
}

// QRResult is a thin QR decomposition A = Q·R with Q of size r×k
// column-orthonormal and R of size k×c upper-triangular, k = min(r, c).
type QRResult struct {
	Q *Dense
	R *Dense
}

// QR computes a thin QR decomposition via Householder reflections.
func (m *Dense) QR() *QRResult {
	r, c := m.rows, m.cols
	k := minInt(r, c)
	a := m.Clone()
	// Accumulate Q by applying the reflectors to the identity afterwards;
	// store reflector vectors in-place below the diagonal plus a separate
	// slice of taus.
	vs := make([][]float64, 0, k)

	for j := 0; j < k; j++ {
		// Build the Householder vector for column j, rows j..r-1.
		var norm float64
		for i := j; i < r; i++ {
			x := a.data[i*c+j]
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			vs = append(vs, nil)
			continue
		}
		alpha := a.data[j*c+j]
		if alpha > 0 {
			norm = -norm
		}
		v := make([]float64, r-j)
		v[0] = alpha - norm
		for i := j + 1; i < r; i++ {
			v[i-j] = a.data[i*c+j]
		}
		vn := VecNorm2(v)
		if vn == 0 {
			vs = append(vs, nil)
			continue
		}
		for i := range v {
			v[i] /= vn
		}
		vs = append(vs, v)
		// Apply reflector H = I - 2vvᵀ to the trailing submatrix.
		for col := j; col < c; col++ {
			var dot float64
			for i := j; i < r; i++ {
				dot += v[i-j] * a.data[i*c+col]
			}
			dot *= 2
			for i := j; i < r; i++ {
				a.data[i*c+col] -= dot * v[i-j]
			}
		}
	}

	// Extract R (upper triangle of the k leading rows).
	rr := NewDense(k, c)
	for i := 0; i < k; i++ {
		for j := i; j < c; j++ {
			rr.data[i*c+j] = a.data[i*c+j]
		}
	}

	// Form thin Q by applying reflectors in reverse to the first k columns
	// of the identity.
	q := NewDense(r, k)
	for j := 0; j < k; j++ {
		q.data[j*k+j] = 1
	}
	for j := k - 1; j >= 0; j-- {
		v := vs[j]
		if v == nil {
			continue
		}
		for col := 0; col < k; col++ {
			var dot float64
			for i := j; i < r; i++ {
				dot += v[i-j] * q.data[i*k+col]
			}
			dot *= 2
			for i := j; i < r; i++ {
				q.data[i*k+col] -= dot * v[i-j]
			}
		}
	}
	return &QRResult{Q: q, R: rr}
}

// SolveUpperTriangular solves R·x = b for upper-triangular square R by back
// substitution. Zero (or numerically tiny) pivots panic.
func SolveUpperTriangular(r *Dense, b []float64) []float64 {
	n := r.rows
	if r.cols < n || len(b) != n {
		panic("mat: SolveUpperTriangular dimension mismatch")
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= r.data[i*r.cols+j] * x[j]
		}
		piv := r.data[i*r.cols+i]
		if math.Abs(piv) < 1e-300 {
			panic("mat: singular triangular system")
		}
		x[i] = s / piv
	}
	return x
}

// LeastSquares solves min ‖A·x − b‖₂ via thin QR (A must have full column
// rank and at least as many rows as columns).
func LeastSquares(a *Dense, b []float64) []float64 {
	if a.rows < a.cols {
		panic("mat: LeastSquares needs rows >= cols")
	}
	qr := a.QR()
	qtb := qr.Q.MulTVec(b)
	return SolveUpperTriangular(qr.R, qtb)
}

// SoftThreshold applies the elementwise shrinkage operator
// sign(x)·max(|x|−tau, 0), the proximal operator of the L1 norm. It returns
// a new matrix.
func (m *Dense) SoftThreshold(tau float64) *Dense {
	out := NewDense(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = Shrink(v, tau)
	}
	return out
}

// HardThreshold zeroes entries with |x| <= tau, returning a new matrix.
func (m *Dense) HardThreshold(tau float64) *Dense {
	out := NewDense(m.rows, m.cols)
	for i, v := range m.data {
		if math.Abs(v) > tau {
			out.data[i] = v
		}
	}
	return out
}

// TruncateRank returns the best rank-k approximation of m in the Frobenius
// sense (Eckart–Young), via the thin SVD.
func (m *Dense) TruncateRank(k int) *Dense {
	return m.SVD().Reconstruct(k)
}

// NormNuclear returns the nuclear (trace) norm, the sum of singular values.
// This is the convex surrogate for rank used by RPCA's low-rank term.
func (m *Dense) NormNuclear() float64 {
	sv := m.SingularValues()
	var s float64
	for _, v := range sv {
		s += v
	}
	return s
}
