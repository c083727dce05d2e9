package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCOOBuildAndAt(t *testing.T) {
	b := NewCOO(3, 4)
	b.Add(0, 1, 2)
	b.Add(2, 3, -1)
	b.Add(0, 1, 3) // duplicate, summed
	b.Add(1, 0, 0) // dropped
	m := b.Build()
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatal("dims")
	}
	if m.At(0, 1) != 5 {
		t.Errorf("duplicate sum: %v", m.At(0, 1))
	}
	if m.At(2, 3) != -1 {
		t.Error("entry")
	}
	if m.At(1, 1) != 0 {
		t.Error("missing entry should be 0")
	}
	if m.NNZ() != 2 {
		t.Errorf("nnz %d", m.NNZ())
	}
	if m.RowNNZ(0) != 1 || m.RowNNZ(1) != 0 {
		t.Error("row nnz")
	}
}

func TestCOOCancellation(t *testing.T) {
	b := NewCOO(1, 1)
	b.Add(0, 0, 5)
	b.Add(0, 0, -5)
	if b.Build().NNZ() != 0 {
		t.Error("cancelled duplicates should be dropped")
	}
}

func TestCOOPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewCOO(2, 2).Add(2, 0, 1)
}

func TestNegativeDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewCOO(-1, 2)
}

func TestAtBounds(t *testing.T) {
	m := Identity(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.At(0, 5)
}

func TestMulVec(t *testing.T) {
	// [[1 2][0 3]] · [1 1] = [3 3]
	b := NewCOO(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 1, 2)
	b.Add(1, 1, 3)
	m := b.Build()
	y := m.MulVec([]float64{1, 1})
	if y[0] != 3 || y[1] != 3 {
		t.Errorf("mulvec %v", y)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.MulVec([]float64{1})
}

func TestMulVecToMismatch(t *testing.T) {
	m := Identity(3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.MulVecTo(make([]float64, 2), make([]float64, 3))
}

func TestIdentity(t *testing.T) {
	m := Identity(4)
	x := []float64{1, 2, 3, 4}
	y := m.MulVec(x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatal("identity mulvec")
		}
	}
}

func TestLaplacian1D(t *testing.T) {
	m := Laplacian1D(5)
	if !m.IsSymmetric(0) {
		t.Error("laplacian1d should be symmetric")
	}
	if m.At(2, 2) != 2 || m.At(2, 1) != -1 || m.At(2, 3) != -1 {
		t.Error("stencil values")
	}
	if m.NNZ() != 3*5-2 {
		t.Errorf("nnz %d", m.NNZ())
	}
}

func TestLaplacian2D(t *testing.T) {
	m := Laplacian2D(3, 4)
	if r, c := m.Dims(); r != 12 || c != 12 {
		t.Fatal("dims")
	}
	if !m.IsSymmetric(0) {
		t.Error("laplacian2d should be symmetric")
	}
	// Interior point has 4 neighbours.
	if m.At(4, 4) != 4 {
		t.Error("diagonal")
	}
	if m.RowNNZ(4) != 5 {
		t.Errorf("interior row nnz %d", m.RowNNZ(4))
	}
}

func TestIsSymmetricRectangular(t *testing.T) {
	if NewCOO(2, 3).Build().IsSymmetric(0) {
		t.Error("rectangular cannot be symmetric")
	}
	b := NewCOO(2, 2)
	b.Add(0, 1, 1)
	if b.Build().IsSymmetric(0) {
		t.Error("asymmetric matrix")
	}
}

func TestCGLaplacian(t *testing.T) {
	n := 50
	a := Laplacian1D(n)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = math.Sin(float64(i))
	}
	b := a.MulVec(xTrue)
	res, err := CG(a, b, nil, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("CG did not converge")
	}
	for i := range xTrue {
		if math.Abs(res.X[i]-xTrue[i]) > 1e-6 {
			t.Fatalf("x[%d]=%v want %v", i, res.X[i], xTrue[i])
		}
	}
}

func TestCG2D(t *testing.T) {
	a := Laplacian2D(10, 10)
	n, _ := a.Dims()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	res, err := CG(a, b, nil, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("2D CG did not converge")
	}
	// Verify the residual claim.
	ax := a.MulVec(res.X)
	var rn float64
	for i := range ax {
		d := b[i] - ax[i]
		rn += d * d
	}
	rn = math.Sqrt(rn)
	if math.Abs(rn-res.Residual) > 1e-8*math.Max(1, rn) {
		t.Errorf("reported residual %v, actual %v", res.Residual, rn)
	}
}

func TestCGCallback(t *testing.T) {
	a := Laplacian1D(20)
	b := make([]float64, 20)
	b[3] = 1
	calls := 0
	_, err := CG(a, b, nil, CGOptions{OnIteration: func(iter int, r float64) {
		calls++
		if iter != calls {
			t.Errorf("iteration index %d on call %d", iter, calls)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("callback never invoked")
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := Laplacian1D(5)
	res, err := CG(a, make([]float64, 5), nil, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Error("zero RHS should converge immediately")
	}
}

func TestCGInitialGuess(t *testing.T) {
	a := Laplacian1D(10)
	xTrue := make([]float64, 10)
	for i := range xTrue {
		xTrue[i] = float64(i)
	}
	b := a.MulVec(xTrue)
	// Exact initial guess converges in 0 or few iterations.
	res, err := CG(a, b, xTrue, CGOptions{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 1 {
		t.Errorf("exact guess took %d iterations", res.Iterations)
	}
}

func TestCGErrors(t *testing.T) {
	if _, err := CG(NewCOO(2, 3).Build(), []float64{1, 2}, nil, CGOptions{}); err == nil {
		t.Error("non-square should error")
	}
	if _, err := CG(Identity(2), []float64{1}, nil, CGOptions{}); err == nil {
		t.Error("rhs mismatch should error")
	}
	if _, err := CG(Identity(2), []float64{1, 2}, []float64{1}, CGOptions{}); err == nil {
		t.Error("x0 mismatch should error")
	}
	// Indefinite matrix triggers breakdown.
	b := NewCOO(2, 2)
	b.Add(0, 0, -1)
	b.Add(1, 1, -1)
	if _, err := CG(b.Build(), []float64{1, 1}, nil, CGOptions{}); err == nil {
		t.Error("negative definite should break down")
	}
}

func TestCGMaxIter(t *testing.T) {
	a := Laplacian2D(20, 20)
	n, _ := a.Dims()
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i % 7)
	}
	res, err := CG(a, b, nil, CGOptions{Tol: 1e-14, MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("should not converge in 3 iterations")
	}
	if res.Iterations != 3 {
		t.Errorf("iterations %d", res.Iterations)
	}
}

// Property: CSR At agrees with a dense shadow under random construction.
func TestCSRPropertyAgainstDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(8)
		c := 1 + rng.Intn(8)
		dense := make([][]float64, r)
		for i := range dense {
			dense[i] = make([]float64, c)
		}
		b := NewCOO(r, c)
		for k := 0; k < rng.Intn(30); k++ {
			i, j := rng.Intn(r), rng.Intn(c)
			v := rng.NormFloat64()
			dense[i][j] += v
			b.Add(i, j, v)
		}
		m := b.Build()
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if math.Abs(m.At(i, j)-dense[i][j]) > 1e-12 {
					return false
				}
			}
		}
		// SpMV agreement.
		x := make([]float64, c)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := m.MulVec(x)
		for i := 0; i < r; i++ {
			var want float64
			for j := 0; j < c; j++ {
				want += dense[i][j] * x[j]
			}
			if math.Abs(y[i]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: CG on diagonally dominant SPD systems converges and satisfies
// the residual bound.
func TestCGPropertyConvergence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		b := NewCOO(n, n)
		for i := 0; i < n; i++ {
			b.Add(i, i, float64(n)+1) // strong diagonal
			if i > 0 {
				v := rng.Float64()
				b.Add(i, i-1, v)
				b.Add(i-1, i, v)
			}
		}
		a := b.Build()
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		res, err := CG(a, rhs, nil, CGOptions{Tol: 1e-8})
		if err != nil || !res.Converged {
			return false
		}
		ax := a.MulVec(res.X)
		var rn, bn float64
		for i := range ax {
			d := rhs[i] - ax[i]
			rn += d * d
			bn += rhs[i] * rhs[i]
		}
		return math.Sqrt(rn) <= 1e-6*math.Sqrt(bn)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The helpers below serve only these tests: the CG workload runs on
// Laplacian2D alone.

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return m.rowPtr[i+1] - m.rowPtr[i] }

// IsSymmetric reports whether the matrix equals its transpose within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			j := m.colIdx[k]
			if math.Abs(m.values[k]-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Identity returns the n×n identity in CSR form.
func Identity(n int) *CSR {
	b := NewCOO(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
	}
	return b.Build()
}

// Laplacian1D returns the n×n tridiagonal matrix of the 1-D Poisson
// problem (2 on the diagonal, −1 off-diagonal): symmetric positive
// definite, the classic CG test matrix.
func Laplacian1D(n int) *CSR {
	b := NewCOO(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i > 0 {
			b.Add(i, i-1, -1)
		}
		if i < n-1 {
			b.Add(i, i+1, -1)
		}
	}
	return b.Build()
}

// At returns element (i, j) by binary search within row i.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of bounds %dx%d", i, j, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := sort.SearchInts(m.colIdx[lo:hi], j) + lo
	if k < hi && m.colIdx[k] == j {
		return m.values[k]
	}
	return 0
}
