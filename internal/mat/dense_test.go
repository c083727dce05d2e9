package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewDenseAndAccess(t *testing.T) {
	m := NewDense(2, 3)
	if r, c := m.Dims(); r != 2 || c != 3 {
		t.Fatalf("dims %d,%d", r, c)
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Error("set/at")
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Error("rows/cols")
	}
}

func TestNewDensePanics(t *testing.T) {
	mustPanic(t, func() { NewDense(-1, 2) })
	mustPanic(t, func() { NewDenseData(2, 2, []float64{1}) })
	m := NewDense(2, 2)
	mustPanic(t, func() { m.At(2, 0) })
	mustPanic(t, func() { m.At(0, -1) })
	mustPanic(t, func() { m.Set(5, 5, 1) })
	mustPanic(t, func() { m.Row(3) })
	mustPanic(t, func() { m.Col(9) })
	mustPanic(t, func() { FromRows([][]float64{{1, 2}, {3}}) })
	mustPanic(t, func() { m.Add(NewDense(3, 3)) })
	mustPanic(t, func() { m.Mul(NewDense(3, 3)) })
	mustPanic(t, func() { m.MulVec([]float64{1}) })
	mustPanic(t, func() { m.MulTVec([]float64{1, 2, 3}) })
	mustPanic(t, func() { Dot([]float64{1}, []float64{1, 2}) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestFromRowsAndClone(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("clone aliases original")
	}
	if FromRows(nil).Rows() != 0 {
		t.Error("empty FromRows")
	}
}

func TestEye(t *testing.T) {
	e := Eye(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if e.At(i, j) != want {
				t.Fatalf("eye(%d,%d)=%v", i, j, e.At(i, j))
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatal("transpose dims")
	}
	if mt.At(2, 1) != 6 || mt.At(0, 0) != 1 {
		t.Error("transpose values")
	}
	if !m.T().T().ApproxEqual(m, 0) {
		t.Error("double transpose")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	if got := a.Add(b).At(1, 1); got != 12 {
		t.Errorf("add %v", got)
	}
	if got := b.Sub(a).At(0, 0); got != 4 {
		t.Errorf("sub %v", got)
	}
	if got := a.Scale(2).At(1, 0); got != 6 {
		t.Errorf("scale %v", got)
	}
	c := a.Clone()
	c.AddInPlace(b)
	if c.At(0, 1) != 8 {
		t.Error("add in place")
	}
	c.SubInPlace(b)
	if !c.ApproxEqual(a, 1e-15) {
		t.Error("sub in place")
	}
	c.ScaleInPlace(3)
	if c.At(0, 0) != 3 {
		t.Error("scale in place")
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	ab := a.Mul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !ab.ApproxEqual(want, 1e-12) {
		t.Errorf("mul:\n%v", ab)
	}
}

func TestMulVecAndTVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y := a.MulVec([]float64{1, 0, -1})
	if y[0] != -2 || y[1] != -2 {
		t.Errorf("mulvec %v", y)
	}
	z := a.MulTVec([]float64{1, 1})
	if z[0] != 5 || z[1] != 7 || z[2] != 9 {
		t.Errorf("multvec %v", z)
	}
}

func TestGram(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	g := a.Gram()
	want := a.Mul(a.T())
	if !g.ApproxEqual(want, 1e-12) {
		t.Error("gram != A·Aᵀ")
	}
}

func TestRowColData(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	r := a.Row(1)
	if r[0] != 3 || r[1] != 4 {
		t.Error("row view")
	}
	r[0] = 30 // view mutates
	if a.At(1, 0) != 30 {
		t.Error("row should be a view")
	}
	c := a.Col(1)
	c[0] = 99 // copy does not mutate
	if a.At(0, 1) != 2 {
		t.Error("col should be a copy")
	}
	if len(a.Data()) != 4 {
		t.Error("data length")
	}
}

func TestApply(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	a.Apply(func(i, j int, v float64) float64 { return v * float64(i+j+1) })
	if a.At(0, 0) != 1 || a.At(1, 1) != 12 {
		t.Errorf("apply: %v", a)
	}
}

func TestOuterDotNorms(t *testing.T) {
	o := Outer([]float64{1, 2}, []float64{3, 4})
	if o.At(1, 1) != 8 || o.At(0, 0) != 3 {
		t.Error("outer")
	}
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("dot")
	}
	if VecNorm2([]float64{3, 4}) != 5 {
		t.Error("vecnorm")
	}
	v := []float64{3, 4}
	if Normalize(v) != 5 || math.Abs(VecNorm2(v)-1) > 1e-12 {
		t.Error("normalize")
	}
	z := []float64{0, 0}
	if Normalize(z) != 0 {
		t.Error("normalize zero")
	}
}

func TestRandomMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Random(rng, 10, 10, -1, 1)
	for _, v := range m.Data() {
		if v < -1 || v >= 1 {
			t.Fatalf("random out of range: %v", v)
		}
	}
	n := RandomNormal(rng, 50, 50, 0, 1)
	if n.NormFrobenius() == 0 {
		t.Error("normal matrix should be nonzero")
	}
}

func TestString(t *testing.T) {
	if FromRows([][]float64{{1}}).String() == "" {
		t.Error("string")
	}
	big := NewDense(20, 20)
	if big.String() == "" {
		t.Error("big string")
	}
}

func TestNorms(t *testing.T) {
	m := FromRows([][]float64{{3, 0}, {0, -4}})
	if m.NormFrobenius() != 5 {
		t.Error("frobenius")
	}
	if m.NormL1() != 7 {
		t.Error("l1")
	}
	if m.NormL0(1e-9) != 2 {
		t.Error("l0")
	}
	if m.NormMax() != 4 {
		t.Error("max")
	}
	if s := m.NormSpectral(); math.Abs(s-4) > 1e-9 {
		t.Errorf("spectral %v", s)
	}
	if nn := m.NormNuclear(); math.Abs(nn-7) > 1e-9 {
		t.Errorf("nuclear %v", nn)
	}
	if NewDense(0, 3).NormSpectral() != 0 {
		t.Error("empty spectral")
	}
}

func TestRank(t *testing.T) {
	m := Outer([]float64{1, 2, 3}, []float64{4, 5, 6})
	if r := m.Rank(0); r != 1 {
		t.Errorf("rank-1 outer product: rank=%d", r)
	}
	if r := Eye(4).Rank(0); r != 4 {
		t.Errorf("identity rank %d", r)
	}
	if r := NewDense(3, 3).Rank(0); r != 0 {
		t.Errorf("zero matrix rank %d", r)
	}
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic("mat: col out of bounds")
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// AddInPlace adds b into m.
func (m *Dense) AddInPlace(b *Dense) {
	m.sameDims(b)
	for i := range m.data {
		m.data[i] += b.data[i]
	}
}

// SubInPlace subtracts b from m.
func (m *Dense) SubInPlace(b *Dense) {
	m.sameDims(b)
	for i := range m.data {
		m.data[i] -= b.data[i]
	}
}

// Outer returns the outer product u·vᵀ.
func Outer(u, v []float64) *Dense {
	m := NewDense(len(u), len(v))
	for i, ui := range u {
		if ui == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, vj := range v {
			row[j] = ui * vj
		}
	}
	return m
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
