// Package mat implements the dense linear algebra needed by the RPCA solver:
// matrices, basic operations, norms, symmetric eigendecomposition (Jacobi),
// singular value decomposition (one-sided Jacobi plus a Gram-matrix route
// for very fat matrices such as temporal performance matrices), Householder
// QR, and the thresholding operators used by proximal-gradient methods.
//
// The package is self-contained (stdlib only) and uses float64 throughout.
// Matrices are stored row-major. Every kernel is one sequential loop on
// the calling goroutine, so the code alone fixes its floating-point
// order, and with it every bit of a result.
package mat

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense creates an r×c zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("mat: negative dimension")
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows (copied).
//
//netlint:allow testonly netmodel's, mpi's, core's and rpca's tests build their fixtures with it
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic("mat: ragged rows")
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Random returns an r×c matrix with i.i.d. entries drawn uniformly from
// [lo, hi) using the supplied source.
//
//netlint:allow testonly the root BenchmarkFNFTree196, BenchmarkVivaldiTrain and BenchmarkTriangleAnalysis64 draw their matrices with it
func Random(rng *rand.Rand, r, c int, lo, hi float64) *Dense {
	m := NewDense(r, c)
	for i := range m.data {
		m.data[i] = lo + (hi-lo)*rng.Float64()
	}
	return m
}

// RandomNormal returns an r×c matrix with i.i.d. N(mean, stddev²) entries.
func RandomNormal(rng *rand.Rand, r, c int, mean, stddev float64) *Dense {
	m := NewDense(r, c)
	for i := range m.data {
		m.data[i] = mean + stddev*rng.NormFloat64()
	}
	return m
}

// Dims returns the matrix dimensions.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the row count.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Dense) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of bounds %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a view (not a copy) of row i as a slice.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic("mat: row out of bounds")
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Data returns the backing row-major slice (not a copy).
//
//netlint:hotpath
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Add returns m + b as a new matrix.
//
//netlint:allow testonly rpca's tests assemble planted low-rank plus sparse inputs with it
func (m *Dense) Add(b *Dense) *Dense {
	m.sameDims(b)
	out := NewDense(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = m.data[i] + b.data[i]
	}
	return out
}

// Sub returns m - b as a new matrix.
//
//netlint:allow testonly core's and rpca's tests and the root BenchmarkAblationNorms form residuals with it
func (m *Dense) Sub(b *Dense) *Dense {
	m.sameDims(b)
	out := NewDense(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = m.data[i] - b.data[i]
	}
	return out
}

// Scale returns s*m as a new matrix.
//
//netlint:allow testonly rpca's scaling tests use it
func (m *Dense) Scale(s float64) *Dense {
	out := NewDense(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = s * m.data[i]
	}
	return out
}

// ScaleInPlace multiplies every element by s.
func (m *Dense) ScaleInPlace(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

func (m *Dense) sameDims(b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: dimension mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
}

// Mul returns the matrix product m·b. It panics on inner-dimension mismatch.
// The inner loop is ordered (i, k, j) for cache-friendly row-major access.
//
//netlint:allow testonly rpca's tests build planted low-rank inputs with it
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: inner dimension mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	MulInto(out, m, b)
	return out
}

// MulVec returns the matrix-vector product m·x.
func (m *Dense) MulVec(x []float64) []float64 {
	out := make([]float64, m.rows)
	MulVecInto(out, m, x)
	return out
}

// MulTVec returns mᵀ·x without materializing the transpose.
func (m *Dense) MulTVec(x []float64) []float64 {
	out := make([]float64, m.cols)
	MulTVecInto(out, m, x)
	return out
}

// Gram returns m·mᵀ (rows×rows), the Gram matrix of the rows. For fat
// matrices (rows ≪ cols) this is the cheap route to a thin SVD.
func (m *Dense) Gram() *Dense {
	g := NewDense(m.rows, m.rows)
	GramInto(g, m)
	return g
}

// ApproxEqual reports whether every element of m and b differs by at most tol.
//
//netlint:allow testonly netmodel's, cloud's and rpca's tests compare matrices with it
func (m *Dense) ApproxEqual(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// Apply replaces every element x with f(i, j, x).
//
//netlint:allow testonly rpca's masked-solver tests build observation masks with it
func (m *Dense) Apply(f func(i, j int, v float64) float64) {
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			idx := i*m.cols + j
			m.data[idx] = f(i, j, m.data[idx])
		}
	}
}

// String renders the matrix for debugging (rows capped at 12).
func (m *Dense) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d\n", m.rows, m.cols)
	maxr := m.rows
	if maxr > 12 {
		maxr = 12
	}
	maxc := m.cols
	if maxc > 12 {
		maxc = 12
	}
	for i := 0; i < maxr; i++ {
		for j := 0; j < maxc; j++ {
			fmt.Fprintf(&sb, "%10.4g ", m.At(i, j))
		}
		if maxc < m.cols {
			sb.WriteString("...")
		}
		sb.WriteByte('\n')
	}
	if maxr < m.rows {
		sb.WriteString("...\n")
	}
	return sb.String()
}

// VecNorm2 returns the Euclidean norm of v.
func VecNorm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Normalize scales v to unit Euclidean norm in place and returns its
// original norm. A zero vector is left unchanged.
func Normalize(v []float64) float64 {
	n := VecNorm2(v)
	if n == 0 {
		return 0
	}
	for i := range v {
		v[i] /= n
	}
	return n
}
