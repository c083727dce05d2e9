// Package sparse implements compressed sparse row matrices, sparse
// matrix-vector multiplication and a conjugate gradient solver. It is the
// numerical substrate for the paper's CG application (§V-D2), whose core
// operation is SpMV inside an iterative Krylov loop.
package sparse

import (
	"fmt"
	"sort"
)

// CSR is a compressed sparse row matrix.
type CSR struct {
	rows, cols int
	rowPtr     []int // len rows+1
	colIdx     []int
	values     []float64
}

// Dims returns the matrix dimensions.
func (m *CSR) Dims() (r, c int) { return m.rows, m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.values) }

// MulVec computes y = A·x.
func (m *CSR) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic("sparse: MulVec dimension mismatch")
	}
	y := make([]float64, m.rows)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = A·x into a caller-provided slice, avoiding the
// allocation on hot iterative paths.
func (m *CSR) MulVecTo(y, x []float64) {
	if len(x) != m.cols || len(y) != m.rows {
		panic("sparse: MulVecTo dimension mismatch")
	}
	for i := 0; i < m.rows; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.values[k] * x[m.colIdx[k]]
		}
		y[i] = s
	}
}

// COO is a coordinate-format builder for CSR matrices. Duplicate entries
// are summed at build time.
type COO struct {
	rows, cols int
	is, js     []int
	vs         []float64
}

// NewCOO creates a coordinate builder for an r×c matrix.
func NewCOO(r, c int) *COO {
	if r < 0 || c < 0 {
		panic("sparse: negative dimension")
	}
	return &COO{rows: r, cols: c}
}

// Add appends entry (i, j, v). Zero values are dropped.
func (b *COO) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: COO entry (%d,%d) out of bounds %dx%d", i, j, b.rows, b.cols))
	}
	if v == 0 {
		return
	}
	b.is = append(b.is, i)
	b.js = append(b.js, j)
	b.vs = append(b.vs, v)
}

// Build converts the accumulated entries into a CSR matrix, summing
// duplicates and sorting column indices within each row.
func (b *COO) Build() *CSR {
	type entry struct {
		j int
		v float64
	}
	perRow := make([][]entry, b.rows)
	for k := range b.vs {
		i := b.is[k]
		perRow[i] = append(perRow[i], entry{b.js[k], b.vs[k]})
	}
	m := &CSR{rows: b.rows, cols: b.cols, rowPtr: make([]int, b.rows+1)}
	for i, row := range perRow {
		sort.Slice(row, func(a, c int) bool { return row[a].j < row[c].j })
		// Merge duplicates.
		for k := 0; k < len(row); k++ {
			j, v := row[k].j, row[k].v
			for k+1 < len(row) && row[k+1].j == j {
				k++
				v += row[k].v
			}
			if v != 0 {
				m.colIdx = append(m.colIdx, j)
				m.values = append(m.values, v)
			}
		}
		m.rowPtr[i+1] = len(m.values)
	}
	return m
}

// Laplacian2D returns the (nx·ny)×(nx·ny) 5-point stencil matrix of the
// 2-D Poisson problem on an nx×ny grid — a larger, banded SPD system used
// by the CG experiment sweeps.
func Laplacian2D(nx, ny int) *CSR {
	n := nx * ny
	b := NewCOO(n, n)
	idx := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := idx(x, y)
			b.Add(i, i, 4)
			if x > 0 {
				b.Add(i, idx(x-1, y), -1)
			}
			if x < nx-1 {
				b.Add(i, idx(x+1, y), -1)
			}
			if y > 0 {
				b.Add(i, idx(x, y-1), -1)
			}
			if y < ny-1 {
				b.Add(i, idx(x, y+1), -1)
			}
		}
	}
	return b.Build()
}
