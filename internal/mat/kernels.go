package mat

// The hot kernels and their allocation-free *Into / in-place variants.
// Each is one sequential loop over its output.
//
// The *Into variants exist for the RPCA hot loop: solver iterations reuse
// a preallocated arena instead of allocating ~10 fresh matrices per
// iteration, so none of these kernels may heap-allocate.
//
// Unless noted otherwise, out must not alias an input; LinComb3Into
// allows out to alias any input because element i reads only index i.

// --- matrix · matrix ---------------------------------------------------

// MulInto computes out = a·b into the preallocated out (which must not
// alias a or b).
//
//netlint:hotpath
func MulInto(out, a, b *Dense) {
	if a.cols != b.rows || out.rows != a.rows || out.cols != b.cols {
		panic("mat: MulInto dimension mismatch")
	}
	bc := b.cols
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*bc : (i+1)*bc]
		for j := range orow {
			orow[j] = 0
		}
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.data[k*bc : (k+1)*bc]
			for j, bkj := range brow {
				orow[j] += aik * bkj
			}
		}
	}
}

// mulATBInto computes out = aᵀ·b (out is a.cols × b.cols) without
// materializing the transpose. Each output row, a column of a,
// accumulates over a's rows in ascending order.
//
//netlint:hotpath
func mulATBInto(out, a, b *Dense) {
	if a.rows != b.rows || out.rows != a.cols || out.cols != b.cols {
		panic("mat: mulATBInto dimension mismatch")
	}
	ac, bc := a.cols, b.cols
	for l := 0; l < ac; l++ {
		orow := out.data[l*bc : (l+1)*bc]
		for j := range orow {
			orow[j] = 0
		}
		var rows axpyRows
		for i := 0; i < a.rows; i++ {
			rows.add(orow, a.data[i*ac+l], b.data[i*bc:(i+1)*bc])
		}
		rows.flush(orow)
	}
}

// axpyRows adds scaled rows into one output row o, up to four rows per
// pass over o: o[j] = (((o[j] + c₀r₀[j]) + c₁r₁[j]) + c₂r₂[j]) + c₃r₃[j].
// Rows are added in the order add receives them, so every element of o
// sees exactly the additions of the one-row-at-a-time loop, in the same
// order; only the number of passes over o shrinks. A zero coefficient is
// skipped, as in that loop: adding 0·r would turn an ±Inf in r into NaN.
// Call flush once after the last add.
type axpyRows struct {
	c [4]float64
	r [4][]float64
	n int
}

// add queues c·r for o, running a four-row pass once four are queued.
//
//netlint:hotpath
func (b *axpyRows) add(o []float64, c float64, r []float64) {
	if c == 0 {
		return
	}
	b.c[b.n], b.r[b.n] = c, r
	if b.n++; b.n == 4 {
		axpy4(o, b.c[0], b.r[0], b.c[1], b.r[1], b.c[2], b.r[2], b.c[3], b.r[3])
		b.n = 0
	}
}

// flush adds the rows still queued.
//
//netlint:hotpath
func (b *axpyRows) flush(o []float64) {
	k := 0
	if b.n >= 2 {
		axpy2(o, b.c[0], b.r[0], b.c[1], b.r[1])
		k = 2
	}
	if k < b.n {
		axpy1(o, b.c[k], b.r[k])
	}
	b.n = 0
}

//netlint:hotpath
func axpy4(o []float64, c0 float64, r0 []float64, c1 float64, r1 []float64, c2 float64, r2 []float64, c3 float64, r3 []float64) {
	r0, r1, r2, r3 = r0[:len(o)], r1[:len(o)], r2[:len(o)], r3[:len(o)]
	for j, v := range o {
		v += c0 * r0[j]
		v += c1 * r1[j]
		v += c2 * r2[j]
		v += c3 * r3[j]
		o[j] = v
	}
}

//netlint:hotpath
func axpy2(o []float64, c0 float64, r0 []float64, c1 float64, r1 []float64) {
	r0, r1 = r0[:len(o)], r1[:len(o)]
	for j, v := range o {
		v += c0 * r0[j]
		v += c1 * r1[j]
		o[j] = v
	}
}

//netlint:hotpath
func axpy1(o []float64, c0 float64, r0 []float64) {
	r0 = r0[:len(o)]
	for j, v := range o {
		o[j] = v + c0*r0[j]
	}
}

// GramInto computes out = m·mᵀ into the preallocated rows×rows out.
func GramInto(out, m *Dense) {
	if out.rows != m.rows || out.cols != m.rows {
		panic("mat: GramInto dimension mismatch")
	}
	n, c := m.rows, m.cols
	for i := 0; i < n; i++ {
		ri := m.data[i*c : (i+1)*c]
		j := i
		for ; j+4 <= n; j += 4 {
			s0, s1, s2, s3 := dot4(ri, m.data[j*c:(j+1)*c], m.data[(j+1)*c:(j+2)*c],
				m.data[(j+2)*c:(j+3)*c], m.data[(j+3)*c:(j+4)*c])
			out.data[i*n+j], out.data[j*n+i] = s0, s0
			out.data[i*n+j+1], out.data[(j+1)*n+i] = s1, s1
			out.data[i*n+j+2], out.data[(j+2)*n+i] = s2, s2
			out.data[i*n+j+3], out.data[(j+3)*n+i] = s3, s3
		}
		for ; j < n; j++ {
			rj := m.data[j*c : (j+1)*c]
			rj = rj[:len(ri)]
			var s float64
			for k, v := range ri {
				s += v * rj[k]
			}
			out.data[i*n+j], out.data[j*n+i] = s, s
		}
	}
}

// dot4 returns the dot products of x with r0…r3, computed in one pass
// over x. Each of the four independent accumulators sums its products in
// ascending k, exactly as the one-row loop does.
//
//netlint:hotpath
func dot4(x, r0, r1, r2, r3 []float64) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
	for k, v := range x {
		s0 += v * r0[k]
		s1 += v * r1[k]
		s2 += v * r2[k]
		s3 += v * r3[k]
	}
	return s0, s1, s2, s3
}

// --- matrix · vector ---------------------------------------------------

// MulVecInto computes out = m·x into the preallocated out.
func MulVecInto(out []float64, m *Dense, x []float64) {
	if len(x) != m.cols || len(out) != m.rows {
		panic("mat: MulVecInto dimension mismatch")
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
}

// MulTVecInto computes out = mᵀ·x into the preallocated out. Every
// element accumulates over m's rows in ascending order.
func MulTVecInto(out []float64, m *Dense, x []float64) {
	if len(x) != m.rows || len(out) != m.cols {
		panic("mat: MulTVecInto dimension mismatch")
	}
	for j := range out {
		out[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out[j] += xi * v
		}
	}
}

// --- elementwise fused kernels ----------------------------------------

// LinComb3Into computes out = sa·a + sb·b + sc·c elementwise. out may
// alias any input.
//
//netlint:hotpath
func LinComb3Into(out *Dense, sa float64, a *Dense, sb float64, b *Dense, sc float64, c *Dense) {
	a.sameDims(b)
	a.sameDims(c)
	a.sameDims(out)
	o := out.data
	ad, bd, cd := a.data[:len(o)], b.data[:len(o)], c.data[:len(o)]
	for i := range o {
		o[i] = sa*ad[i] + sb*bd[i] + sc*cd[i]
	}
}

// CopyFrom copies b's elements into m (shapes must match).
func (m *Dense) CopyFrom(b *Dense) {
	m.sameDims(b)
	copy(m.data, b.data)
}

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}
