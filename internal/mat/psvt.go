package mat

// Workspace-backed singular value thresholding — the per-iteration
// proximal operator of the RPCA solver, arranged so that steady-state
// solver iterations on fat matrices do not allocate.
//
// The route is chosen by shape alone:
//
//  1. square-ish matrices (max dim ≤ 4·min dim) go through the plain
//     SVD()+threshold path, matching Dense.SVT exactly;
//  2. fat (or tall, worked on transposed) matrices take the
//     allocation-free Gram route: GramInto + eigSymInPlace on the small
//     side, then a scaled aᵀb product for the right factors — the same
//     arithmetic, in the same order, as the svdGram route.
//
// A call's result depends only on its input and threshold, never on an
// earlier call. The workspace is not safe for concurrent use.

import "math"

// svtSlack is how many left singular vectors beyond the thresholded rank
// the Gram route records for LeadingSubspace.
const svtSlack = 4

// SVTWorkspace owns every buffer the repeated SVT of same-shaped matrices
// needs, plus the leading left singular vectors of the last call. The
// zero value is an empty workspace, as NewSVTWorkspace returns. Every
// buffer is sized per call from the current shape, so no stale-capacity
// reuse can under-allocate or alias a mis-shaped view.
type SVTWorkspace struct {
	calls int // SVTInto calls served (diagnostics)

	// The last call's leading uk left singular vectors in its fat
	// orientation (ur×uk, row-major); uk = 0 after a square-ish call.
	ur, uk int
	uLead  []float64

	// scratch storage, grown on demand.
	tIn, tOut   []float64 // transposed input/output for tall shapes
	gbuf, evbuf []float64 // small-side Gram and its eigenvectors
	vals, shat  []float64
	ubuf        []float64 // r×rank left vectors
	vtbuf       []float64 // rank×c right factors

	// reusable headers so views over the buffers never allocate.
	hIn, hOut, hG, hEv, hU, hVT Dense
}

// NewSVTWorkspace returns an empty workspace; buffers are sized by the
// first SVTInto call.
func NewSVTWorkspace() *SVTWorkspace {
	return &SVTWorkspace{}
}

// Calls reports how many non-empty SVTInto calls the workspace served.
func (ws *SVTWorkspace) Calls() int { return ws.calls }

// LeadingSubspace returns the leading k left singular vectors (rank +
// svtSlack, capped at the small side) of the last SVTInto input in its
// fat orientation, as a row-major rows×k block (rows = the small-side
// dimension). The returned slice aliases workspace storage — callers must
// treat it as read-only and must not hold it across SVTInto calls. It
// returns (nil, 0, 0) before the first call and after a square-ish one.
func (ws *SVTWorkspace) LeadingSubspace() (u []float64, rows, k int) {
	if ws.uk == 0 {
		return nil, 0, 0
	}
	return ws.uLead[:ws.ur*ws.uk], ws.ur, ws.uk
}

func growSlice(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	return (*s)[:n]
}

// view repoints a reusable header at buf as an r×c matrix.
func view(h *Dense, r, c int, buf []float64) *Dense {
	h.rows, h.cols = r, c
	h.data = buf[:r*c]
	return h
}

// SVTInto computes out = SVT_tau(m) — shrink every singular value of m by
// tau, drop the negatives, reconstruct — returning the surviving count
// (the rank of out). out must be preallocated with m's shape and must not
// alias m. Results are byte-identical at any parallelism.
//
//netlint:hotpath
func (ws *SVTWorkspace) SVTInto(out, m *Dense, tau float64) int {
	r0, c0 := m.Dims()
	if or, oc := out.Dims(); or != r0 || oc != c0 {
		panic("mat: SVTInto output shape mismatch")
	}
	if r0 == 0 || c0 == 0 {
		return 0
	}
	ws.calls++
	small, large := r0, c0
	if c0 < r0 {
		small, large = c0, r0
	}
	if large <= 4*small {
		// Square-ish: keep the exact Dense.SVT arithmetic (Jacobi SVD
		// route). These shapes are small in this codebase; the allocation
		// guarantee targets the fat TP-matrix hot path below.
		ws.uk = 0
		d, rank := m.SVT(tau)
		out.CopyFrom(d)
		return rank
	}

	// Orient fat: work on wm (r ≤ c), writing into wout.
	wm, wout := m, out
	transposed := r0 > c0
	if transposed {
		ti := growSlice(&ws.tIn, r0*c0)
		wm = view(&ws.hIn, c0, r0, ti)
		transposeInto(wm, m)
		to := growSlice(&ws.tOut, r0*c0)
		wout = view(&ws.hOut, c0, r0, to)
	}
	rank := ws.svtGram(wout, wm, tau)
	if transposed {
		transposeInto(out, wout)
	}
	return rank
}

// transposeInto writes src's transpose into dst (dst is src.cols×src.rows).
func transposeInto(dst, src *Dense) {
	for i := 0; i < src.rows; i++ {
		row := src.data[i*src.cols : (i+1)*src.cols]
		for j, v := range row {
			dst.data[j*dst.cols+i] = v
		}
	}
}

// svtGram is the allocation-free Gram route for fat wm (r ≤ c):
// A·Aᵀ = U Λ Uᵀ, σ = √λ, Vᵀ = Σ⁻¹ Uᵀ A, reconstruct the σ > tau part.
func (ws *SVTWorkspace) svtGram(out, wm *Dense, tau float64) int {
	r, c := wm.rows, wm.cols
	g := view(&ws.hG, r, r, growSlice(&ws.gbuf, r*r))
	GramInto(g, wm)
	ev := view(&ws.hEv, r, r, growSlice(&ws.evbuf, r*r))
	vals := growSlice(&ws.vals, r)
	eigSymInPlace(g, ev, vals)

	rank := 0
	for i := 0; i < r; i++ {
		s := 0.0
		if vals[i] > 0 {
			s = math.Sqrt(vals[i])
		}
		vals[i] = s
		if s >= tau {
			rank++
		}
	}

	// The leading rank+slack left vectors, for LeadingSubspace.
	uk := minInt(rank+svtSlack, r)
	copyLeadingColumns(growSlice(&ws.uLead, r*uk), uk, ev, uk)
	ws.ur, ws.uk = r, uk

	if rank == 0 {
		out.Zero()
		return 0
	}
	u := view(&ws.hU, r, rank, growSlice(&ws.ubuf, r*rank))
	copyLeadingColumns(u.data, rank, ev, rank)
	vt := view(&ws.hVT, rank, c, growSlice(&ws.vtbuf, rank*c))
	mulATBInto(vt, u, wm)
	shat := growSlice(&ws.shat, rank)
	for l := 0; l < rank; l++ {
		inv := 0.0
		if vals[l] > 0 {
			inv = 1 / vals[l]
		}
		row := vt.data[l*c : (l+1)*c]
		for j := range row {
			row[j] *= inv
		}
		shat[l] = vals[l] - tau
	}
	reconstructInto(out, u, shat, vt)
	return rank
}

// copyLeadingColumns copies the first n columns of src (any stride) into
// dst laid out with stride dstK.
func copyLeadingColumns(dst []float64, dstK int, src *Dense, n int) {
	for i := 0; i < src.rows; i++ {
		for l := 0; l < n; l++ {
			dst[i*dstK+l] = src.data[i*src.cols+l]
		}
	}
}

// --- reconstruction kernel ----------------------------------------------

func reconstructRange(out, u, vt *Dense, shat []float64, lo, hi int) {
	ku, c := u.cols, out.cols
	for i := lo; i < hi; i++ {
		orow := out.data[i*c : (i+1)*c]
		for j := range orow {
			orow[j] = 0
		}
		var rows axpyRows
		for l, sh := range shat {
			rows.add(orow, u.data[i*ku+l]*sh, vt.data[l*c:(l+1)*c])
		}
		rows.flush(orow)
	}
}

type reconstructTask struct {
	out, u, vt *Dense
	shat       []float64
}

func (t *reconstructTask) Run(lo, hi int) { reconstructRange(t.out, t.u, t.vt, t.shat, lo, hi) }

// reconstructInto computes out = U · diag(shat) · Vᵀ for the leading
// len(shat) components, with Vᵀ supplied row-major (k×c).
func reconstructInto(out, u *Dense, shat []float64, vt *Dense) {
	if work := len(shat) * out.rows * out.cols; parGate(work) {
		grain := maxInt(1, parMinWork/maxInt(1, len(shat)*out.cols))
		parallelFor(out.rows, grain, &reconstructTask{out: out, u: u, vt: vt, shat: shat})
		return
	}
	reconstructRange(out, u, vt, shat, 0, out.rows)
}
