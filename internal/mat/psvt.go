package mat

// Warm-started, workspace-backed singular value thresholding — the
// per-iteration proximal operator of the RPCA solvers, rebuilt so that
// steady-state solver iterations neither allocate nor compute a full SVD.
//
// Three routes, chosen per call:
//
//  1. square-ish matrices (max dim ≤ 4·min dim) go through the plain
//     SVD()+threshold path, matching Dense.SVT exactly;
//  2. fat (or tall) matrices with no usable warm start take the
//     allocation-free Gram route: GramInto + eigSymInPlace on the small
//     side, then a scaled aᵀb product for the right factors — the same
//     arithmetic, in the same order, as the svdGram route;
//  3. fat matrices with a warm start take the truncated route: block
//     subspace iteration on A·Aᵀ seeded with the previous left singular
//     vectors computes only the top-(rank+slack) subspace, which is all
//     the thresholding can keep. If every computed singular value
//     survives the threshold the subspace may be too small, so the block
//     is grown and, past half the small dimension, the call falls back
//     to route 2. This is the standard partial-SVD acceleration for
//     SVT-based RPCA solvers.
//
// The workspace is not safe for concurrent use.

import "math"

const (
	// svtMinTruncSide is the smallest small-side dimension for which the
	// truncated route can beat the Gram route.
	svtMinTruncSide = 16
	// svtSlack is how many subspace columns are kept beyond the previous
	// rank, absorbing moderate rank growth without a fallback.
	svtSlack = 4
	// svtPowerTol is the relative stabilization tolerance on the Rayleigh
	// quotients (estimates of σ²) that ends the subspace iteration.
	svtPowerTol = 1e-9
	// svtMaxPowerIters caps one subspace iteration; with a warm start the
	// loop typically ends after 2–3 rounds.
	svtMaxPowerIters = 100
)

// SVTWorkspace owns every buffer the repeated SVT of same-shaped matrices
// needs, plus the warm-start state (previous rank and left subspace).
// The zero value is not usable; call NewSVTWorkspace. Binding is lazy:
// the first SVTInto sizes the buffers, and a call with a different shape
// re-sizes and forgets the warm start — unless CarryAcrossWidths is on
// and only the large dimension changed, in which case the warm subspace
// (which lives on the small side) survives the re-bind.
type SVTWorkspace struct {
	rows, cols int // bound caller-facing shape

	// carryWidths keeps the warm subspace across shape changes that only
	// grow or shrink the fat orientation's large dimension (the streaming
	// column-append case). The small side — the dimension the warm left
	// subspace lives in — must be unchanged, and the orientation must not
	// flip (the left subspace of A is not the left subspace of Aᵀ).
	carryWidths bool

	prevRank int // rank of the previous result; -1 = no warm state
	uk       int // valid warm-start columns in uPrev
	fullSVDs int // calls served by routes 1–2 (diagnostics)
	truncs   int // calls served by the truncated route (diagnostics)

	// persistent warm state: leading uk left singular vectors (r×uk,
	// contiguous) of the previous thresholded matrix.
	uPrev []float64

	// scratch storage, grown on demand.
	tIn, tOut          []float64 // transposed input/output for tall shapes
	gbuf, evbuf        []float64 // small-side Gram and its eigenvectors
	vals, shat, rq, r2 []float64
	qbuf, q2buf        []float64 // subspace blocks (r×k)
	zbuf               []float64 // contiguous leading-rank copy of U
	bbuf               []float64 // k×k Rayleigh–Ritz projection QᵀGQ
	ubuf               []float64 // r×k left vectors
	vtbuf              []float64 // rank×c right factors (up to r×c)

	// reusable headers so views over the buffers never allocate.
	hIn, hOut, hG, hEv, hQ, hQ2, hZ, hB, hU, hVT Dense
}

// NewSVTWorkspace returns an empty workspace; buffers are sized by the
// first SVTInto call.
func NewSVTWorkspace() *SVTWorkspace {
	return &SVTWorkspace{prevRank: -1}
}

// Reset forgets the warm-start state; the next SVTInto runs a full
// decomposition. Shape bindings and buffers are kept.
func (ws *SVTWorkspace) Reset() {
	ws.prevRank = -1
	ws.uk = 0
}

// CarryAcrossWidths controls whether the warm subspace survives shape
// changes that alter only the fat orientation's large dimension — e.g. a
// streaming solver appending measurement columns to a fixed-height
// TP-matrix. The warm left subspace is a basis of the small-side space,
// so it stays a valid (approximate) seed when columns are added or
// removed; any change to the small side, or a flip between fat and tall
// orientation, still resets it. Off by default: batch solvers re-binding
// to a new shape keep the old reset-everything semantics.
func (ws *SVTWorkspace) CarryAcrossWidths(on bool) { ws.carryWidths = on }

// rebind records a new caller-facing shape, deciding whether the warm
// state survives. The warm subspace is kept only when all of:
//   - carrying across widths was requested,
//   - there is warm state to keep,
//   - the fat orientation (rows ≤ cols vs rows > cols) did not flip, and
//   - the small-side dimension — the space uPrev's columns live in — is
//     unchanged.
//
// Everything else (scratch buffers) is sized per call from the current
// dimensions, so no stale-capacity reuse can under-allocate or alias a
// mis-shaped view.
func (ws *SVTWorkspace) rebind(r, c int) {
	keep := ws.carryWidths && ws.prevRank >= 0 &&
		(r > c) == (ws.rows > ws.cols) &&
		minInt(r, c) == minInt(ws.rows, ws.cols)
	ws.rows, ws.cols = r, c
	if !keep {
		ws.Reset()
	}
}

// Stats reports how many SVT calls used a full decomposition and how many
// the truncated warm-started route.
func (ws *SVTWorkspace) Stats() (full, truncated int) { return ws.fullSVDs, ws.truncs }

// WarmSubspace exposes the warm-start state: the leading k left singular
// vectors of the previously thresholded matrix in its fat orientation, as
// a row-major rows×k block (rows = the small-side dimension), plus the
// previous rank. The returned slice aliases workspace storage — callers
// must treat it as read-only and must not hold it across SVTInto calls.
// It returns (nil, 0, 0, -1) when there is no warm state (fresh, reset, or
// last served by the square-ish exact route).
func (ws *SVTWorkspace) WarmSubspace() (u []float64, rows, k, prevRank int) {
	if ws.prevRank < 0 || ws.uk == 0 {
		return nil, 0, 0, -1
	}
	r := minInt(ws.rows, ws.cols)
	return ws.uPrev[:r*ws.uk], r, ws.uk, ws.prevRank
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
// alias m. Results are byte-identical at any parallelism; the truncated
// route is a numerical approximation of the full route accurate to the
// subspace-iteration tolerance.
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
	if r0 != ws.rows || c0 != ws.cols {
		ws.rebind(r0, c0)
	}
	small, large := r0, c0
	if c0 < r0 {
		small, large = c0, r0
	}
	if large <= 4*small {
		// Square-ish: keep the exact Dense.SVT arithmetic (Jacobi SVD
		// route). These shapes are small in this codebase; the allocation
		// guarantee targets the fat TP-matrix hot path below.
		ws.fullSVDs++
		ws.prevRank = -1 // warm state is only maintained on the fat path
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
	r := wm.rows

	rank := -1
	if ws.prevRank >= 0 && r >= svtMinTruncSide {
		if k := ws.prevRank + svtSlack; k <= r/2 {
			rank = ws.svtTruncated(wout, wm, tau, k)
		}
	}
	if rank < 0 {
		rank = ws.svtFullFat(wout, wm, tau)
		ws.fullSVDs++
	} else {
		ws.truncs++
	}
	ws.prevRank = rank
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

// svtFullFat is the allocation-free Gram route for fat wm (r ≤ c):
// A·Aᵀ = U Λ Uᵀ, σ = √λ, Vᵀ = Σ⁻¹ Uᵀ A, reconstruct the σ > tau part.
func (ws *SVTWorkspace) svtFullFat(out, wm *Dense, tau float64) int {
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

	// Warm-start subspace for the next call: leading rank+slack columns.
	uk := minInt(rank+svtSlack, r)
	up := growSlice(&ws.uPrev, r*uk)
	copyLeadingColumns(up, uk, ev, uk)
	ws.uk = uk

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

// svtTruncated computes the thresholding through the top-k left subspace
// of A, obtained by block subspace iteration on the small r×r Gram matrix
// G = A·Aᵀ seeded with the previous U. Forming G costs the same r²c/2 as
// the full route's first step, but every subsequent power sweep is r²k
// flops (vs 2rck iterating on A directly), so a generous iteration budget
// is essentially free and clustered noise eigenvalues cannot make the
// call expensive. The full route's r×r Jacobi eigensolve and per-column
// V products are replaced by a k×k Rayleigh–Ritz problem and rank-column
// products. Returns -1 when the subspace would have to grow past r/2, in
// which case the caller falls back to the full route.
func (ws *SVTWorkspace) svtTruncated(out, wm *Dense, tau float64, k int) int {
	r, c := wm.rows, wm.cols
	g := view(&ws.hG, r, r, growSlice(&ws.gbuf, r*r))
	GramInto(g, wm)
	q := view(&ws.hQ, r, k, growSlice(&ws.qbuf, r*(r/2+1)))
	q2 := view(&ws.hQ2, r, k, growSlice(&ws.q2buf, r*(r/2+1)))

	// Seed: previous left singular vectors, padded with deterministic
	// filler columns, orthonormalized.
	seedCols := minInt(ws.uk, k)
	for i := 0; i < r; i++ {
		for l := 0; l < seedCols; l++ {
			q.data[i*k+l] = ws.uPrev[i*ws.uk+l]
		}
	}
	for l := seedCols; l < k; l++ {
		fillColumnDeterministic(q, l, uint64(l)+1)
	}
	orthonormalizeColumns(q, 0x5eed)

	// Columns whose Rayleigh quotient (≈ σ²) sits safely below the
	// threshold are discarded by the shrinkage no matter their exact
	// value, so they are exempt from the convergence test — without this,
	// clustered noise eigenvalues stall the iteration at the cap.
	floor := 0.25 * tau * tau

	for {
		rq := growSlice(&ws.rq, k)
		rqPrev := growSlice(&ws.r2, k)
		for it := 0; it < svtMaxPowerIters; it++ {
			MulInto(q2, g, q) // q2 = (A·Aᵀ)·Q, an r×r product
			rq, rqPrev = rqPrev, rq
			rayleighColumns(rq, q, q2) // rq[l] ≈ σ²_l
			converged := it > 0
			if converged {
				scale := math.Max(rq[0], 1e-300)
				for l := 0; l < k; l++ {
					if rq[l] < floor && rqPrev[l] < floor {
						continue
					}
					if math.Abs(rq[l]-rqPrev[l]) > svtPowerTol*scale {
						converged = false
						break
					}
				}
			}
			orthonormalizeColumns(q2, uint64(17+it))
			q, q2 = q2, q
			if converged {
				break
			}
		}

		// Rayleigh–Ritz on span(Q): H = QᵀGQ, H = Ū Λ Ūᵀ, σ = √λ.
		MulInto(q2, g, q)
		h := view(&ws.hB, k, k, growSlice(&ws.bbuf, maxInt(k*k, 1)))
		mulATBInto(h, q, q2)
		ev := view(&ws.hEv, k, k, growSlice(&ws.evbuf, k*k))
		vals := growSlice(&ws.vals, k)
		eigSymInPlace(h, ev, vals)
		rank := 0
		for i := 0; i < k; i++ {
			s := 0.0
			if vals[i] > 0 {
				s = math.Sqrt(vals[i])
			}
			vals[i] = s
			if s >= tau {
				rank++
			}
		}

		if rank == k && k < r {
			// Every computed value survived the threshold: components
			// beyond the block may survive too. Grow and re-iterate (the
			// current Q warm-starts the bigger block) or fall back.
			kNew := minInt(2*k, r/2)
			if kNew <= k {
				return -1
			}
			q.data = q.data[:r*kNew]
			q2.data = q2.data[:r*kNew]
			for i := r - 1; i >= 0; i-- { // re-stride r×k → r×kNew in place
				for l := k - 1; l >= 0; l-- {
					q.data[i*kNew+l] = q.data[i*k+l]
				}
			}
			q.cols, q2.cols = kNew, kNew
			for l := k; l < kNew; l++ {
				fillColumnDeterministic(q, l, uint64(l)+101)
			}
			orthonormalizeColumns(q, 0xbeef)
			k = kNew
			continue
		}

		// U = Q·Ū (r×k); warm state keeps rank+slack leading columns.
		u := view(&ws.hU, r, k, growSlice(&ws.ubuf, r*(r/2+1)))
		MulInto(u, q, ev)
		uk := minInt(rank+svtSlack, k)
		up := growSlice(&ws.uPrev, r*uk)
		copyLeadingColumns(up, uk, u, uk)
		ws.uk = uk
		if rank == 0 {
			out.Zero()
			return 0
		}

		// Vᵀ = Σ⁻¹ UᵣᵀA for the surviving components only; Uᵣ is the
		// contiguous copy of U's leading rank columns (mulATBInto needs
		// tight stride).
		ur := view(&ws.hZ, r, rank, growSlice(&ws.zbuf, r*(r/2+1)))
		copyLeadingColumns(ur.data, rank, u, rank)
		vt := view(&ws.hVT, rank, c, growSlice(&ws.vtbuf, (r/2+1)*c))
		mulATBInto(vt, ur, wm)
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
		reconstructInto(out, ur, shat, vt)
		return rank
	}
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

// rayleighColumns writes rq[l] = q_lᵀ·w_l, the Rayleigh quotient of each
// (unit) column of q against w = (A·Aᵀ)·q.
func rayleighColumns(rq []float64, q, w *Dense) {
	k := q.cols
	for l := range rq {
		rq[l] = 0
	}
	for i := 0; i < q.rows; i++ {
		qrow := q.data[i*k : (i+1)*k]
		wrow := w.data[i*k : (i+1)*k]
		for l := range qrow {
			rq[l] += qrow[l] * wrow[l]
		}
	}
}

// fillColumnDeterministic writes a reproducible pseudo-random column
// (xorshift64*, seeded only by the column index and salt) — the
// deterministic replacement for rand when padding subspace blocks.
func fillColumnDeterministic(q *Dense, j int, salt uint64) {
	s := salt*0x9E3779B97F4A7C15 + uint64(j+1)*0xBF58476D1CE4E5B9
	if s == 0 {
		s = 0x2545F4914F6CDD1D
	}
	for i := 0; i < q.rows; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		q.data[i*q.cols+j] = float64(s>>11)/(1<<53) - 0.5
	}
}

// orthonormalizeColumns runs modified Gram-Schmidt (with one
// re-orthogonalization pass) over the columns of q in place. Columns that
// collapse numerically are refilled deterministically; if they keep
// collapsing they are zeroed, which the Rayleigh/eig stages treat as a
// harmless σ ≈ 0 direction.
func orthonormalizeColumns(q *Dense, salt uint64) {
	r, k := q.rows, q.cols
	for j := 0; j < k; j++ {
		for attempt := 0; ; attempt++ {
			for pass := 0; pass < 2; pass++ {
				for p := 0; p < j; p++ {
					var dot float64
					for i := 0; i < r; i++ {
						dot += q.data[i*k+p] * q.data[i*k+j]
					}
					if dot == 0 {
						continue
					}
					for i := 0; i < r; i++ {
						q.data[i*k+j] -= dot * q.data[i*k+p]
					}
				}
			}
			var n float64
			for i := 0; i < r; i++ {
				v := q.data[i*k+j]
				n += v * v
			}
			n = math.Sqrt(n)
			if n > 1e-12 {
				inv := 1 / n
				for i := 0; i < r; i++ {
					q.data[i*k+j] *= inv
				}
				break
			}
			if attempt >= 2 {
				for i := 0; i < r; i++ {
					q.data[i*k+j] = 0
				}
				break
			}
			fillColumnDeterministic(q, j, salt+uint64(attempt+1)*0x9E3779B97F4A7C15)
		}
	}
}

// --- truncated reconstruction kernel -----------------------------------

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
