package rpca

// Online streaming RPCA: incremental constant-subspace tracking with the
// batch solver kept as a differential oracle.
//
// The batch pipeline re-decomposes a complete TP-matrix per epoch; the
// streaming solver instead ingests pair measurements column-by-column and
// maintains the constant component at two tiers:
//
//   - a fast tier, run per column: project the new measurement column onto
//     the warm left subspace held by the solver's mat.SVTWorkspace (the
//     leading left singular vectors of the last resolved low-rank
//     component), split the column into a low-rank part d̂ = U·(Uᵀa) and a
//     residual ê = a − d̂, and extract the column's constant estimate from
//     d̂. Cost O(rows·k) — no decomposition at all. Optionally (TrackEvery)
//     a single warm-started truncated SVT over the accumulated matrix
//     refreshes the subspace, which the workspace carries across widths
//     (CarryAcrossWidths), absorbing slow drift between resolves;
//
//   - an authoritative tier, Resolve: a warm-started IALM over the matrix
//     so far, identical in schedule, initialization and stopping rule to
//     the batch solver — only the SVT route differs, because the warm
//     subspace makes every D-step take the truncated route. This is the
//     "cheap partial re-solve" a regime change triggers instead of a cold
//     restart, and the per-epoch replacement for full re-decomposition.
//
// Verify runs the cold batch solver on the same matrix — the differential
// oracle — and reports how far the streaming state is from it, the same
// pattern as simnet's verifyGlobal: an independent re-derivation agreeing
// with the incremental state is strong evidence the tracking is right.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"netconstant/internal/cancel"
	"netconstant/internal/mat"
)

// StreamOptions configures a StreamingSolver. The zero value selects the
// batch solver defaults, median extraction, and subspace tracking on every
// appended column.
type StreamOptions struct {
	// Extract selects how per-column constant estimates are obtained; the
	// zero value is ExtractMedian, matching the batch pipeline default.
	Extract ExtractMethod
	// Solve configures the authoritative resolves (and the differential
	// oracle, which always runs the identical schedule cold). Its Ctx, if
	// set, cancels inside resolve iterations; the streaming update loop
	// itself is cancelled via StreamOptions.Ctx below.
	Solve Options
	// TrackEvery runs one warm truncated SVT over the accumulated matrix
	// every n appended columns to refresh the tracked subspace. 0 selects
	// 1 (every column); negative disables tracking between resolves.
	TrackEvery int
	// ResolveEvery triggers an authoritative warm resolve every n appended
	// columns. 0 disables cadence resolves — the caller (e.g. the advisor's
	// regime detector) decides when to resolve.
	ResolveEvery int
	// Ctx, when non-nil, is checked on every append and inside Seed's
	// ingestion loop; a cancelled context aborts with a *cancel.Error.
	Ctx context.Context
}

// StreamStats counts the work a StreamingSolver has done.
type StreamStats struct {
	Columns   int // columns ingested (Seed + AppendColumn)
	Replaced  int // columns overwritten by ReplaceColumn
	Tracked   int // fast-tier subspace-refresh SVTs
	Resolves  int // authoritative warm resolves
	FullSVDs  int // solver-lifetime SVT calls served by a full decomposition
	TruncSVDs int // solver-lifetime SVT calls served by the warm truncated route
}

// StreamAgreement is the differential-oracle verdict: the distance between
// the streaming solver's authoritative state and a cold batch IALM run on
// the identical matrix.
type StreamAgreement struct {
	RelFroD     float64 // ‖D_stream − D_batch‖F / max(1, ‖D_batch‖F)
	RelFroE     float64 // ‖E_stream − E_batch‖F / max(1, ‖E_batch‖F)
	ConstantRel float64 // RelDiff of the extracted constant rows
	StreamIters int     // iterations of the (warm) streaming resolve
	BatchIters  int     // iterations of the cold oracle solve
}

// StreamingSolver ingests TP-matrix columns one at a time and maintains
// the constant component incrementally. It is not safe for concurrent use.
type StreamingSolver struct {
	rows int
	opts StreamOptions

	// colData holds the accumulated matrix column-major (column j occupies
	// colData[j*rows : (j+1)*rows]) so appends are O(rows).
	colData []float64
	ncols   int

	// solver is the warm arena: carryWarm plus CarryAcrossWidths keep the
	// SVT subspace alive across widths and across resolves.
	solver *Solver

	// amat is the row-major materialization scratch for tracking/resolves.
	amat, aout []float64

	constant     []float64 // per-column constant estimates, streaming tier
	last         *Result   // last authoritative resolve (caller-owned clones)
	dirty        bool      // columns ingested or replaced since the last resolve
	trackTau     float64   // SVT threshold for subspace tracking; 0 = none yet
	sinceTrack   int
	sinceResolve int
	stats        StreamStats
	projBuf      []float64 // k-length projection scratch
	colBuf       []float64 // rows-length cleaned-column scratch
	sortBuf      []float64 // rows-length extraction scratch
	constantOld  []float64 // resolve-time snapshot (diagnostics for drift)
}

// NewStreamingSolver returns a streaming solver for TP-matrices with the
// given fixed number of rows (time steps per pair measurement column).
func NewStreamingSolver(rows int, opts StreamOptions) (*StreamingSolver, error) {
	if rows <= 0 {
		return nil, errors.New("rpca: streaming solver needs rows > 0")
	}
	if opts.TrackEvery == 0 {
		opts.TrackEvery = 1
	}
	s := &StreamingSolver{rows: rows, opts: opts, solver: NewSolver()}
	s.solver.carryWarm = true
	s.solver.svt.CarryAcrossWidths(true)
	return s, nil
}

// Rows returns the fixed column height.
func (s *StreamingSolver) Rows() int { return s.rows }

// Columns returns the number of columns ingested so far.
func (s *StreamingSolver) Columns() int { return s.ncols }

// Stats returns the work counters, including the shared SVT route stats.
func (s *StreamingSolver) Stats() StreamStats {
	st := s.stats
	st.FullSVDs, st.TruncSVDs = s.solver.SVTStats()
	return st
}

// Constant returns a copy of the current per-column constant row estimate
// P_D: authoritative values from the last resolve for the columns it saw,
// fast-tier projections for columns appended since.
func (s *StreamingSolver) Constant() []float64 {
	out := make([]float64, s.ncols)
	copy(out, s.constant)
	return out
}

// LastResult returns the last authoritative resolve, or nil before the
// first one. The matrices are owned by the solver's history — treat them
// as read-only.
func (s *StreamingSolver) LastResult() *Result { return s.last }

// Matrix materializes the accumulated TP-matrix (rows × Columns()) as a
// fresh caller-owned Dense.
func (s *StreamingSolver) Matrix() *mat.Dense {
	return s.matrixView().Clone()
}

// matrixView materializes the accumulated matrix row-major into the amat
// scratch and returns a view over it. The view is invalidated by the next
// append/materialize.
func (s *StreamingSolver) matrixView() *mat.Dense {
	r, c := s.rows, s.ncols
	if cap(s.amat) < r*c {
		s.amat = make([]float64, r*c)
	}
	s.amat = s.amat[:r*c]
	for j := 0; j < c; j++ {
		col := s.colData[j*r : (j+1)*r]
		for i, v := range col {
			s.amat[i*c+j] = v
		}
	}
	return mat.NewDenseData(r, c, s.amat)
}

// Seed ingests an existing TP-matrix (e.g. the advisor's last full
// calibration) column-by-column and runs an initial authoritative resolve,
// so subsequent appends start from a warm subspace.
func (s *StreamingSolver) Seed(a *mat.Dense) error {
	r, c := a.Dims()
	if r != s.rows {
		return fmt.Errorf("rpca: seed matrix has %d rows, streaming solver wants %d", r, s.rows)
	}
	col := make([]float64, r)
	for j := 0; j < c; j++ {
		if err := cancel.Check(s.opts.Ctx, "rpca.StreamSeed", j, c); err != nil {
			return err
		}
		for i := 0; i < r; i++ {
			col[i] = a.At(i, j)
		}
		s.ingest(col)
	}
	_, err := s.Resolve()
	return err
}

// ingest appends one column and its fast-tier constant estimate.
func (s *StreamingSolver) ingest(col []float64) {
	s.colData = append(s.colData, col...)
	s.ncols++
	s.stats.Columns++
	s.dirty = true
	s.sinceResolve++
	s.constant = append(s.constant, s.fastEstimate(col))
}

// AppendColumn ingests one new pair-measurement column (length Rows()):
// fast-tier constant estimate immediately, subspace-tracking SVT every
// TrackEvery columns, authoritative warm resolve every ResolveEvery.
func (s *StreamingSolver) AppendColumn(col []float64) error {
	if len(col) != s.rows {
		return fmt.Errorf("rpca: column length %d, want %d", len(col), s.rows)
	}
	if err := cancel.Check(s.opts.Ctx, "rpca.Stream", s.ncols, s.ncols+1); err != nil {
		return err
	}
	if err := checkFiniteSlice(col); err != nil {
		return err
	}
	s.ingest(col)

	if s.opts.ResolveEvery > 0 && s.sinceResolve >= s.opts.ResolveEvery {
		_, err := s.Resolve()
		return err
	}
	if s.opts.TrackEvery > 0 {
		s.sinceTrack++
		if s.sinceTrack >= s.opts.TrackEvery {
			s.track()
		}
	}
	return nil
}

// ReplaceColumn overwrites a previously ingested column (a re-measured
// pair) and refreshes its fast-tier constant estimate.
func (s *StreamingSolver) ReplaceColumn(j int, col []float64) error {
	if j < 0 || j >= s.ncols {
		return fmt.Errorf("rpca: replace column %d of %d", j, s.ncols)
	}
	if len(col) != s.rows {
		return fmt.Errorf("rpca: column length %d, want %d", len(col), s.rows)
	}
	if err := checkFiniteSlice(col); err != nil {
		return err
	}
	copy(s.colData[j*s.rows:(j+1)*s.rows], col)
	s.constant[j] = s.fastEstimate(col)
	s.dirty = true
	s.stats.Replaced++
	return nil
}

// fastEstimate splits col against the tracked subspace and extracts the
// column's constant value from the low-rank part. With no warm subspace
// yet (cold start, or the matrix is still square-ish) the raw column is
// used — the first resolve replaces these provisional values.
func (s *StreamingSolver) fastEstimate(col []float64) float64 {
	r := s.rows
	u, ur, k, _ := s.solver.svt.WarmSubspace()
	d := col
	if u != nil && ur == r {
		if cap(s.projBuf) < k {
			s.projBuf = make([]float64, k)
		}
		w := s.projBuf[:k]
		for l := range w {
			w[l] = 0
		}
		for i := 0; i < r; i++ {
			ai := col[i]
			urow := u[i*k : (i+1)*k]
			for l, ul := range urow {
				w[l] += ul * ai
			}
		}
		if cap(s.colBuf) < r {
			s.colBuf = make([]float64, r)
		}
		dhat := s.colBuf[:r]
		for i := 0; i < r; i++ {
			var v float64
			urow := u[i*k : (i+1)*k]
			for l, ul := range urow {
				v += ul * w[l]
			}
			dhat[i] = v
		}
		d = dhat
	}
	return extractValue(d, s.opts.Extract, &s.sortBuf)
}

// track refreshes the warm subspace with a single SVT over the matrix so
// far at the rank-revealing threshold remembered from the last resolve.
// Only the workspace's warm state is wanted; the thresholded output is
// discarded.
func (s *StreamingSolver) track() {
	s.sinceTrack = 0
	if s.trackTau <= 0 {
		return // no resolve yet — nothing rank-revealing to track against
	}
	a := s.matrixView()
	r, c := a.Dims()
	if cap(s.aout) < r*c {
		s.aout = make([]float64, r*c)
	}
	out := mat.NewDenseData(r, c, s.aout[:r*c])
	s.solver.svt.SVTInto(out, a, s.trackTau)
	s.stats.Tracked++
}

// Resolve runs the authoritative warm-started IALM over the matrix so far
// — the cheap partial re-solve a regime change triggers. The schedule,
// initialization and stopping rule are identical to the batch solver's;
// the warm subspace only changes which SVT route serves each D-step, so
// the result tracks the cold batch answer to the subspace-iteration
// tolerance (and is byte-identical whenever the truncated route does not
// engage). The constant row is re-extracted for every column.
func (s *StreamingSolver) Resolve() (*Result, error) {
	if s.ncols == 0 {
		return nil, errors.New("rpca: streaming resolve with no columns")
	}
	a := s.matrixView()
	res, err := s.solver.Decompose(a, s.opts.Solve)
	if err != nil {
		return nil, err
	}
	s.last = res
	s.dirty = false
	s.sinceResolve = 0
	s.sinceTrack = 0
	s.stats.Resolves++
	s.constantOld = append(s.constantOld[:0], s.constant...)
	s.constant = append(s.constant[:0], ConstantRow(res.D, s.opts.Extract)...)
	s.trackTau = trackThreshold(res.D, res.RankD)
	return res, nil
}

// Verify is the differential oracle: run the batch IALM cold (fresh
// solver, no warm state) on the accumulated matrix and compare it with the
// streaming solver's authoritative state, resolving first if columns
// arrived since the last resolve. The same-schedule guarantee means any
// disagreement beyond the truncated-SVT tolerance is a bug.
func (s *StreamingSolver) Verify() (StreamAgreement, error) {
	var ag StreamAgreement
	if s.last == nil || s.dirty {
		if _, err := s.Resolve(); err != nil {
			return ag, err
		}
	}
	batch, err := NewSolver().Decompose(s.matrixView(), s.opts.Solve)
	if err != nil {
		return ag, err
	}
	ag.RelFroD = mat.NormFroDiff(s.last.D, batch.D) / math.Max(1, batch.D.NormFrobenius())
	ag.RelFroE = mat.NormFroDiff(s.last.E, batch.E) / math.Max(1, batch.E.NormFrobenius())
	ag.ConstantRel = RelDiff(s.constant, ConstantRow(batch.D, s.opts.Extract))
	ag.StreamIters = s.last.Iterations
	ag.BatchIters = batch.Iterations
	return ag, nil
}

// RelNormE returns the paper's effectiveness metric over the accumulated
// matrix against the current constant row: ‖A − N_D‖₁ / ‖A‖₁, where N_D
// replicates the constant row. Cheap (one pass) and usable between
// resolves, since the constant row is maintained per column.
func (s *StreamingSolver) RelNormE() float64 {
	var num, den float64
	r := s.rows
	for j := 0; j < s.ncols; j++ {
		p := s.constant[j]
		col := s.colData[j*r : (j+1)*r]
		for _, v := range col {
			num += math.Abs(v - p)
			den += math.Abs(v)
		}
	}
	if den == 0 {
		return 0
	}
	v := num / den
	if v > 1 {
		v = 1
	}
	return v
}

// trackThreshold picks the subspace-tracking SVT threshold from a resolved
// low-rank component: half its smallest kept singular value, which keeps
// the tracked block at the resolved rank while rejecting residual noise
// directions. Returns 0 (tracking disabled) for a rank-0 component.
func trackThreshold(d *mat.Dense, rank int) float64 {
	if rank <= 0 {
		return 0
	}
	r, c := d.Dims()
	if r > c {
		// Track in the fat orientation the workspace uses.
		rank = min(rank, c)
	}
	vals, _ := mat.EigSym(d.Gram())
	if rank > len(vals) {
		rank = len(vals)
	}
	lam := vals[rank-1]
	if lam <= 0 {
		return 0
	}
	return 0.5 * math.Sqrt(lam)
}

// extractValue reduces a cleaned column to its constant estimate using the
// requested method. ExtractRank1 has no meaningful per-column analogue, so
// it falls back to the mean; resolves still honour it for the full row.
func extractValue(col []float64, method ExtractMethod, scratch *[]float64) float64 {
	n := len(col)
	if n == 0 {
		return 0
	}
	switch method {
	case ExtractMedian:
		if cap(*scratch) < n {
			*scratch = make([]float64, n)
		}
		tmp := (*scratch)[:n]
		copy(tmp, col)
		return median(tmp)
	default:
		var s float64
		for _, v := range col {
			s += v
		}
		return s / float64(n)
	}
}

// median sorts tmp in place and returns its median.
func median(tmp []float64) float64 {
	insertionSort(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return 0.5 * (tmp[n/2-1] + tmp[n/2])
}

// insertionSort keeps the per-column extraction allocation-free; columns
// are short (tens of time steps), where insertion sort beats sort.Float64s.
func insertionSort(x []float64) {
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i - 1
		for j >= 0 && x[j] > v {
			x[j+1] = x[j]
			j--
		}
		x[j+1] = v
	}
}

// checkFiniteSlice rejects NaN/Inf measurement values with the package's
// typed non-finite error.
func checkFiniteSlice(col []float64) error {
	for i, v := range col {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("rpca: column entry %d is %v: %w", i, v, ErrNonFinite)
		}
	}
	return nil
}
