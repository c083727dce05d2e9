package rpca

// Online streaming RPCA: per-column constant estimates between resolves,
// with the batch solver kept as a differential oracle.
//
// The batch pipeline re-decomposes a complete TP-matrix per epoch; the
// streaming solver instead is seeded with a TP-matrix, takes re-measured
// pair columns one at a time, and maintains the constant component at two
// tiers:
//
//   - a fast tier, run per replaced column: project the new measurement
//     column onto the leading left subspace recorded by the solver's
//     mat.SVTWorkspace (the leading left singular vectors of the last
//     resolve's SVT input), split the column into a low-rank part
//     d̂ = U·(Uᵀa) and a residual ê = a − d̂, and extract the column's
//     constant estimate from d̂. Cost O(rows·k) — no decomposition at all;
//
//   - an authoritative tier, Resolve: IALM over the matrix on the
//     solver's reused arena. No SVT carries state from one call to the
//     next, so a resolve is the same computation as a cold batch solve of
//     the same matrix, bit for bit, at every shape. This is the partial
//     re-solve a regime change triggers instead of a full re-calibration;
//     between resolves the fast tier stands in for the per-column
//     re-decomposition the batch pipeline would run.
//
// Verify runs a fresh batch solver on the same matrix — the differential
// oracle — and reports how far the streaming state is from it, the same
// pattern as simnet's verifyGlobal. Any difference at all is a bug.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"netconstant/internal/cancel"
	"netconstant/internal/mat"
)

// StreamOptions configures a StreamingSolver. The zero value selects the
// batch solver defaults and median extraction.
type StreamOptions struct {
	// Extract selects how per-column constant estimates are obtained; the
	// zero value is ExtractMedian, matching the batch pipeline default.
	Extract ExtractMethod
	// Solve configures the authoritative resolves (and the differential
	// oracle, which always runs the identical schedule cold). Its Ctx, if
	// set, cancels inside resolve iterations; the streaming update loop
	// itself is cancelled via StreamOptions.Ctx below.
	Solve Options
	// Ctx, when non-nil, is checked inside Seed's ingestion loop; a
	// cancelled context aborts with a *cancel.Error. The caller decides
	// when to resolve (the advisor's regime detector, or an explicit
	// request).
	Ctx context.Context
}

// StreamAgreement is the differential-oracle verdict: the distance between
// the streaming solver's authoritative state and a fresh batch IALM run on
// the identical matrix. Every field but the iteration counts reads 0 when
// the two agree, as they must.
type StreamAgreement struct {
	RelFroD     float64 // ‖D_stream − D_batch‖F / max(1, ‖D_batch‖F)
	RelFroE     float64 // ‖E_stream − E_batch‖F / max(1, ‖E_batch‖F)
	ConstantRel float64 // RelDiff of the extracted constant rows
	StreamIters int     // iterations of the streaming resolve
	BatchIters  int     // iterations of the oracle solve
}

// StreamingSolver maintains the constant component of a seeded TP-matrix
// as its columns are re-measured. It is not safe for concurrent use.
type StreamingSolver struct {
	rows int
	opts StreamOptions

	// colData holds the matrix column-major (column j occupies
	// colData[j*rows : (j+1)*rows]) so a replacement is O(rows).
	colData []float64
	ncols   int

	// solver is the reused arena; its SVT workspace holds the subspace
	// the fast tier projects onto.
	solver *Solver

	// amat is the row-major materialization scratch for resolves.
	amat []float64

	constant []float64 // per-column constant estimates, streaming tier
	last     *Result   // last authoritative resolve (caller-owned clones)
	dirty    bool      // columns replaced since the last resolve
	projBuf  []float64 // k-length projection scratch
	colBuf   []float64 // rows-length cleaned-column scratch
	sortBuf  []float64 // rows-length extraction scratch
}

// NewStreamingSolver returns a streaming solver for TP-matrices with the
// given fixed number of rows (time steps per pair measurement column).
func NewStreamingSolver(rows int, opts StreamOptions) (*StreamingSolver, error) {
	if rows <= 0 {
		return nil, errors.New("rpca: streaming solver needs rows > 0")
	}
	return &StreamingSolver{rows: rows, opts: opts, solver: NewSolver()}, nil
}

// Constant returns a copy of the current per-column constant row estimate
// P_D: authoritative values from the last resolve for the columns it saw
// unchanged, fast-tier projections for columns replaced since.
func (s *StreamingSolver) Constant() []float64 {
	out := make([]float64, s.ncols)
	copy(out, s.constant)
	return out
}

// matrixView materializes the matrix row-major into the amat scratch and
// returns a view over it. The view is invalidated by the next
// materialize.
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
// so subsequent replacements have a subspace to project onto.
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
	s.dirty = true
	s.constant = append(s.constant, s.fastEstimate(col))
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
	return nil
}

// fastEstimate splits col against the tracked subspace and extracts the
// column's constant value from the low-rank part. With no subspace (during
// Seed's ingestion, or after a square-ish resolve) the raw column is used;
// the next resolve replaces these provisional values.
func (s *StreamingSolver) fastEstimate(col []float64) float64 {
	r := s.rows
	u, ur, k := s.solver.svt.LeadingSubspace()
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

// Resolve runs the authoritative IALM over the matrix — the
// partial re-solve a regime change triggers. It is a batch solve of that
// matrix on the reused arena, so its result is the cold batch answer bit
// for bit. The constant row is re-extracted for every column.
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
	s.constant = append(s.constant[:0], ConstantRow(res.D, s.opts.Extract)...)
	return res, nil
}

// Verify is the differential oracle: run the batch IALM on a fresh solver
// over the same matrix and compare it with the streaming solver's
// authoritative state, resolving first if columns were replaced since the
// last resolve. A resolve is the same computation, so any disagreement at
// all is a bug.
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

// RelNormE returns the paper's effectiveness metric over the matrix
// against the current constant row: ‖A − N_D‖₁ / ‖A‖₁, where N_D
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
