package rpca

// Streaming RPCA: re-measured pair columns replace columns of a seeded
// TP-matrix in place, and a resolve re-decomposes the edited matrix, with
// the batch solver kept as a differential oracle.
//
// The batch pipeline re-decomposes a complete TP-matrix per epoch; the
// streaming solver instead is seeded with a TP-matrix, takes re-measured
// pair columns one at a time, and re-solves when its caller asks (the
// advisor's regime detector, or an explicit request). A resolve is IALM
// over the matrix on the solver's reused arena. No SVT carries state from
// one call to the next, so a resolve is the same computation as a cold
// batch solve of the same matrix, bit for bit, at every shape. This is the
// partial re-solve a regime change triggers instead of a full
// re-calibration.
//
// Verify runs a fresh batch solver on the same matrix — the differential
// oracle — and reports how far the streaming state is from it, the same
// pattern as simnet's verifyGlobal. Any difference at all is a bug.

import (
	"fmt"
	"math"

	"netconstant/internal/mat"
)

// StreamOptions configures a StreamingSolver. The zero value selects the
// batch solver defaults and median extraction.
type StreamOptions struct {
	// Extract selects how the constant row is extracted from a resolve's
	// D; the zero value is ExtractMedian, matching the batch pipeline
	// default.
	Extract ExtractMethod
	// Solve configures the resolves (and the differential oracle, which
	// always runs the identical schedule cold). Its Ctx, if set, cancels
	// inside resolve iterations.
	Solve Options
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

// StreamingSolver holds a seeded TP-matrix as its columns are re-measured,
// the solver that resolves it, and its last resolve. It is not safe for
// concurrent use.
type StreamingSolver struct {
	opts   StreamOptions
	a      *mat.Dense // the matrix; ReplaceColumn writes into it in place
	solver *Solver

	last     *Result   // last resolve (caller-owned clones)
	constant []float64 // the constant row extracted from last.D
	dirty    bool      // columns replaced since the last resolve
}

// NewStreamingSolver seeds a streaming solver with a copy of the
// TP-matrix a (e.g. the advisor's last full calibration) and runs the
// first resolve, whose error it returns.
func NewStreamingSolver(a *mat.Dense, opts StreamOptions) (*StreamingSolver, error) {
	s := &StreamingSolver{opts: opts, a: a.Clone(), solver: NewSolver()}
	if _, err := s.Resolve(); err != nil {
		return nil, err
	}
	return s, nil
}

// Constant returns a copy of the constant row P_D of the last resolve.
func (s *StreamingSolver) Constant() []float64 {
	return append([]float64(nil), s.constant...)
}

// Matrix returns the current matrix, replaced columns included. It is
// the solver's own storage: callers must not modify it, and the next
// ReplaceColumn changes it.
func (s *StreamingSolver) Matrix() *mat.Dense { return s.a }

// CheckColumn returns the error ReplaceColumn(j, col) would: j out of
// range, a column of the wrong length, or a non-finite entry. A caller
// replacing columns of several solvers checks them all first, so a
// rejected update writes none.
func (s *StreamingSolver) CheckColumn(j int, col []float64) error {
	r, c := s.a.Dims()
	if j < 0 || j >= c {
		return fmt.Errorf("rpca: replace column %d of %d", j, c)
	}
	if len(col) != r {
		return fmt.Errorf("rpca: column length %d, want %d", len(col), r)
	}
	return checkFiniteSlice(col)
}

// ReplaceColumn overwrites column j (a re-measured pair) in place unless
// CheckColumn rejects it. The constant row changes at the next resolve.
func (s *StreamingSolver) ReplaceColumn(j int, col []float64) error {
	if err := s.CheckColumn(j, col); err != nil {
		return err
	}
	c := s.a.Cols()
	d := s.a.Data()
	for i, v := range col {
		d[i*c+j] = v
	}
	s.dirty = true
	return nil
}

// Resolve runs IALM over the matrix — the partial re-solve a regime
// change triggers. It is a batch solve of that matrix on the reused
// arena, so its result is the cold batch answer bit for bit.
func (s *StreamingSolver) Resolve() (*Result, error) {
	res, err := s.solver.Decompose(s.a, s.opts.Solve)
	if err != nil {
		return nil, err
	}
	s.last = res
	s.dirty = false
	s.constant = ConstantRow(res.D, s.opts.Extract)
	return res, nil
}

// Verify is the differential oracle: run the batch IALM on a fresh solver
// over the same matrix and compare it with the streaming solver's last
// resolve, resolving first if columns were replaced since. A resolve is
// the same computation, so any disagreement at all is a bug.
func (s *StreamingSolver) Verify() (StreamAgreement, error) {
	var ag StreamAgreement
	if s.dirty {
		if _, err := s.Resolve(); err != nil {
			return ag, err
		}
	}
	batch, err := NewSolver().Decompose(s.a, s.opts.Solve)
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
