package core

// Streaming guidance maintenance: instead of re-running a full calibration
// and cold decomposition whenever measurements trickle in, the advisor can
// open a streaming session — two rpca.StreamingSolvers (latency and
// bandwidth) seeded from the last full calibration — and feed re-measured
// pair columns into it. The divergence-EWMA regime detector then triggers
// a cheap warm partial re-solve over the updated matrices rather than a
// cold restart; only a spike past the hard threshold still forces a full
// re-calibration (which ends the streaming session, since its matrices no
// longer describe the installed guidance).

import (
	"context"
	"errors"
	"fmt"
	"math"

	"netconstant/internal/netmodel"
	"netconstant/internal/rpca"
)

// streamState is an open streaming session: one solver per performance
// direction, both seeded from the same calibration.
type streamState struct {
	lat, bw *rpca.StreamingSolver
	n       int // cluster size; columns are the n² pair indices
}

// ErrNotStreaming is returned by streaming entry points when no session is
// open.
var ErrNotStreaming = errors.New("core: no streaming session — call BeginStreaming after a calibration")

// BeginStreaming opens a streaming session from the last full calibration.
//
//netlint:allow cancelflow BeginStreaming is the documented no-cancellation compat shim over BeginStreamingCtx
func (a *Advisor) BeginStreaming() error { return a.BeginStreamingCtx(context.Background()) }

// BeginStreamingCtx is BeginStreaming with cancellation. The context is
// retained for the session: it bounds every subsequent column ingestion
// and partial re-solve, mirroring how long-lived pipelines thread one
// cancellation scope through their update loops.
func (a *Advisor) BeginStreamingCtx(ctx context.Context) error {
	if a.lastCal == nil {
		return errors.New("core: BeginStreaming before any calibration")
	}
	if a.lastCal.Mask != nil {
		return errors.New("core: streaming requires a completely observed calibration")
	}
	rows := a.lastCal.Latency.Steps()
	if rows == 0 {
		return errors.New("core: BeginStreaming with an empty calibration")
	}
	// Match the batch TP convention (DecomposeTPWith): λ = 1/√rows for the
	// fat TP-matrix, not the generic 1/√max-dim default.
	solve := rpca.Options{Lambda: 1 / math.Sqrt(float64(rows)), Ctx: ctx}
	opts := rpca.StreamOptions{Extract: a.cfg.Extract, Solve: solve, Ctx: ctx}
	lat, err := rpca.NewStreamingSolver(rows, opts)
	if err != nil {
		return err
	}
	bw, err := rpca.NewStreamingSolver(rows, opts)
	if err != nil {
		return err
	}
	if err := lat.Seed(a.lastCal.Latency.Matrix()); err != nil {
		return err
	}
	if err := bw.Seed(a.lastCal.Bandwidth.Matrix()); err != nil {
		return err
	}
	a.stream = &streamState{lat: lat, bw: bw, n: a.lastCal.Latency.N}
	return nil
}

// StreamingActive reports whether a streaming session is open.
func (a *Advisor) StreamingActive() bool { return a.stream != nil }

// EndStreaming closes the session (no-op when none is open). The installed
// guidance is left as the last partial re-solve produced it.
func (a *Advisor) EndStreaming() { a.stream = nil }

// StreamPair ingests a re-measured pair: the latency and bandwidth time
// series (length TimeStep) for the src→dst column of the TP-matrices. The
// fast tier refreshes that pair's constant estimate immediately; the
// authoritative constant updates at the next partial re-solve.
func (a *Advisor) StreamPair(src, dst int, lat, bw []float64) error {
	if a.stream == nil {
		return ErrNotStreaming
	}
	n := a.stream.n
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return fmt.Errorf("core: StreamPair (%d,%d) outside %d-VM cluster", src, dst, n)
	}
	return a.StreamColumn(src*n+dst, lat, bw)
}

// StreamColumn is StreamPair addressed by raw TP-matrix column index.
func (a *Advisor) StreamColumn(j int, lat, bw []float64) error {
	if a.stream == nil {
		return ErrNotStreaming
	}
	if err := a.stream.lat.ReplaceColumn(j, lat); err != nil {
		return err
	}
	return a.stream.bw.ReplaceColumn(j, bw)
}

// StreamingConstant assembles the current streaming constant estimate —
// authoritative values from the last resolve, fast-tier projections for
// columns replaced since — without forcing a re-solve. Nil when no session
// is open.
func (a *Advisor) StreamingConstant() *netmodel.PerfMatrix {
	if a.stream == nil {
		return nil
	}
	return PerfFromRows(a.stream.n, a.stream.lat.Constant(), a.stream.bw.Constant())
}

// PartialResolves returns how many regime-triggered (or explicit) warm
// partial re-solves the streaming session(s) have run.
func (a *Advisor) PartialResolves() int { return a.partialResolves }

// PartialResolve runs the warm authoritative re-solve over both streaming
// matrices and installs the refreshed constant component and NormE as the
// advisor's guidance — the cheap alternative to a full re-calibration.
func (a *Advisor) PartialResolve() error {
	if a.stream == nil {
		return ErrNotStreaming
	}
	if _, err := a.stream.lat.Resolve(); err != nil {
		return err
	}
	if _, err := a.stream.bw.Resolve(); err != nil {
		return err
	}
	a.constant = PerfFromRows(a.stream.n, a.stream.lat.Constant(), a.stream.bw.Constant())
	a.normE = a.stream.bw.RelNormE()
	a.partialResolves++
	// Refreshed guidance resets the divergence regime tracker, exactly as
	// a full analyze() does.
	a.divEWMA = 0
	a.regimeRun = 0
	return nil
}

// VerifyStreaming runs the differential oracle on both streaming solvers:
// a cold batch solve of the identical matrices, compared against the warm
// streaming state. Chaos oracles and the CI stream gate call this to pin
// the streaming path to the batch solver.
func (a *Advisor) VerifyStreaming() (lat, bw rpca.StreamAgreement, err error) {
	if a.stream == nil {
		return lat, bw, ErrNotStreaming
	}
	if lat, err = a.stream.lat.Verify(); err != nil {
		return lat, bw, err
	}
	bw, err = a.stream.bw.Verify()
	return lat, bw, err
}
