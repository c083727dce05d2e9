package core

// Streaming guidance maintenance: instead of re-running a full calibration
// and cold decomposition whenever measurements trickle in, the advisor can
// open a streaming session — two rpca.StreamingSolvers (latency and
// bandwidth) seeded from the last full calibration — and feed re-measured
// pair columns into it. The divergence-EWMA regime detector then triggers
// a partial re-solve over the updated matrices rather than a fresh
// calibration; only a spike past the hard threshold still forces a full
// re-calibration (which ends the streaming session, since its matrices no
// longer describe the installed guidance).

import (
	"context"
	"errors"
	"fmt"
	"math"

	"netconstant/internal/rpca"
)

// streamState is an open streaming session: one solver per performance
// direction, both seeded from the same calibration.
type streamState struct {
	lat, bw *rpca.StreamingSolver
	n       int // cluster size; columns are the n² pair indices
}

// ErrNotStreaming is returned by streaming entry points when no session is
// open, and wrapped by BeginStreamingCtx when it cannot open one.
var ErrNotStreaming = errors.New("core: no streaming session; BeginStreamingCtx (stream/begin) opens one after a calibration")

// errCannotStream says why BeginStreamingCtx cannot open a session. It
// matches ErrNotStreaming: the caller is left without a session.
type errCannotStream string

func (e errCannotStream) Error() string { return "core: BeginStreamingCtx (stream/begin) " + string(e) }
func (e errCannotStream) Unwrap() error { return ErrNotStreaming }

// BeginStreamingCtx opens a streaming session from the last full
// calibration. The context is retained for the session: it bounds the
// seeding resolves and every subsequent partial re-solve, mirroring how
// long-lived pipelines thread one cancellation scope through their update
// loops.
func (a *Advisor) BeginStreamingCtx(ctx context.Context) error {
	if a.lastCal == nil {
		return errCannotStream("before any calibration")
	}
	if a.lastCal.Mask != nil {
		return errCannotStream("needs a completely observed calibration")
	}
	rows := a.lastCal.Latency.Steps()
	if rows == 0 {
		return errCannotStream("with an empty calibration")
	}
	// Match the batch TP convention (DecomposeTPWith): λ = 1/√rows for the
	// fat TP-matrix, not the generic 1/√max-dim default.
	solve := rpca.Options{Lambda: 1 / math.Sqrt(float64(rows)), Ctx: ctx}
	opts := rpca.StreamOptions{Extract: a.cfg.Extract, Solve: solve}
	lat, err := rpca.NewStreamingSolver(a.lastCal.Latency.Matrix(), opts)
	if err != nil {
		return err
	}
	bw, err := rpca.NewStreamingSolver(a.lastCal.Bandwidth.Matrix(), opts)
	if err != nil {
		return err
	}
	a.stream = &streamState{lat: lat, bw: bw, n: a.lastCal.Latency.N}
	return nil
}

// StreamingActive reports whether a streaming session is open.
func (a *Advisor) StreamingActive() bool { return a.stream != nil }

// StreamPair ingests a re-measured pair: the latency and bandwidth time
// series (length TimeStep) replace the src→dst column (src·n + dst) of
// the session's TP-matrices. Both series are checked before either is
// written, so a rejected pair leaves the session as it was. The installed
// guidance changes at the next partial re-solve.
func (a *Advisor) StreamPair(src, dst int, lat, bw []float64) error {
	if a.stream == nil {
		return ErrNotStreaming
	}
	n := a.stream.n
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return fmt.Errorf("core: StreamPair (%d,%d) outside %d-VM cluster", src, dst, n)
	}
	j := src*n + dst
	// ReplaceColumn checks its column before writing it, so checking bw
	// first means a rejected pair writes neither column.
	if err := a.stream.bw.CheckColumn(j, bw); err != nil {
		return err
	}
	if err := a.stream.lat.ReplaceColumn(j, lat); err != nil {
		return err
	}
	return a.stream.bw.ReplaceColumn(j, bw)
}

// PartialResolves returns how many regime-triggered (or explicit)
// partial re-solves the streaming session(s) have run.
func (a *Advisor) PartialResolves() int { return a.partialResolves }

// PartialResolve re-solves both streaming matrices and installs the
// refreshed constant component and NormE as the advisor's guidance — the
// alternative to a full re-calibration, which would probe the cluster
// again. NormE is computed as a batch analysis computes it, so a resolve
// of an unedited calibration installs exactly what the analysis did.
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
	bwRow := a.stream.bw.Constant()
	a.constant = PerfFromRows(a.stream.n, a.stream.lat.Constant(), bwRow)
	a.normE = normE(a.stream.bw.Matrix(), bwRow)
	a.partialResolves++
	// Refreshed guidance resets the divergence regime tracker, exactly as
	// a full analyze() does.
	a.divEWMA = 0
	a.regimeRun = 0
	return nil
}

// VerifyStreaming runs the differential oracle on both streaming solvers:
// a fresh batch solve of the identical matrices, compared against the
// streaming state. The chaos stream oracle and the ext-stream figure call
// this to pin the streaming path to the batch solver.
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
