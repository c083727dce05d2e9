package core

// Streaming guidance maintenance is Algorithm 1's partial recalibration:
// instead of re-running a full calibration whenever measurements trickle
// in, the advisor opens a streaming session — copies of the last full
// calibration's latency and bandwidth TP-matrices — and edits re-measured
// pair columns into it. The divergence-EWMA regime detector then triggers
// a partial re-solve, the batch analysis's own decomposition of the edited
// matrices, rather than a fresh calibration; only a spike past the hard
// threshold still forces a full re-calibration (which ends the streaming
// session, since its matrices no longer describe the installed guidance).

import (
	"context"
	"errors"
	"fmt"
	"math"

	"netconstant/internal/cancel"
	"netconstant/internal/mat"
	"netconstant/internal/rpca"
)

// streamState is an open streaming session: the calibration's two
// steps×n² data matrices, edited in place by StreamPair.
type streamState struct {
	lat, bw *mat.Dense
	n       int             // cluster size; columns are the n² pair indices
	ctx     context.Context // bounds every partial re-solve of the session
}

// ErrNotStreaming is returned by streaming entry points when no session is
// open, and wrapped by BeginStreamingCtx when it cannot open one.
var ErrNotStreaming = errors.New("core: no streaming session; BeginStreamingCtx (stream/begin) opens one after a calibration")

// errCannotStream says why BeginStreamingCtx cannot open a session. It
// matches ErrNotStreaming: the caller is left without a session.
type errCannotStream string

func (e errCannotStream) Error() string { return "core: BeginStreamingCtx (stream/begin) " + string(e) }
func (e errCannotStream) Unwrap() error { return ErrNotStreaming }

// BeginStreamingCtx opens a streaming session on copies of the last full
// calibration's TP-matrices. It solves nothing: until a pair is streamed,
// a partial re-solve installs exactly what the calibration's analysis
// did. The context is retained for the session and bounds every partial
// re-solve; a done context opens no session.
func (a *Advisor) BeginStreamingCtx(ctx context.Context) error {
	if a.lastCal == nil {
		return errCannotStream("before any calibration")
	}
	if a.lastCal.Mask != nil {
		return errCannotStream("needs a completely observed calibration")
	}
	if a.lastCal.Latency.Steps() == 0 {
		return errCannotStream("with an empty calibration")
	}
	if err := cancel.Check(ctx, "core.BeginStreaming", 0, 0); err != nil {
		return err
	}
	a.stream = &streamState{
		lat: a.lastCal.Latency.Matrix(),
		bw:  a.lastCal.Bandwidth.Matrix(),
		n:   a.lastCal.Latency.N,
		ctx: ctx,
	}
	return nil
}

// StreamingActive reports whether a streaming session is open.
func (a *Advisor) StreamingActive() bool { return a.stream != nil }

// StreamPair ingests a re-measured pair: the latency and bandwidth time
// series (one sample per calibration row) replace the src→dst column
// (src·n + dst) of the session's matrices. Both series are checked before
// either is written, so a rejected pair leaves the session as it was; a
// NaN or ±Inf sample is rejected with an error matching
// rpca.ErrNonFinite. The installed guidance changes at the next partial
// re-solve.
func (a *Advisor) StreamPair(src, dst int, lat, bw []float64) error {
	if a.stream == nil {
		return ErrNotStreaming
	}
	n := a.stream.n
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return fmt.Errorf("core: StreamPair (%d,%d) outside %d-VM cluster", src, dst, n)
	}
	j := src*n + dst
	rows := a.stream.lat.Rows()
	for _, s := range []struct {
		name   string
		series []float64
	}{{"latency", lat}, {"bandwidth", bw}} {
		if len(s.series) != rows {
			return fmt.Errorf("core: StreamPair (%d,%d) %s series has %d samples, want %d", src, dst, s.name, len(s.series), rows)
		}
		for i, v := range s.series {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: StreamPair (%d,%d) %s: %w", src, dst, s.name, &rpca.NonFiniteError{Row: i, Col: j, Value: v})
			}
		}
	}
	for i := 0; i < rows; i++ {
		a.stream.lat.Set(i, j, lat[i])
		a.stream.bw.Set(i, j, bw[i])
	}
	return nil
}

// PartialResolves returns how many regime-triggered (or explicit)
// partial re-solves the streaming session(s) have run.
func (a *Advisor) PartialResolves() int { return a.partialResolves }

// PartialResolve decomposes both session matrices as a batch analysis
// decomposes a calibration and installs the refreshed constant component
// and Norm(N_E) as the advisor's guidance — the alternative to a full
// re-calibration, which would probe the cluster again. A re-solve of an
// unedited session installs exactly what the calibration's analysis did.
func (a *Advisor) PartialResolve() error {
	if a.stream == nil {
		return ErrNotStreaming
	}
	opts := rpca.Options{Ctx: a.stream.ctx}
	solver := rpca.NewSolver()
	latD, err := decomposeTP(solver, a.stream.lat, opts, a.cfg.Extract)
	if err != nil {
		return err
	}
	bwD, err := decomposeTP(solver, a.stream.bw, opts, a.cfg.Extract)
	if err != nil {
		return err
	}
	a.constant = PerfFromRows(a.stream.n, latD.ConstantRow, bwD.ConstantRow)
	a.normE = bwD.NormE
	a.partialResolves++
	// Refreshed guidance resets the divergence regime tracker, exactly as
	// a full analyze() does.
	a.divEWMA = 0
	a.regimeRun = 0
	return nil
}
