package core

import (
	"context"
	"math"
	"math/rand"

	"netconstant/internal/cloud"
	"netconstant/internal/mpi"
	"netconstant/internal/netmodel"
	"netconstant/internal/rpca"
	"netconstant/internal/topo"
)

// AdvisorConfig tunes the Advisor. Zero values select the paper's default
// experimental settings: time step 10, threshold 100%, L1 effectiveness
// norm, median extraction (rpca.ExtractMedian).
type AdvisorConfig struct {
	// TimeStep is the number of calibration rows in the TP-matrix.
	TimeStep int
	// Threshold is the maintenance threshold of Algorithm 1 as a fraction
	// (1.0 = the paper's 100% default): re-calibrate when
	// |t − t′| / t′ ≥ Threshold.
	Threshold float64
	// Gap is the idle time between successive calibration rows, seconds.
	Gap float64
	// Calibration configures the measurement procedure.
	Calibration cloud.CalibrationConfig
	// Extract selects the constant-row extraction method.
	Extract rpca.ExtractMethod
	// Heuristic selects the direct-use estimator for the Heuristics
	// strategy.
	Heuristic HeuristicKind
	// RegimeThreshold is the divergence EWMA level that counts an
	// observation toward a regime change — persistent sub-threshold drift
	// that ObserveCtx's spike check would never catch. Defaults to
	// Threshold/2.
	RegimeThreshold float64
	// RegimeWindow is how many consecutive over-RegimeThreshold
	// observations trigger an automatic re-calibration. Default 3.
	RegimeWindow int
}

func (c *AdvisorConfig) applyDefaults() {
	if c.TimeStep == 0 {
		c.TimeStep = 10
	}
	if c.Threshold == 0 {
		c.Threshold = 1.0
	}
	if c.RegimeThreshold == 0 {
		c.RegimeThreshold = c.Threshold / 2
	}
	if c.RegimeWindow == 0 {
		c.RegimeWindow = 3
	}
}

// Advisor binds the RPCA pipeline to a cluster and implements the
// calibrate → decompose → guide → monitor → re-calibrate loop of
// Algorithm 1.
type Advisor struct {
	cluster cloud.Cluster
	cfg     AdvisorConfig
	rng     *rand.Rand

	constant  *netmodel.PerfMatrix // P_D assembled from the two constant rows
	heuristic *netmodel.PerfMatrix // the Heuristics strategy's estimate
	normE     float64              // Norm(N_E) from the bandwidth TP-matrix
	health    CalibrationHealth    // measurement health of the last analysis

	calibrations  int
	totalCalCost  float64
	lastCal       *cloud.TemporalCalibration
	recalibraions int
	recalibrator  func(ctx context.Context) error // optional maintenance hook (SetRecalibrator)

	// Divergence regime tracking (ObserveCtx): EWMA of the relative
	// actual-vs-expected difference and the current run length of
	// observations whose EWMA sits above RegimeThreshold.
	divEWMA   float64
	regimeRun int

	// Streaming session state (see streaming.go): when non-nil, regime
	// changes are served by a partial re-solve over the streaming
	// matrices instead of a full re-calibration.
	stream          *streamState
	partialResolves int
}

// NewAdvisor creates an advisor; call CalibrateCtx before asking for
// guidance.
func NewAdvisor(c cloud.Cluster, rng *rand.Rand, cfg AdvisorConfig) *Advisor {
	cfg.applyDefaults()
	return &Advisor{cluster: c, cfg: cfg, rng: rng}
}

// CalibrateCtx measures the TP-matrix and runs the RPCA analysis
// (Algorithm 1 lines 1–2). It returns the error of the measurement or the
// RPCA solver, if any. The context threads through the measurement loop
// (cloud.CalibrateTPCtx) and into the solver iterations, so a cancelled
// context aborts with a *cancel.Error (matching cancel.ErrCanceled) and
// leaves the previous guidance in place — a half-measured calibration is
// never installed.
func (a *Advisor) CalibrateCtx(ctx context.Context) error {
	tc, err := cloud.CalibrateTPCtx(ctx, a.cluster, a.rng, a.cfg.TimeStep, a.cfg.Gap, a.cfg.Calibration)
	if err != nil {
		return err
	}
	a.lastCal = tc
	a.calibrations++
	a.totalCalCost += tc.TotalCost
	return a.analyze(ctx, tc)
}

// AnalyzeCalibrationCtx installs a pre-recorded temporal calibration
// (e.g. from a replayed trace) instead of measuring a fresh one, with
// cancellation threaded into the solver iteration loops.
func (a *Advisor) AnalyzeCalibrationCtx(ctx context.Context, tc *cloud.TemporalCalibration) error {
	a.lastCal = tc
	a.calibrations++
	a.totalCalCost += tc.TotalCost
	return a.analyze(ctx, tc)
}

func (a *Advisor) analyze(ctx context.Context, tc *cloud.TemporalCalibration) error {
	// The solver options carry only this call's context, and the solver
	// arena lives for this one analysis: both solves share it, and an
	// advisor between calibrations holds no scratch memory.
	opts := rpca.Options{Ctx: ctx}
	solver := rpca.NewSolver()
	var latD, bwD *Decomposition
	var err error
	if tc.Mask != nil {
		// Partially observed calibration: the masked solver reconstructs
		// the constant component through the gaps instead of treating
		// zero-filled holes as genuine (extreme) observations.
		latD, err = DecomposeTPMaskedWith(solver, tc.Latency, tc.Mask, opts, a.cfg.Extract)
		if err != nil {
			return err
		}
		bwD, err = DecomposeTPMaskedWith(solver, tc.Bandwidth, tc.Mask, opts, a.cfg.Extract)
		if err != nil {
			return err
		}
	} else {
		latD, err = DecomposeTPWith(solver, tc.Latency, opts, a.cfg.Extract)
		if err != nil {
			return err
		}
		bwD, err = DecomposeTPWith(solver, tc.Bandwidth, opts, a.cfg.Extract)
		if err != nil {
			return err
		}
	}
	n := tc.Latency.N
	a.constant = PerfFromRows(n, latD.ConstantRow, bwD.ConstantRow)
	a.normE = bwD.NormE
	a.health = AssessCalibration(tc, latD.Converged && bwD.Converged)
	a.heuristic = PerfFromRows(n,
		HeuristicRow(tc.Latency, a.cfg.Heuristic, false),
		HeuristicRow(tc.Bandwidth, a.cfg.Heuristic, true))
	// Fresh guidance resets the divergence regime tracker, and supersedes
	// any open streaming session: its matrices no longer describe the
	// installed guidance, so the caller must BeginStreamingCtx again.
	a.divEWMA = 0
	a.regimeRun = 0
	a.stream = nil
	return nil
}

// Constant returns the RPCA constant-component performance matrix (nil
// before the first calibration).
func (a *Advisor) Constant() *netmodel.PerfMatrix { return a.constant }

// HeuristicPerf returns the direct-use estimate for the Heuristics
// strategy.
func (a *Advisor) HeuristicPerf() *netmodel.PerfMatrix { return a.heuristic }

// NormE returns the relative error norm of the last analysis — the
// paper's effectiveness indicator.
func (a *Advisor) NormE() float64 { return a.normE }

// Effectiveness grades the last NormE.
func (a *Advisor) Effectiveness() Effectiveness { return GradeEffectiveness(a.normE) }

// Health reports the measurement health of the last calibration (the zero
// value, Confidence none, before the first one).
func (a *Advisor) Health() CalibrationHealth { return a.health }

// Confidence is shorthand for Health().Confidence.
func (a *Advisor) Confidence() Confidence { return a.health.Confidence }

// EffectiveStrategy maps the requested strategy through the confidence
// fallback ladder: RPCA degrades to Heuristics and then Baseline as the
// calibration health drops, so a damaged calibration can never steer the
// collective with a constant component it does not actually support.
func (a *Advisor) EffectiveStrategy(s Strategy) Strategy {
	return FallbackStrategy(s, a.health.Confidence)
}

// Calibrations returns how many full calibrations have run.
func (a *Advisor) Calibrations() int { return a.calibrations }

// Recalibrations returns how many were triggered by the monitor.
func (a *Advisor) Recalibrations() int { return a.recalibraions }

// CalibrationCost returns the cumulative cluster time spent calibrating.
func (a *Advisor) CalibrationCost() float64 { return a.totalCalCost }

// LastCalibration exposes the most recent temporal calibration.
func (a *Advisor) LastCalibration() *cloud.TemporalCalibration { return a.lastCal }

// GuidancePerf returns the performance matrix a strategy plans with (nil
// for strategies that do not use measurements).
func (a *Advisor) GuidancePerf(s Strategy) *netmodel.PerfMatrix {
	switch s {
	case RPCA:
		return a.constant
	case Heuristics:
		return a.heuristic
	default:
		return nil
	}
}

// PlanTree builds the communication tree a strategy would use for a
// collective rooted at root with the given message size. dc and hosts are
// only consulted by TopologyAware (and may be nil otherwise).
func (a *Advisor) PlanTree(s Strategy, root int, msgBytes float64, dc *topo.Topology, hosts []int) *mpi.Tree {
	n := a.cluster.Size()
	if a.lastCal != nil {
		s = a.EffectiveStrategy(s)
	}
	switch s {
	case RPCA, Heuristics:
		perf := a.GuidancePerf(s)
		if perf == nil {
			return mpi.BinomialTree(n, root)
		}
		return mpi.FNFTree(perf.Weights(msgBytes), root)
	case TopologyAware:
		if dc == nil || hosts == nil {
			return mpi.BinomialTree(n, root)
		}
		return mpi.TopologyAwareTree(dc, hosts, root)
	default:
		return mpi.BinomialTree(n, root)
	}
}

// ExpectedTime estimates the collective's duration under the constant
// component — the expected performance t′ of Algorithm 1 line 5, using
// the α-β model so it extends to any message size.
func (a *Advisor) ExpectedTime(t *mpi.Tree, op mpi.Collective, msgBytes float64) float64 {
	if a.constant == nil {
		return math.NaN()
	}
	return mpi.RunCollective(mpi.NewAnalyticNet(a.constant), t, op, msgBytes)
}

// ObserveCtx implements the maintenance check of Algorithm 1 lines 4–9:
// compare the measured performance t against the expected t′ and
// re-calibrate when the relative difference reaches the threshold. A
// second, slower trigger catches regime changes the spike check misses:
// an EWMA of the relative divergence that stays above RegimeThreshold for
// RegimeWindow consecutive observations — sustained drift rather than a
// one-off outlier — also triggers maintenance. It reports whether
// maintenance was triggered.
//
// With a streaming session open (BeginStreamingCtx), the regime trigger
// is served by a partial re-solve over the streaming matrices instead of
// a full re-calibration; a hard spike past Threshold still forces the
// full calibrate (which closes the session). The context cancels the full
// re-calibration's measurement loop and solver; a partial re-solve runs
// under the context its session was opened with.
func (a *Advisor) ObserveCtx(ctx context.Context, expected, actual float64) (bool, error) {
	if expected <= 0 || math.IsNaN(expected) {
		return false, nil
	}
	rel := math.Abs(actual-expected) / expected
	if rel >= a.cfg.Threshold {
		a.recalibraions++
		return true, a.recalibrate(ctx)
	}
	a.divEWMA = 0.3*rel + 0.7*a.divEWMA
	if a.divEWMA >= a.cfg.RegimeThreshold {
		a.regimeRun++
	} else {
		a.regimeRun = 0
	}
	if a.regimeRun >= a.cfg.RegimeWindow {
		if a.stream != nil {
			return true, a.PartialResolve()
		}
		a.recalibraions++
		return true, a.recalibrate(ctx)
	}
	return false, nil
}

// SetRecalibrator routes ObserveCtx-triggered full re-calibrations through f
// instead of the advisor's own CalibrateCtx. Long-lived hosts (the
// advisor daemon) install a hook that goes through their memoized,
// journaled calibration path, so maintenance the regime detector fires
// autonomously is cached and replayed exactly like a client-requested
// calibration. A nil f restores the direct path.
func (a *Advisor) SetRecalibrator(f func(ctx context.Context) error) { a.recalibrator = f }

// recalibrate runs a maintenance-triggered full calibration, through the
// installed hook when one is set.
func (a *Advisor) recalibrate(ctx context.Context) error {
	if a.recalibrator != nil {
		return a.recalibrator(ctx)
	}
	return a.CalibrateCtx(ctx)
}
