package exp

import (
	"fmt"
	"math/rand"
	"time"

	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/mapping"
	"netconstant/internal/mat"
	"netconstant/internal/mpi"
	"netconstant/internal/netmodel"
	"netconstant/internal/rpca"
	"netconstant/internal/stats"
)

// Fig4Result reports calibration overhead versus cluster size.
type Fig4Result struct {
	Table *Table
	// CostSeconds maps cluster size to estimated paired-calibration cost.
	CostSeconds map[int]float64
	// RPCASeconds is the measured wall-clock time of one RPCA analysis at
	// the largest size (paper: < 1 minute at 196 instances).
	RPCASeconds float64
}

// Fig4Calibration regenerates Figure 4: the overhead of calibrating one
// temporal performance matrix for different numbers of instances, plus the
// §V-B claim that one RPCA run costs well under a minute.
func Fig4Calibration(cfg Config, sizes []int) (*Fig4Result, error) {
	if len(sizes) == 0 {
		sizes = []int{16, 32, 64, 128, 196}
	}
	// EC2-medium-like reference link for the analytic curve (the paper's
	// pingpong bandwidth regime).
	typical := netmodel.Link{Alpha: 300e-6, Beta: 100e6}
	res := &Fig4Result{
		Table:       NewTable("Fig 4: calibration overhead vs #instances (time step = 10)", "instances", "est. cost (min)", "measured (min)"),
		CostSeconds: map[int]float64{},
	}
	// Each size is an independent sweep point: its own provisioned
	// cluster, no shared state. Fields are exported so completed points
	// gob-journal into the crash checkpoint.
	type fig4Point struct {
		Est      float64
		Measured string
	}
	pts := make([]fig4Point, len(sizes))
	if err := sweepPoints(cfg, "fig4", pts, func(i int, _ *rand.Rand) error {
		n := sizes[i]
		// The figure covers one whole TP-matrix: time-step (10) calibration
		// passes.
		pts[i].Est = float64(cfg.TimeStep) * cloud.EstimateCalibrationCost(n, typical, cloud.CalibrationConfig{})
		if n <= cfg.VMs*2 { // actually run the small sizes
			e, err := newEnv(cfg, n, int64(n))
			if err == nil {
				cal, err := cloud.CalibrateTPCtx(cfg.context(), e.cluster, e.rng, cfg.TimeStep, 0, cloud.CalibrationConfig{})
				if err != nil {
					return err
				}
				pts[i].Measured = f(cal.TotalCost / 60)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, n := range sizes {
		res.CostSeconds[n] = pts[i].Est
		res.Table.AddRow(fmt.Sprint(n), f(pts[i].Est/60), pts[i].Measured)
	}

	// Measure the RPCA analysis cost at the largest requested size. The
	// wall clock is injected (Config.Clock): this figure is *about* real
	// time, but reading time.Now here would break the byte-identical-output
	// invariant for everyone who doesn't opt in. Even an injected reading
	// stays out of the rows and notes, so two runs of one build render the
	// same table; it travels as the table's wall-clock reading.
	nMax := sizes[len(sizes)-1]
	rng := stats.NewRNG(cfg.Seed)
	a := mat.RandomNormal(rng, cfg.TimeStep, nMax*nMax, 50e6, 5e6)
	var start time.Time
	if cfg.Clock != nil {
		start = cfg.Clock()
	}
	if _, err := rpca.Decompose(a, rpca.Options{}); err != nil {
		return nil, err
	}
	if cfg.Clock != nil {
		res.RPCASeconds = cfg.Clock().Sub(start).Seconds()
		res.Table.AddNote("one RPCA analysis at %d instances ran to convergence (paper: < 1 min); its wall-clock time varies by run, so it is reported outside the table", nMax)
		res.Table.WallClock = []string{fmt.Sprintf("one RPCA analysis at %d instances took %.2f s wall clock", nMax, res.RPCASeconds)}
	} else {
		res.Table.AddNote("one RPCA analysis at %d instances ran to convergence (paper: < 1 min); wall-clock timing skipped (no Config.Clock injected)", nMax)
	}
	return res, nil
}

// Fig5Result reports the time-step accuracy sweep.
type Fig5Result struct {
	Table *Table
	// RelDiff maps time step to the relative difference of the predicted
	// long-term performance against the whole-trace oracle.
	RelDiff map[int]float64
}

// Fig5TimeStep regenerates Figure 5: the relative difference of long-term
// performance for different time steps; the paper selects the largest
// step within 10% (step = 10).
func Fig5TimeStep(cfg Config, steps []int) (*Fig5Result, error) {
	if len(steps) == 0 {
		steps = []int{2, 3, 5, 8, 10, 15, 20, 30}
	}
	maxStep := steps[0]
	for _, s := range steps {
		if s > maxStep {
			maxStep = s
		}
	}
	e, err := newEnv(cfg, cfg.VMs, 500)
	if err != nil {
		return nil, err
	}
	tc := cloud.SnapshotTP(e.cluster, maxStep, 30*60)
	rel, err := core.TimeStepAccuracy(tc.Bandwidth, steps, rpca.Options{}, rpca.ExtractMean)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{Table: NewTable("Fig 5: relative difference of long-term performance vs time step", "time step", "relative difference"), RelDiff: rel}
	for _, s := range steps {
		res.Table.AddRow(fmt.Sprint(s), pct(rel[s]))
	}
	res.Table.AddNote("paper selects the largest step within 10%%: step = 10")
	return res, nil
}

// Fig6Result reports the maintenance-threshold sweep.
type Fig6Result struct {
	Table *Table
	// AvgBcast and MaintenancePerRun are indexed by threshold.
	AvgBcast          map[float64]float64
	MaintenancePerRun map[float64]float64
	Recalibrations    map[float64]int
}

// Fig6Threshold regenerates Figure 6: broadcast performance and the
// breakdown of communication time versus update-maintenance overhead for
// different thresholds, over a multi-day run with one operation every 30
// minutes (the paper's week-long methodology).
func Fig6Threshold(cfg Config, thresholds []float64, days float64) (*Fig6Result, error) {
	if len(thresholds) == 0 {
		thresholds = []float64{0.1, 0.2, 0.5, 1.0, 1.5, 2.0}
	}
	if days <= 0 {
		days = 2
	}
	runs := int(days * 48) // one run every 30 minutes
	res := &Fig6Result{
		Table:             NewTable("Fig 6: maintenance threshold sweep (broadcast, 8 MB)", "threshold", "avg Bcast (s)", "maintenance/run (s)", "avg response (s)", "recalibrations"),
		AvgBcast:          map[float64]float64{},
		MaintenancePerRun: map[float64]float64{},
		Recalibrations:    map[float64]int{},
	}
	// Each threshold replays the same cluster dynamics (same seed offset)
	// under a different maintenance policy — fully independent points. The
	// identically-seeded initial calibrations are where the calibration
	// memo collapses the sweep's measurement cost to a single computation.
	type fig6Point struct {
		Avg, Maintenance float64
		Recals           int
	}
	pts := make([]fig6Point, len(thresholds))
	err := sweepPoints(cfg, "fig6", pts, func(i int, _ *rand.Rand) error {
		th := thresholds[i]
		e, err := newEnvAdv(cfg, cfg.VMs, 600, cloud.ProviderConfig{},
			core.AdvisorConfig{TimeStep: cfg.TimeStep, Threshold: th})
		if err != nil {
			return err
		}
		initialCost := e.advisor.CalibrationCost()
		var bcastSum float64
		root := 0
		for r := 0; r < runs; r++ {
			e.cluster.AdvanceTime(30 * 60)
			snap := e.cluster.SnapshotPerf()
			tree := e.advisor.PlanTree(core.RPCA, root, cfg.MsgBytes, nil, nil)
			expected := e.advisor.ExpectedTime(tree, mpi.Broadcast, cfg.MsgBytes)
			actual := mpi.RunCollective(mpi.NewAnalyticNet(snap), tree, mpi.Broadcast, cfg.MsgBytes)
			bcastSum += actual
			if _, err := e.advisor.ObserveCtx(cfg.context(), expected, actual); err != nil {
				return err
			}
		}
		pts[i] = fig6Point{
			Avg:         bcastSum / float64(runs),
			Maintenance: (e.advisor.CalibrationCost() - initialCost) / float64(runs),
			Recals:      e.advisor.Recalibrations(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, th := range thresholds {
		res.AvgBcast[th] = pts[i].Avg
		res.MaintenancePerRun[th] = pts[i].Maintenance
		res.Recalibrations[th] = pts[i].Recals
		res.Table.AddRow(pct(th), f(pts[i].Avg), f(pts[i].Maintenance), f(pts[i].Avg+pts[i].Maintenance), fmt.Sprint(pts[i].Recals))
	}
	res.Table.AddNote("%d runs over %.1f days, one broadcast every 30 min", runs, days)
	return res, nil
}

// Fig7Result reports the headline EC2-style comparison.
type Fig7Result struct {
	Table    *Table
	CDFTable *Table
	// Normalized maps strategy -> app -> mean elapsed normalized to
	// Baseline (lower is better).
	Normalized map[core.Strategy]map[string]float64
	NormE      float64
	// BcastTimes holds the raw broadcast samples per strategy for CDFs.
	BcastTimes map[core.Strategy][]float64
}

// Fig7Overall regenerates Figure 7: the average performance of broadcast,
// scatter and topology mapping under Baseline/Heuristics/RPCA, normalized
// to Baseline, plus the broadcast CDF. The paper reports RPCA beating
// Baseline by 32–40% and Heuristics by 8–10% with Norm(N_E) ≈ 0.1.
func Fig7Overall(cfg Config) (*Fig7Result, error) {
	e, err := newEnv(cfg, cfg.VMs, 700)
	if err != nil {
		return nil, err
	}
	apps := []string{"broadcast", "scatter", "mapping"}
	sums := map[core.Strategy]map[string]float64{}
	bcast := map[core.Strategy][]float64{}
	for _, s := range strategiesEC2 {
		sums[s] = map[string]float64{}
	}
	// Phase 1 (sequential): evolve the cluster and draw each repetition's
	// inputs in the original order, so every snapshot and rng draw is
	// unchanged. Phase 2 (parallel): evaluate the strategies against the
	// recorded inputs — pure given a snapshot. Aggregation in repetition
	// order keeps sums byte-identical to the sequential nested loop.
	type fig7Input struct {
		snap *netmodel.PerfMatrix
		root int
		task *mapping.Graph
	}
	inputs := make([]fig7Input, cfg.Runs)
	for r := 0; r < cfg.Runs; r++ {
		e.cluster.AdvanceTime(30 * 60)
		snap := e.cluster.SnapshotPerf()
		root := e.rng.Intn(cfg.VMs) // paper: root randomly chosen
		task := mapping.RandomTaskGraph(e.rng, cfg.VMs, 0.1, 5<<20, 10<<20)
		inputs[r] = fig7Input{snap: snap, root: root, task: task}
	}
	type fig7Eval struct{ B, Sc, M float64 }
	evals := make([][]fig7Eval, cfg.Runs)
	if err := sweepPoints(cfg, "fig7", evals, func(r int, _ *rand.Rand) error {
		in := inputs[r]
		ev := make([]fig7Eval, len(strategiesEC2))
		for si, s := range strategiesEC2 {
			ev[si] = fig7Eval{
				B:  e.collectiveElapsed(s, mpi.Broadcast, in.root, in.snap),
				Sc: e.collectiveElapsed(s, mpi.Scatter, in.root, in.snap),
				M:  e.mappingElapsed(s, in.task, in.snap),
			}
		}
		evals[r] = ev
		return nil
	}); err != nil {
		return nil, err
	}
	for r := 0; r < cfg.Runs; r++ {
		for si, s := range strategiesEC2 {
			sums[s]["broadcast"] += evals[r][si].B
			bcast[s] = append(bcast[s], evals[r][si].B)
			sums[s]["scatter"] += evals[r][si].Sc
			sums[s]["mapping"] += evals[r][si].M
		}
	}
	res := &Fig7Result{
		Table:      NewTable("Fig 7a: mean elapsed normalized to Baseline (196-instance analogue)", "strategy", "broadcast", "scatter", "mapping"),
		Normalized: map[core.Strategy]map[string]float64{},
		NormE:      e.advisor.NormE(),
		BcastTimes: bcast,
	}
	for _, s := range strategiesEC2 {
		res.Normalized[s] = map[string]float64{}
		row := []string{s.String()}
		for _, app := range apps {
			norm := sums[s][app] / sums[core.Baseline][app]
			res.Normalized[s][app] = norm
			row = append(row, f(norm))
		}
		res.Table.AddRow(row...)
	}
	res.Table.AddNote("Norm(N_E) = %.3f (paper: ~0.1 on EC2)", res.NormE)

	res.CDFTable = NewTable("Fig 7b: broadcast elapsed-time CDF (seconds)", "percentile", "Baseline", "Heuristics", "RPCA")
	cdfs := map[core.Strategy]*stats.CDF{}
	for _, s := range strategiesEC2 {
		cdfs[s] = stats.NewCDF(bcast[s])
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
		res.CDFTable.AddRow(pct(q), f(cdfs[core.Baseline].Quantile(q)), f(cdfs[core.Heuristics].Quantile(q)), f(cdfs[core.RPCA].Quantile(q)))
	}
	return res, nil
}

// Fig8Result reports improvement versus cluster size and message size.
type Fig8Result struct {
	Table *Table
	// Improvement maps cluster size -> app -> fractional improvement of
	// RPCA over Baseline.
	Improvement map[int]map[string]float64
}

// Fig8ClusterSize regenerates Figure 8: the RPCA-over-Baseline improvement
// for different numbers of instances; the paper finds larger clusters
// (spread over more racks) gain more.
func Fig8ClusterSize(cfg Config) (*Fig8Result, error) {
	res := &Fig8Result{
		Table:       NewTable("Fig 8: RPCA improvement over Baseline vs cluster size", "instances", "broadcast", "scatter", "mapping", "rack spread"),
		Improvement: map[int]map[string]float64{},
	}
	// Each cluster size is an independent world — its own provider,
	// cluster and advisor — so the sizes run as parallel sweep points.
	sizes := []int{cfg.SmallVMs, cfg.VMs}
	// Journaled per point (journalsafe): named fields, not a map, so the
	// gob bytes of a point are reproducible run to run.
	type fig8Point struct {
		Broadcast, Scatter, Mapping float64
		Spread                      int
	}
	pts := make([]fig8Point, len(sizes))
	err := sweepPoints(cfg, "fig8", pts, func(i int, _ *rand.Rand) error {
		n := sizes[i]
		sub := cfg
		sub.VMs = n
		e, err := newEnv(sub, n, 800+int64(n))
		if err != nil {
			return err
		}
		sums := map[core.Strategy]map[string]float64{
			core.Baseline: {}, core.RPCA: {},
		}
		for r := 0; r < cfg.Runs; r++ {
			e.cluster.AdvanceTime(30 * 60)
			snap := e.cluster.SnapshotPerf()
			root := e.rng.Intn(n)
			task := mapping.RandomTaskGraph(e.rng, n, 0.1, 5<<20, 10<<20)
			for s := range sums {
				sums[s]["broadcast"] += e.collectiveElapsed(s, mpi.Broadcast, root, snap)
				sums[s]["scatter"] += e.collectiveElapsed(s, mpi.Scatter, root, snap)
				sums[s]["mapping"] += e.mappingElapsed(s, task, snap)
			}
		}
		imp := func(app string) float64 {
			return stats.RelImprovement(sums[core.Baseline][app], sums[core.RPCA][app])
		}
		pts[i] = fig8Point{
			Broadcast: imp("broadcast"),
			Scatter:   imp("scatter"),
			Mapping:   imp("mapping"),
			Spread:    e.cluster.RackSpread(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range sizes {
		res.Improvement[n] = map[string]float64{
			"broadcast": pts[i].Broadcast, "scatter": pts[i].Scatter, "mapping": pts[i].Mapping,
		}
		res.Table.AddRow(fmt.Sprint(n), pct(pts[i].Broadcast), pct(pts[i].Scatter), pct(pts[i].Mapping), fmt.Sprint(pts[i].Spread))
	}
	return res, nil
}
