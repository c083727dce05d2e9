package exp

import (
	"errors"
	"math/rand"

	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/mapping"
	"netconstant/internal/mpi"
	"netconstant/internal/netmodel"
	"netconstant/internal/rpca"
	"netconstant/internal/stats"
)

// traceTP builds the two TP-matrices from the first `steps` snapshots of a
// trace.
func traceTP(tr *cloud.Trace, steps int) (*cloud.TemporalCalibration, error) {
	if steps > tr.Len() {
		return nil, errors.New("exp: trace shorter than requested time step")
	}
	tc := &cloud.TemporalCalibration{
		Latency:   netmodel.NewTPMatrix(tr.N),
		Bandwidth: netmodel.NewTPMatrix(tr.N),
	}
	for s := 0; s < steps; s++ {
		tc.Latency.Append(tr.Times[s], tr.Perfs[s].Latency)
		tc.Bandwidth.Append(tr.Times[s], tr.Perfs[s].Bandwth)
	}
	return tc, nil
}

// traceNormE measures Norm(N_E) of a trace's bandwidth TP-matrix via RPCA.
func traceNormE(tr *cloud.Trace, steps int) (float64, error) {
	tc, err := traceTP(tr, steps)
	if err != nil {
		return 0, err
	}
	d, err := core.DecomposeTP(tc.Bandwidth, rpca.Options{}, rpca.ExtractMean)
	if err != nil {
		return 0, err
	}
	return d.NormE, nil
}

// TargetNormE implements the paper's §V-D3 procedure: perturb a copy of
// the trace with repeated ±1% per-measurement changes plus correlated
// interference bursts, escalating the intensity until the RPCA-measured
// Norm(N_E) reaches the predefined target. It returns the noisy trace and
// the achieved value.
func TargetNormE(tr *cloud.Trace, steps int, target float64, rng *rand.Rand) (*cloud.Trace, float64, error) {
	best := tr.Clone()
	cur, err := traceNormE(best, steps)
	if err != nil {
		return nil, 0, err
	}
	for intensity := 1; intensity <= 4096 && cur < target; intensity = intensity*2 + 1 {
		candidate := tr.Clone()
		noiseRNG := stats.Split(rng, int64(intensity))
		// The dominant mechanism is independent per-measurement noise
		// (repeated ±1% changes around the constant): it swamps the
		// calibration, so every estimator's plan degrades toward a blind
		// one — the paper's "the network is so dynamic that network
		// performance aware optimizations have little impact" — without
		// creating a persistent trend a stale plan could keep riding. (A
		// cumulative random walk is a martingale: past ordering keeps
		// predicting the future and improvement never decays. That is an
		// argument; no figure runs such a walk.)
		denseSteps := intensity * 2 / 3
		if denseSteps < 1 {
			denseSteps = 1
		}
		candidate.InjectNoise(noiseRNG, denseSteps, capF(0.02+0.005*float64(intensity), 0.1), 3)
		// Secondary mechanism: correlated congestion bursts inside the
		// calibration window, which pull a direct per-link average much
		// further than the robust constant estimate (the RPCA-vs-
		// Heuristics gap of Fig 10b widens with Norm(N_E)).
		burstSpan := 2 * steps / 5
		if burstSpan < 1 {
			burstSpan = 1
		}
		burstP := capF(0.08+0.04*float64(intensity), 0.45)
		candidate.InjectBursts(noiseRNG, burstP, 0, steps-burstSpan/2, burstSpan, capF(2*float64(intensity), 10))
		cur, err = traceNormE(candidate, steps)
		if err != nil {
			return nil, 0, err
		}
		best = candidate
	}
	return best, cur, nil
}

// replayStudy replays a trace: the advisor analyzes the first `steps`
// snapshots, then every later snapshot hosts one run of each strategy.
// It returns raw elapsed samples per strategy and app.
type replayStudy struct {
	NormE  float64
	Elapsd map[core.Strategy]map[string][]float64
}

func runReplay(cfg Config, tr *cloud.Trace, rng *rand.Rand) (*replayStudy, error) {
	rc := cloud.NewReplay(tr)
	adv := core.NewAdvisor(rc, rng, core.AdvisorConfig{TimeStep: cfg.TimeStep})
	tc, err := traceTP(tr, cfg.TimeStep)
	if err != nil {
		return nil, err
	}
	if err := adv.AnalyzeCalibrationCtx(cfg.context(), tc); err != nil {
		return nil, err
	}
	st := &replayStudy{NormE: adv.NormE(), Elapsd: map[core.Strategy]map[string][]float64{}}
	for _, s := range strategiesEC2 {
		st.Elapsd[s] = map[string][]float64{}
	}
	n := tr.N
	for k := cfg.TimeStep; k < tr.Len(); k++ {
		snap := tr.Perfs[k]
		root := rng.Intn(n)
		task := mapping.RandomTaskGraph(rng, n, 0.1, 5<<20, 10<<20)
		for _, s := range strategiesEC2 {
			tree := adv.PlanTree(s, root, cfg.MsgBytes, nil, nil)
			b := mpi.RunCollective(mpi.NewAnalyticNet(snap), tree, mpi.Broadcast, cfg.MsgBytes)
			sc := mpi.RunCollective(mpi.NewAnalyticNet(snap), tree, mpi.Scatter, cfg.MsgBytes)
			st.Elapsd[s]["broadcast"] = append(st.Elapsd[s]["broadcast"], b)
			st.Elapsd[s]["scatter"] = append(st.Elapsd[s]["scatter"], sc)

			var assign []int
			if guide := adv.GuidancePerf(s); guide != nil {
				assign = mapping.GreedyMap(task, mapping.MachineGraphFromPerf(guide))
			} else {
				assign = mapping.RingMapping(n)
			}
			mel, _ := mapping.Cost(task, assign, snap)
			st.Elapsd[s]["mapping"] = append(st.Elapsd[s]["mapping"], mel)
		}
	}
	return st, nil
}

// Fig10Result reports the Norm(N_E) impact sweep.
type Fig10Result struct {
	TableA *Table // RPCA improvement over Baseline per app vs Norm(N_E)
	TableB *Table // RPCA improvement over Heuristics (broadcast) vs Norm(N_E)
	// ImprovementOverBaseline maps achieved NormE -> app -> improvement.
	ImprovementOverBaseline map[float64]map[string]float64
	// ImprovementOverHeuristics maps achieved NormE -> broadcast improvement.
	ImprovementOverHeuristics map[float64]float64
}

// Fig10ErrorImpact regenerates Figure 10: noise is injected into a
// recorded trace until Norm(N_E) reaches each target, and the expected
// improvement of RPCA over Baseline (10a) and over Heuristics (10b) is
// computed by trace replay. The paper: >40% improvement below 0.1, <20%
// above 0.2, and RPCA ~20% ahead of Heuristics at 0.2.
func Fig10ErrorImpact(cfg Config, targets []float64) (*Fig10Result, error) {
	if len(targets) == 0 {
		targets = []float64{0.05, 0.1, 0.2, 0.3, 0.4}
	}
	e, err := newEnvWith(cfg, cfg.VMs, 1000, noiseProvider())
	if err != nil {
		return nil, err
	}
	// Record a trace long enough for calibration + replay runs. The sweep
	// needs many samples to average out burst placement, so it uses at
	// least 40 replay snapshots regardless of cfg.Runs.
	replayRuns := cfg.Runs
	if replayRuns < 40 {
		replayRuns = 40
	}
	snapshots := cfg.TimeStep + replayRuns
	tr := cloud.Record(e.cluster, float64(snapshots-1)*30*60, 30*60)

	res := &Fig10Result{
		TableA:                    NewTable("Fig 10a: expected improvement of RPCA over Baseline vs Norm(N_E)", "Norm(N_E)", "broadcast", "scatter", "mapping"),
		TableB:                    NewTable("Fig 10b: RPCA improvement over Heuristics (broadcast) vs Norm(N_E)", "Norm(N_E)", "improvement"),
		ImprovementOverBaseline:   map[float64]map[string]float64{},
		ImprovementOverHeuristics: map[float64]float64{},
	}
	// Each target is averaged over several independently noised traces so
	// that burst placement does not dominate (the paper repeats each
	// experiment >100 times).
	//
	// Only the stats.Split calls consume e.rng (the noising and the replay
	// read the split-off streams exclusively), so the splits are pre-derived
	// sequentially in the exact order the nested loops made them and the
	// heavy (target, seed) points fan out over the worker pool.
	// The rng-bearing inputs live apart from the serializable outputs so
	// completed points can gob-journal into the crash checkpoint (a
	// *rand.Rand does not round-trip; a replayStudy does).
	const noiseSeeds = 3
	type fig10Input struct {
		noiseRNG, replayRNG *rand.Rand
	}
	type fig10Point struct {
		Achieved float64
		St       *replayStudy
	}
	inputs := make([]fig10Input, len(targets)*noiseSeeds)
	for ti, target := range targets {
		for seed := 0; seed < noiseSeeds; seed++ {
			in := &inputs[ti*noiseSeeds+seed]
			in.noiseRNG = stats.Split(e.rng, int64(target*1000)+int64(seed))
			in.replayRNG = stats.Split(e.rng, 7+int64(target*1000)+int64(seed))
		}
	}
	points := make([]fig10Point, len(inputs))
	//netlint:allow journalsafe replayStudy.Elapsd is a map, so fig10 journal bytes are not reproducible; decode is still correct and replay is slot-addressed by provenance key — flattening the study is deferred
	if err := sweepPoints(cfg, "fig10", points, func(i int, _ *rand.Rand) error {
		in := inputs[i]
		target := targets[i/noiseSeeds]
		noisy, achieved, err := TargetNormE(tr, cfg.TimeStep, target, in.noiseRNG)
		if err != nil {
			return err
		}
		points[i].Achieved = achieved
		points[i].St, err = runReplay(cfg, noisy, in.replayRNG)
		return err
	}); err != nil {
		return nil, err
	}
	for ti := range targets {
		agg := map[core.Strategy]map[string][]float64{}
		for _, s := range strategiesEC2 {
			agg[s] = map[string][]float64{}
		}
		var achievedSum float64
		for seed := 0; seed < noiseSeeds; seed++ {
			p := &points[ti*noiseSeeds+seed]
			achievedSum += p.Achieved
			for _, s := range strategiesEC2 {
				for app, xs := range p.St.Elapsd[s] {
					agg[s][app] = append(agg[s][app], xs...)
				}
			}
		}
		achieved := achievedSum / noiseSeeds
		// Trimmed means: heavy drift produces lognormal-tailed samples that
		// would otherwise let a handful of catastrophic draws dominate.
		imp := map[string]float64{}
		for _, app := range []string{"broadcast", "scatter", "mapping"} {
			imp[app] = stats.RelImprovement(
				stats.TrimmedMean(agg[core.Baseline][app], 0.1),
				stats.TrimmedMean(agg[core.RPCA][app], 0.1))
		}
		overH := stats.RelImprovement(
			stats.TrimmedMean(agg[core.Heuristics]["broadcast"], 0.1),
			stats.TrimmedMean(agg[core.RPCA]["broadcast"], 0.1))
		res.ImprovementOverBaseline[achieved] = imp
		res.ImprovementOverHeuristics[achieved] = overH
		res.TableA.AddRow(f(achieved), pct(imp["broadcast"]), pct(imp["scatter"]), pct(imp["mapping"]))
		res.TableB.AddRow(f(achieved), pct(overH))
	}
	return res, nil
}

// Fig11Result reports the detailed Norm(N_E)=0.2 study.
type Fig11Result struct {
	Table      *Table
	CDFTable   *Table
	NormE      float64
	Normalized map[core.Strategy]map[string]float64
}

// Fig11Detailed regenerates Figure 11: the full strategy comparison on a
// trace noised to Norm(N_E)=0.2, where the paper reports RPCA beating
// Baseline by 20–28% and Heuristics by 12–20%.
func Fig11Detailed(cfg Config) (*Fig11Result, error) {
	e, err := newEnvWith(cfg, cfg.VMs, 1100, noiseProvider())
	if err != nil {
		return nil, err
	}
	replayRuns := cfg.Runs
	if replayRuns < 40 {
		replayRuns = 40
	}
	snapshots := cfg.TimeStep + replayRuns
	tr := cloud.Record(e.cluster, float64(snapshots-1)*30*60, 30*60)
	st := &replayStudy{Elapsd: map[core.Strategy]map[string][]float64{}}
	for _, s := range strategiesEC2 {
		st.Elapsd[s] = map[string][]float64{}
	}
	// As in Fig 10, the Split calls are pre-derived in the original order
	// and the heavy per-seed noising + replay runs in parallel.
	var achieved float64
	const noiseSeeds = 3
	type fig11Input struct {
		noiseRNG, replayRNG *rand.Rand
	}
	type fig11Point struct {
		Achieved float64
		St       *replayStudy
	}
	inputs := make([]fig11Input, noiseSeeds)
	for seed := int64(0); seed < noiseSeeds; seed++ {
		inputs[seed].noiseRNG = stats.Split(e.rng, 11+seed)
		inputs[seed].replayRNG = stats.Split(e.rng, 100+seed)
	}
	points := make([]fig11Point, noiseSeeds)
	//netlint:allow journalsafe replayStudy.Elapsd is a map, so fig11 journal bytes are not reproducible; decode is still correct and replay is slot-addressed by provenance key — flattening the study is deferred
	if err := sweepPoints(cfg, "fig11", points, func(i int, _ *rand.Rand) error {
		in := inputs[i]
		noisy, a, err := TargetNormE(tr, cfg.TimeStep, 0.2, in.noiseRNG)
		if err != nil {
			return err
		}
		points[i].Achieved = a
		points[i].St, err = runReplay(cfg, noisy, in.replayRNG)
		return err
	}); err != nil {
		return nil, err
	}
	for seed := 0; seed < noiseSeeds; seed++ {
		achieved += points[seed].Achieved / noiseSeeds
		for _, s := range strategiesEC2 {
			for app, xs := range points[seed].St.Elapsd[s] {
				st.Elapsd[s][app] = append(st.Elapsd[s][app], xs...)
			}
		}
	}
	res := &Fig11Result{
		Table:      NewTable("Fig 11a: mean elapsed normalized to Baseline at Norm(N_E)=0.2", "strategy", "broadcast", "scatter", "mapping"),
		NormE:      achieved,
		Normalized: map[core.Strategy]map[string]float64{},
	}
	for _, s := range strategiesEC2 {
		res.Normalized[s] = map[string]float64{}
		row := []string{s.String()}
		for _, app := range []string{"broadcast", "scatter", "mapping"} {
			norm := meanOf(st.Elapsd[s][app]) / meanOf(st.Elapsd[core.Baseline][app])
			res.Normalized[s][app] = norm
			row = append(row, f(norm))
		}
		res.Table.AddRow(row...)
	}
	res.Table.AddNote("achieved Norm(N_E) = %.3f", achieved)

	res.CDFTable = NewTable("Fig 11b: broadcast elapsed-time CDF at Norm(N_E)=0.2 (seconds)", "percentile", "Baseline", "Heuristics", "RPCA")
	cdfs := map[core.Strategy]*stats.CDF{}
	for _, s := range strategiesEC2 {
		cdfs[s] = stats.NewCDF(st.Elapsd[s]["broadcast"])
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
		res.CDFTable.AddRow(pct(q), f(cdfs[core.Baseline].Quantile(q)), f(cdfs[core.Heuristics].Quantile(q)), f(cdfs[core.RPCA].Quantile(q)))
	}
	return res, nil
}

// noiseProvider narrows the provider's constant heterogeneity to the
// band-like spread of homogeneous cloud instances (a few ×, not 10×), so
// that heavy injected drift can genuinely reorder link performance — the
// regime the paper's Fig 10/11 noise study explores.
func noiseProvider() cloud.ProviderConfig {
	return cloud.ProviderConfig{
		VirtFactorMin: 0.55,
		VirtFactorMax: 0.95,
		CrossRackMin:  0.45,
		CrossRackMax:  0.85,
	}
}

func capF(v, max float64) float64 {
	if v > max {
		return max
	}
	return v
}
