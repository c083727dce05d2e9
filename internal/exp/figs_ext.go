package exp

import (
	"fmt"
	"math/rand"

	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/cost"
	"netconstant/internal/mpi"
	"netconstant/internal/netcoord"
	"netconstant/internal/netmodel"
	"netconstant/internal/stats"
	"netconstant/internal/workflow"
)

// The Ext* experiments go beyond the paper's evaluation: the economic
// impact of the approach (its stated future work), the extended collective
// algorithms of MPICH as alternative schedules, and a quantitative version
// of the paper's argument against network coordinate systems.

// ExtEconomicsResult prices the Fig 7 broadcast workload.
type ExtEconomicsResult struct {
	Table *Table
	// BreakEvenRuns under per-second billing.
	BreakEvenRuns float64
	// NetSavings after cfg.Runs executions, dollars, per-second billing.
	NetSavings float64
}

// ExtEconomics evaluates the paper's future-work question: does the
// RPCA-guided optimization pay for its calibration in dollars? It prices
// the measured baseline and RPCA broadcast times under 2013 EC2 m1.medium
// pricing with per-second and hourly billing.
func ExtEconomics(cfg Config) (*ExtEconomicsResult, error) {
	e, err := newEnv(cfg, cfg.VMs, 2000)
	if err != nil {
		return nil, err
	}
	// Two phases: the cluster evolution and rng draws stay sequential, the
	// pure replay evaluation fans out.
	type econInput struct {
		snap *netmodel.PerfMatrix
		root int
	}
	inputs := make([]econInput, cfg.Runs)
	for r := 0; r < cfg.Runs; r++ {
		e.cluster.AdvanceTime(30 * 60)
		inputs[r] = econInput{snap: e.cluster.SnapshotPerf(), root: e.rng.Intn(cfg.VMs)}
	}
	type econEval struct{ Base, Rpca float64 }
	evals := make([]econEval, cfg.Runs)
	if err := sweepPoints(cfg, "ext-economics", evals, func(r int, _ *rand.Rand) error {
		in := inputs[r]
		evals[r] = econEval{
			Base: e.collectiveElapsed(core.Baseline, mpi.Broadcast, in.root, in.snap),
			Rpca: e.collectiveElapsed(core.RPCA, mpi.Broadcast, in.root, in.snap),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var baseSum, rpcaSum float64
	for r := 0; r < cfg.Runs; r++ {
		baseSum += evals[r].Base
		rpcaSum += evals[r].Rpca
	}
	baseMean := baseSum / float64(cfg.Runs)
	rpcaMean := rpcaSum / float64(cfg.Runs)
	overhead := e.advisor.CalibrationCost()

	res := &ExtEconomicsResult{
		Table: NewTable("Ext: economics of RPCA-guided broadcast (m1.medium, $0.12/VM-h)",
			"billing", "baseline $/run", "RPCA $/run", "overhead $", "break-even runs", fmt.Sprintf("net after %d runs $", cfg.Runs)),
	}
	for _, bill := range []struct {
		name string
		p    cost.Pricing
	}{
		{"per-second", cost.Pricing{VMPerHour: 0.12}},
		{"hourly", cost.Pricing{VMPerHour: 0.12, BillingGranularity: 3600}},
	} {
		c, err := cost.Compare(bill.p, cfg.VMs, cfg.Runs, baseMean, rpcaMean, overhead)
		if err != nil {
			return nil, err
		}
		if bill.name == "per-second" {
			res.BreakEvenRuns = c.BreakEvenRuns
			res.NetSavings = c.NetSavings
		}
		res.Table.AddRow(bill.name, fmt.Sprintf("%.5f", c.BaselineCost), fmt.Sprintf("%.5f", c.OptimizedCost),
			fmt.Sprintf("%.5f", c.OverheadCost), f(c.BreakEvenRuns), fmt.Sprintf("%.5f", c.NetSavings))
	}
	res.Table.AddNote("mean broadcast: baseline %.3f s, RPCA %.3f s; calibration %.0f s", baseMean, rpcaMean, overhead)
	return res, nil
}

// ExtCollectivesResult compares all-to-all implementations.
type ExtCollectivesResult struct {
	Table *Table
	// Elapsed maps implementation name -> mean elapsed seconds.
	Elapsed map[string]float64
}

// ExtCollectives compares the paper's gather+broadcast all-to-all (the
// MPICH2 composition its applications use) against the pairwise-exchange
// all-to-all and a ring allreduce carrying the same data volume, each
// planned with the RPCA constant component where the algorithm can use
// ordering (chain/ring order from weights).
func ExtCollectives(cfg Config) (*ExtCollectivesResult, error) {
	e, err := newEnv(cfg, cfg.VMs, 2100)
	if err != nil {
		return nil, err
	}
	n := cfg.VMs
	chunk := 1 << 20 // 1 MB per-rank chunk
	res := &ExtCollectivesResult{
		Table:   NewTable("Ext: all-to-all implementations (1 MB per-rank chunks, RPCA-guided)", "implementation", "mean elapsed (s)"),
		Elapsed: map[string]float64{},
	}
	snaps := make([]*netmodel.PerfMatrix, cfg.Runs)
	for r := 0; r < cfg.Runs; r++ {
		e.cluster.AdvanceTime(30 * 60)
		snaps[r] = e.cluster.SnapshotPerf()
	}
	type collEval struct{ Gb, Pw, Ring float64 }
	evals := make([]collEval, cfg.Runs)
	if err := sweepPoints(cfg, "ext-collectives", evals, func(r int, _ *rand.Rand) error {
		snap := snaps[r]
		w := e.advisor.Constant().Weights(float64(chunk))
		tree := e.advisor.PlanTree(core.RPCA, 0, float64(chunk), nil, nil)
		order := mpi.ChainFromWeights(w, 0)
		evals[r] = collEval{
			Gb:   mpi.RunAllToAll(mpi.NewAnalyticNet(snap), tree, tree, float64(chunk)),
			Pw:   mpi.PairwiseAlltoall(mpi.NewAnalyticNet(snap), order, float64(chunk)),
			Ring: mpi.RingAllreduce(mpi.NewAnalyticNet(snap), order, float64(chunk)*float64(n)),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	for r := 0; r < cfg.Runs; r++ {
		sums["gather+broadcast (paper)"] += evals[r].Gb
		sums["pairwise exchange"] += evals[r].Pw
		sums["ring allreduce (same volume)"] += evals[r].Ring
	}
	for name, s := range sums {
		res.Elapsed[name] = s / float64(cfg.Runs)
	}
	for _, name := range []string{"gather+broadcast (paper)", "pairwise exchange", "ring allreduce (same volume)"} {
		res.Table.AddRow(name, f(res.Elapsed[name]))
	}
	return res, nil
}

// ExtCoordinatesResult quantifies the §IV-B coordinate argument.
type ExtCoordinatesResult struct {
	Table *Table
	// TriangleViolationRate over the cluster's transfer-time matrix.
	TriangleViolationRate float64
	// VivaldiMedianErr is the embedding's median relative prediction error.
	VivaldiMedianErr float64
	// RPCAMedianErr is the RPCA constant's median relative error against
	// the same matrix.
	RPCAMedianErr float64
}

// ExtCoordinates makes the paper's dismissal of network coordinates
// (§IV-B) quantitative: it measures the triangle-inequality violation rate
// of a virtual cluster's transfer-time matrix, then compares the accuracy
// achievable by a Vivaldi embedding (which assumes a metric space) against
// the RPCA constant component on the same cluster.
func ExtCoordinates(cfg Config) (*ExtCoordinatesResult, error) {
	e, err := newEnv(cfg, cfg.VMs, 2200)
	if err != nil {
		return nil, err
	}
	msg := cfg.MsgBytes
	truth := e.cluster.TruePerf().Weights(msg)

	tri := netcoord.AnalyzeTriangles(truth)

	// Vivaldi trained on live (noisy) measurements, like any deployment.
	rng := stats.NewRNG(cfg.Seed + 2201)
	sys := netcoord.New(cfg.VMs, netcoord.Config{})
	sys.Train(rng, 4000*cfg.VMs, func(i, j int) float64 {
		return e.cluster.PairPerf(i, j).TransferTime(msg)
	})
	vMed, _ := sys.FitError(truth)

	// RPCA constant error against the same ground truth.
	con := e.advisor.Constant().Weights(msg)
	var errsAll []float64
	for i := 0; i < cfg.VMs; i++ {
		for j := 0; j < cfg.VMs; j++ {
			if i == j {
				continue
			}
			tw := truth.At(i, j)
			errsAll = append(errsAll, absF(con.At(i, j)-tw)/tw)
		}
	}
	rMed := stats.Quantile(sortedCopy(errsAll), 0.5)

	res := &ExtCoordinatesResult{
		Table:                 NewTable("Ext: why coordinates fail on clouds (§IV-B, quantified)", "metric", "value"),
		TriangleViolationRate: tri.Rate,
		VivaldiMedianErr:      vMed,
		RPCAMedianErr:         rMed,
	}
	res.Table.AddRow("triangle-inequality violation rate", pct(tri.Rate))
	res.Table.AddRow("worst violation severity", pct(tri.Worst.Severity))
	res.Table.AddRow("Vivaldi median prediction error", pct(vMed))
	res.Table.AddRow("RPCA constant median error", pct(rMed))
	res.Table.AddNote("Norm(N_E) = %.3f; Vivaldi assumes a metric space, the cloud's pair-wise performance is not one", e.advisor.NormE())
	return res, nil
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ExtWorkflowResult compares workflow scheduling strategies.
type ExtWorkflowResult struct {
	Table *Table
	// Normalized maps scheduler name -> mean actual makespan normalized to
	// round-robin.
	Normalized map[string]float64
}

// ExtWorkflow evaluates the paper's workflow future work: a layered
// scientific-workflow DAG is scheduled onto the virtual cluster with
// round-robin, network-blind HEFT, and HEFT guided by the Heuristics
// estimate and by the RPCA constant component; every plan is evaluated
// against the instantaneous network of each run.
func ExtWorkflow(cfg Config) (*ExtWorkflowResult, error) {
	e, err := newEnv(cfg, cfg.VMs, 2400)
	if err != nil {
		return nil, err
	}
	const flopRate = 1e9
	type wfInput struct {
		snap *netmodel.PerfMatrix
		dag  *workflow.DAG
	}
	inputs := make([]wfInput, cfg.Runs)
	for r := 0; r < cfg.Runs; r++ {
		e.cluster.AdvanceTime(30 * 60)
		inputs[r] = wfInput{
			snap: e.cluster.SnapshotPerf(),
			dag:  workflow.RandomDAG(e.rng, 5, cfg.VMs/2, 4<<20, 32<<20, 5e8, 2e9),
		}
	}
	// Journaled per point (journalsafe): a slice of named pairs in fixed
	// scheduler order instead of a map, so a point's gob bytes are
	// reproducible run to run.
	type wfEval struct {
		Scheduler string
		Makespan  float64
	}
	schedulers := []string{"round-robin", "HEFT (blind)", "HEFT + Heuristics", "HEFT + RPCA"}
	evals := make([][]wfEval, cfg.Runs)
	if err := sweepPoints(cfg, "ext-workflow", evals, func(r int, _ *rand.Rand) error {
		in := inputs[r]
		plans := map[string][]int{}
		plans["round-robin"] = workflow.RoundRobin(in.dag, cfg.VMs)
		if s, err := workflow.HEFT(in.dag, cfg.VMs, flopRate, nil); err == nil {
			plans["HEFT (blind)"] = s.VMOf
		}
		if s, err := workflow.HEFT(in.dag, cfg.VMs, flopRate, e.advisor.HeuristicPerf()); err == nil {
			plans["HEFT + Heuristics"] = s.VMOf
		}
		if s, err := workflow.HEFT(in.dag, cfg.VMs, flopRate, e.advisor.Constant()); err == nil {
			plans["HEFT + RPCA"] = s.VMOf
		}
		var ms []wfEval
		for _, name := range schedulers {
			assign, ok := plans[name]
			if !ok {
				continue
			}
			v, err := workflow.Evaluate(in.dag, assign, cfg.VMs, flopRate, in.snap)
			if err != nil {
				return err
			}
			ms = append(ms, wfEval{Scheduler: name, Makespan: v})
		}
		evals[r] = ms
		return nil
	}); err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	for r := 0; r < cfg.Runs; r++ {
		for _, ev := range evals[r] {
			sums[ev.Scheduler] += ev.Makespan
		}
	}
	res := &ExtWorkflowResult{
		Table:      NewTable("Ext: scientific workflow scheduling (makespan normalized to round-robin)", "scheduler", "normalized makespan"),
		Normalized: map[string]float64{},
	}
	base := sums["round-robin"]
	for _, name := range []string{"round-robin", "HEFT (blind)", "HEFT + Heuristics", "HEFT + RPCA"} {
		res.Normalized[name] = sums[name] / base
		res.Table.AddRow(name, f(res.Normalized[name]))
	}
	return res, nil
}

// AccuracyResult reports the §V-D3 "accuracy of performance estimations"
// study.
type AccuracyResult struct {
	Table *Table
	// MeanRelDiff maps strategy name -> mean |estimated − measured| /
	// measured for broadcast elapsed time.
	MeanRelDiff map[string]float64
}

// AccuracyStudy reproduces the paper's trace-replay validation (§V-D3 /
// its technical-report Appendix B): the α-β estimate of a collective's
// elapsed time, computed from a measured performance matrix, is compared
// against the *actual* execution of the same schedule on the flow-level
// simulator (where real contention applies). The paper reports average
// differences of 18% for Baseline and 9% for RPCA; the estimator should
// track reality within tens of percent, and better for RPCA's schedules
// (which avoid the congested, hard-to-predict links).
func AccuracyStudy(cfg Config) (*AccuracyResult, error) {
	sc := simClusterFor(cfg, 1, 64<<20, 2*cfg.SimVMs, maxI(2, cfg.SimRacks/2), 2500)
	defer sc.StopBackground()
	rng := stats.NewRNG(cfg.Seed + 2501)
	adv := core.NewAdvisor(sc, rng, core.AdvisorConfig{TimeStep: cfg.TimeStep})
	tc := cloudSnapshotTP(sc, cfg.TimeStep)
	if err := adv.AnalyzeCalibrationCtx(cfg.context(), tc); err != nil {
		return nil, err
	}

	diffs := map[string][]float64{}
	net := mpi.NewSimNetwork(sc.Sim, sc.Hosts)
	n := cfg.SimVMs
	for r := 0; r < cfg.Runs; r++ {
		root := rng.Intn(n)
		// A fresh measured snapshot is the estimator's input.
		snap := cloudSnapshotTP(sc, 1)
		snapPerf := core.PerfFromRows(n, snap.Latency.Matrix().Row(0), snap.Bandwidth.Matrix().Row(0))
		for _, s := range []core.Strategy{core.Baseline, core.RPCA} {
			tree := adv.PlanTree(s, root, cfg.MsgBytes, sc.Sim.Topo, sc.Hosts)
			estimated := mpi.RunCollective(mpi.NewAnalyticNet(snapPerf), tree, mpi.Broadcast, cfg.MsgBytes)
			measured := mpi.RunCollective(net, tree, mpi.Broadcast, cfg.MsgBytes)
			if measured > 0 {
				diffs[s.String()] = append(diffs[s.String()], absF(estimated-measured)/measured)
			}
		}
	}
	res := &AccuracyResult{
		Table:       NewTable("§V-D3: accuracy of the trace-replay estimation vs live execution", "strategy", "mean |est−meas|/meas"),
		MeanRelDiff: map[string]float64{},
	}
	for _, name := range []string{"Baseline", "RPCA"} {
		m := stats.Mean(diffs[name])
		res.MeanRelDiff[name] = m
		res.Table.AddRow(name, pct(m))
	}
	res.Table.AddNote("paper reports 18%% (Baseline) and 9%% (RPCA) average difference on EC2")
	return res, nil
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// cloudSnapshotTP adapts cloud.SnapshotTP with the 5-second gap the sim
// experiments use.
func cloudSnapshotTP(sc *cloud.SimCluster, steps int) *cloud.TemporalCalibration {
	return cloud.SnapshotTP(sc, steps, 5)
}
