package exp

import (
	"context"
	"math/rand"
	"time"

	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/mapping"
	"netconstant/internal/mpi"
	"netconstant/internal/netmodel"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// Config scales the experiments. Quick (the default for tests and benches)
// shrinks cluster sizes and repetition counts so the full suite runs in
// seconds; Full reproduces the paper's scales (196 VMs, 1024-machine
// simulation, ≥100 repetitions) and is what cmd/expdriver -full runs.
type Config struct {
	Seed int64
	// VMs is the virtual cluster size (paper default 196).
	VMs int
	// SmallVMs is the smaller cluster of Fig 8 (paper: 64).
	SmallVMs int
	// Runs is the repetition count per data point (paper: >100).
	Runs int
	// MsgBytes is the collective message size (paper default 8 MB).
	MsgBytes float64
	// TimeStep is the TP-matrix row count (paper default 10).
	TimeStep int
	// Racks/ServersPerRack shape the synthetic data center.
	Racks          int
	ServersPerRack int
	// SimMachines is the simulated-cluster size for Fig 12/13 (paper: 1024
	// = 32×32).
	SimRacks          int
	SimServersPerRack int
	SimVMs            int
	// MigrationRate is VM migrations per VM per day.
	MigrationRate float64
	// Workers bounds how many sweep points run concurrently (0 =
	// GOMAXPROCS). Output tables are byte-identical at any setting.
	Workers int
	// Clock, when non-nil, supplies wall-clock readings for the few
	// results that are *about* real time (Fig 4's "< 1 min per RPCA"
	// claim). It is nil by default so internal/exp performs no wall-clock
	// reads — the determinism analyzer (cmd/netlint) enforces that — and
	// the affected cells report as skipped; cmd/expdriver injects
	// time.Now.
	Clock func() time.Time
	// Memo, when non-nil, caches calibration traces across figures:
	// identical (provider config, cluster size, seeds, calibration
	// procedure) tuples are measured once per driver run and replayed.
	// Every initial calibration is measured on a throwaway, identically
	// seeded replica, so results are the same with or without a memo and
	// at any worker count; a memo only saves the repeated measurements.
	Memo *cloud.CalibrationMemo
	// Ctx, when non-nil, cancels the sweep: workers stop claiming new
	// points once it is done (in-flight points drain to completion and
	// are checkpointed), and the figure returns a *cancel.Error matching
	// cancel.ErrCanceled. The context also threads into calibration and
	// the RPCA solver loops. Nil means "never cancel".
	Ctx context.Context
	// Ckpt, when non-nil, journals every completed sweep point (keyed by
	// the figure name and its hashed PointSeed) and, on a resumed run,
	// replays journaled points instead of recomputing them. Because each
	// point's result lands in an index-addressed slot and each point's
	// rng stream is derived purely from (figure, seed, index), a resumed
	// sweep produces byte-identical tables to an uninterrupted one.
	Ckpt *Checkpoint
	// PointHook, when non-nil, is called after each sweep point completes
	// (and, when Ckpt is set, after it is journaled) with the figure name
	// and point index. Points run on worker goroutines, so the hook must
	// be safe for concurrent use. Used by crash/cancellation testing to
	// interrupt a run at a precise point count.
	PointHook func(figure string, index int)
}

// Quick returns a configuration sized for tests and laptops.
func Quick() Config {
	return Config{
		Seed:              1,
		VMs:               16,
		SmallVMs:          8,
		Runs:              12,
		MsgBytes:          8 << 20,
		TimeStep:          10,
		Racks:             8,
		ServersPerRack:    8,
		SimRacks:          8,
		SimServersPerRack: 8,
		SimVMs:            12,
		MigrationRate:     0.03,
	}
}

// Full returns the paper-scale configuration.
func Full() Config {
	return Config{
		Seed:              1,
		VMs:               196,
		SmallVMs:          64,
		Runs:              100,
		MsgBytes:          8 << 20,
		TimeStep:          10,
		Racks:             32,
		ServersPerRack:    32,
		SimRacks:          32,
		SimServersPerRack: 32,
		SimVMs:            64,
		MigrationRate:     0.003,
	}
}

// env bundles a provisioned synthetic cluster with a calibrated advisor.
type env struct {
	cfg      Config
	provider *cloud.Provider
	cluster  *cloud.VirtualCluster
	advisor  *core.Advisor
	rng      *rand.Rand
}

// newEnv provisions a cluster of n VMs and calibrates the advisor once.
func newEnv(cfg Config, n int, seedOffset int64) (*env, error) {
	return newEnvWith(cfg, n, seedOffset, cloud.ProviderConfig{})
}

// newEnvWith is newEnv with provider overrides (tree, seed and migration
// rate are still filled from cfg).
func newEnvWith(cfg Config, n int, seedOffset int64, pc cloud.ProviderConfig) (*env, error) {
	return newEnvAdv(cfg, n, seedOffset, pc, core.AdvisorConfig{TimeStep: cfg.TimeStep})
}

// newEnvAdv is the general entry point: provider overrides plus an
// advisor configuration (so figures sweeping advisor parameters pay for
// a single calibration instead of calibrating a throwaway advisor
// first).
func newEnvAdv(cfg Config, n int, seedOffset int64, pc cloud.ProviderConfig, advCfg core.AdvisorConfig) (*env, error) {
	pc.Tree = topo.TreeConfig{Racks: cfg.Racks, ServersPerRack: cfg.ServersPerRack}
	pc.Seed = cfg.Seed + seedOffset
	pc.MigrationRate = cfg.MigrationRate
	if advCfg.TimeStep == 0 {
		advCfg.TimeStep = cfg.TimeStep
	}
	p := cloud.NewProvider(pc)
	vc, err := p.Provision(n, cfg.Seed+seedOffset+1)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed + seedOffset + 2)
	adv := core.NewAdvisor(vc, rng, advCfg)
	if err := calibrateEnv(cfg, n, seedOffset, pc, advCfg, vc, adv); err != nil {
		return nil, err
	}
	return &env{cfg: cfg, provider: p, cluster: vc, advisor: adv, rng: rng}, nil
}

// calibrateEnv runs the advisor's initial calibration through
// cfg.Memo.Calibrate, which measures a replica provisioned from the same
// provider config and seeds (or replays that measurement), so the
// environment's own rng and cluster streams are untouched. The trace is
// installed via AnalyzeCalibrationCtx, with the cluster clock advanced
// by the measurement cost it would have paid. Maintenance
// re-calibrations (Advisor.CalibrateCtx from ObserveCtx) measure the
// live, evolved cluster and never consult the memo.
func calibrateEnv(cfg Config, n int, seedOffset int64, pc cloud.ProviderConfig, advCfg core.AdvisorConfig, vc *cloud.VirtualCluster, adv *core.Advisor) error {
	ctx := cfg.context()
	key := cloud.CalibrationKey{
		Provider: pc,
		N:        n,
		ProvSeed: cfg.Seed + seedOffset + 1,
		RNGSeed:  cfg.Seed + seedOffset + 2,
		Steps:    advCfg.TimeStep,
		Gap:      advCfg.Gap,
		Cal:      advCfg.Calibration,
	}
	tc, err := cfg.Memo.Calibrate(ctx, "", key)
	if err != nil {
		return err
	}
	vc.AdvanceTime(tc.TotalCost)
	return adv.AnalyzeCalibrationCtx(ctx, tc)
}

// collectiveElapsed plans the strategy's tree against the advisor guidance
// and executes it against the instantaneous snapshot — the trace-replay
// methodology of §V-D.
func (e *env) collectiveElapsed(s core.Strategy, op mpi.Collective, root int, snapshot *netmodel.PerfMatrix) float64 {
	tree := e.advisor.PlanTree(s, root, e.cfg.MsgBytes, e.provider.Topo, e.cluster.Hosts)
	return mpi.RunCollective(mpi.NewAnalyticNet(snapshot), tree, op, e.cfg.MsgBytes)
}

// mappingElapsed evaluates the topology-mapping workload for a strategy:
// the task graph is mapped with the strategy's machine graph (ring for
// Baseline) and costed against the instantaneous snapshot.
func (e *env) mappingElapsed(s core.Strategy, task *mapping.Graph, snapshot *netmodel.PerfMatrix) float64 {
	n := e.cluster.Size()
	var assign []int
	switch s {
	case core.Baseline, core.TopologyAware:
		assign = mapping.RingMapping(n)
	default:
		guide := e.advisor.GuidancePerf(s)
		machine := mapping.MachineGraphFromPerf(guide)
		assign = mapping.GreedyMap(task, machine)
	}
	elapsed, _ := mapping.Cost(task, assign, snapshot)
	return elapsed
}

// strategiesEC2 are the approaches compared on the cloud (no topology
// information is available on EC2, §V-A).
var strategiesEC2 = []core.Strategy{core.Baseline, core.Heuristics, core.RPCA}

// strategiesSim adds the topology-aware approach available in simulation.
var strategiesSim = []core.Strategy{core.Baseline, core.TopologyAware, core.Heuristics, core.RPCA}

// meanOf averages a slice.
func meanOf(xs []float64) float64 { return stats.Mean(xs) }
