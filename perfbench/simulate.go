package main

// The simulate workload runs the §V-E pipeline on the flow simulator as
// an experiment sweep runs its points: each client is an independent
// stream, and each op is one point — a fresh simulated cluster (Fig 13's
// set-up at the paper's 1024-machine 32×32 scale) seeded from the
// stream, a 10-step snapshot calibration, the RPCA analysis, an
// RPCA-planned tree and an 8 MB broadcast on the live simulator, after
// which the background sources are stopped and the simulator drained.
// A fresh cluster per op keeps a run's cost from hanging on the few
// clusters a seed happens to draw.
//
// The traced pass replaces cloud.SnapshotTP with the same sequence of
// PairPerf and AdvanceTime calls, one span each, so simnet's share shows;
// the output digest proves the replacement computes the same thing.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/mpi"
	"netconstant/internal/netmodel"
	"netconstant/internal/rpca"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// simCfg sizes the simulated cluster.
type simCfg struct {
	racks, serversPerRack int
	vms                   int
	hotRacks              int // racks the background sources are confined to
}

// fig13Cfg is Fig 13's cluster at the paper's 1024-machine scale.
var fig13Cfg = simCfg{racks: 32, serversPerRack: 32, vms: 32, hotRacks: 16}

const (
	simSteps      = 10
	simGap        = 5.0 // simulated seconds between snapshot rows
	simBcastBytes = 8 << 20
	// maxDrainSteps bounds the events a stopped simulator may still fire;
	// a source that keeps rescheduling is left behind.
	maxDrainSteps = 1_000_000
)

// cluster builds one Fig 13 cluster: oversubscribed uplinks (two server
// links per rack) and 64 MB Poisson background sources with λ = 1 s.
func (cfg simCfg) cluster(seed int64) *cloud.SimCluster {
	return cloud.NewSimCluster(cloud.SimClusterConfig{
		Tree:      topo.TreeConfig{Racks: cfg.racks, ServersPerRack: cfg.serversPerRack, IntraRackBps: 1e9 / 8, InterRackBps: 2e9 / 8},
		VMs:       cfg.vms,
		Seed:      seed,
		BgLinks:   2 * cfg.vms,
		BgBytes:   64 << 20,
		BgLambda:  1,
		HotRacks:  cfg.hotRacks,
		ProbeBulk: 1 << 20,
	})
}

type simStream struct {
	rng    *rand.Rand   // the stream's inputs: cluster seeds and roots
	solver *rpca.Solver // traced pass only
	cnt    counts
}

type simulate struct {
	cfg     simCfg
	streams []*simStream
	prefix  int
	traced  bool
}

func setupSimulate(ctx context.Context, e env, cfg simCfg) (instance, error) {
	master := stats.NewRNG(e.seed)
	s := &simulate{cfg: cfg, prefix: e.prefix, traced: e.traced}
	for c := 0; c < e.clients; c++ {
		st := &simStream{rng: stats.Split(master, int64(c))}
		if e.traced {
			st.solver = rpca.NewSolver()
		}
		s.streams = append(s.streams, st)
	}
	return s, nil
}

func (s *simulate) op(ctx context.Context, c, i int, tr *tracer) ([]byte, error) {
	st := s.streams[c]
	seed := st.rng.Int63() >> 16
	root := st.rng.Intn(s.cfg.vms)
	if i == 0 {
		// The warm-up runs on a cluster that does not depend on the
		// workload seed, so set-up time compares across seeds.
		seed = int64(c)
	}

	rootSpan := tr.begin(c, i, -1, "op")
	n := tr.begin(c, i, rootSpan, "cloud.NewSimCluster")
	sc := s.cfg.cluster(seed)
	adv := core.NewAdvisor(sc, stats.NewRNG(seed+1), core.AdvisorConfig{TimeStep: simSteps})
	tr.end(c, n)
	var tc *cloud.TemporalCalibration
	if tr == nil {
		tc = cloud.SnapshotTP(sc, simSteps, simGap)
	} else {
		tc = tracedSnapshot(c, i, tr, rootSpan, sc)
	}
	a := tr.begin(c, i, rootSpan, "core.AnalyzeCalibration")
	err := adv.AnalyzeCalibrationCtx(ctx, tc)
	tr.end(c, a)
	if err != nil {
		tr.end(c, rootSpan)
		return nil, err
	}
	p := tr.begin(c, i, rootSpan, "core.PlanTree")
	tree := adv.PlanTree(core.RPCA, root, simBcastBytes, nil, nil)
	tr.end(c, p)
	b := tr.begin(c, i, rootSpan, "mpi.RunCollective/sim")
	elapsed := mpi.RunCollective(mpi.NewSimNetwork(sc.Sim, sc.Hosts), tree, mpi.Broadcast, simBcastBytes)
	tr.end(c, b)
	simSeconds := sc.Now()
	d := tr.begin(c, i, rootSpan, "simnet.Drain")
	drainErr := drain(sc)
	tr.end(c, d)
	tr.end(c, rootSpan)

	if drainErr != nil {
		return nil, drainErr
	}
	normE := adv.NormE()
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	if eff := adv.EffectiveStrategy(core.RPCA); eff != core.RPCA {
		return nil, fmt.Errorf("RPCA demoted to %v", eff)
	}
	if math.IsNaN(normE) || math.IsInf(normE, 0) || math.IsNaN(elapsed) || math.IsInf(elapsed, 0) || elapsed <= 0 {
		return nil, fmt.Errorf("non-finite answer: norm_e %v, broadcast %v s", normE, elapsed)
	}
	counting := i >= 1 && i <= s.prefix
	if counting {
		st.cnt.simSeconds += simSeconds
		st.cnt.simOps++
	}
	if s.traced {
		bw, err := replicaSolves(c, i, tr, a, st.solver, tc, &st.cnt, counting)
		if err != nil {
			return nil, err
		}
		if math.Float64bits(bw) != math.Float64bits(normE) {
			return nil, fmt.Errorf("replica norm_e %v differs from the advisor's %v", bw, normE)
		}
		if err := replicaPlan(c, i, tr, p, adv, root, tree); err != nil {
			return nil, err
		}
	}
	return fmt.Appendf(nil, "%v %x %x\n", tree.Parent, math.Float64bits(elapsed), math.Float64bits(normE)), nil
}

// drain stops the cluster's background sources and runs its simulator
// dry; a source still scheduling events afterwards was left behind.
func drain(sc *cloud.SimCluster) error {
	sc.StopBackground()
	for k := 0; k < maxDrainSteps && sc.Sim.Eng.Step(); k++ {
	}
	if n, q := sc.Sim.ActiveFlows(), sc.Sim.Eng.Pending(); n != 0 || q != 0 {
		return fmt.Errorf("background traffic: %d flows and %d events: %w", n, q, errLeftBehind)
	}
	return nil
}

// tracedSnapshot is cloud.SnapshotTP with a span around every PairPerf
// and AdvanceTime call.
func tracedSnapshot(c, i int, tr *tracer, parent int32, sc *cloud.SimCluster) *cloud.TemporalCalibration {
	sp := tr.begin(c, i, parent, "cloud.SnapshotTP")
	defer tr.end(c, sp)
	n := sc.Size()
	tc := &cloud.TemporalCalibration{Latency: netmodel.NewTPMatrix(n), Bandwidth: netmodel.NewTPMatrix(n)}
	for step := 0; step < simSteps; step++ {
		pm := netmodel.NewPerfMatrix(n)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				s := tr.begin(c, i, sp, "simnet.PairPerf")
				l := sc.PairPerf(a, b)
				tr.end(c, s)
				pm.SetLink(a, b, l)
			}
		}
		tc.Latency.Append(sc.Now(), pm.Latency)
		tc.Bandwidth.Append(sc.Now(), pm.Bandwth)
		if step < simSteps-1 {
			s := tr.begin(c, i, sp, "simnet.AdvanceTime")
			sc.AdvanceTime(simGap)
			tr.end(c, s)
		}
	}
	return tc
}

// replicaPlan repeats PlanTree's two layer calls under its span and
// checks they build the advisor's tree.
func replicaPlan(c, i int, tr *tracer, parent int32, adv *core.Advisor, root int, tree *mpi.Tree) error {
	w0 := tr.begin(c, i, parent, "netmodel.Weights")
	w := adv.Constant().Weights(simBcastBytes)
	tr.end(c, w0)
	f := tr.begin(c, i, parent, "mpi.FNFTree")
	fnf := mpi.FNFTree(w, root)
	tr.end(c, f)
	if !slices.Equal(fnf.Parent, tree.Parent) {
		return fmt.Errorf("replica FNF tree for root %d differs from PlanTree's", root)
	}
	return nil
}

func (s *simulate) layers(context.Context, int) (map[string]float64, error) {
	var cnt counts
	for _, st := range s.streams {
		cnt.add(st.cnt)
	}
	return cnt.metrics(), nil
}

// close has nothing to release: every op drains its own simulator.
func (s *simulate) close() error { return nil }
