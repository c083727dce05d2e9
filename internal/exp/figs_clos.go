package exp

// ext-clos: scaling the simulated evaluation past the paper. The paper's
// ns-2 study stops at a 1024-machine two-level tree (§V-A); this
// extension rebuilds the §V-E measurement pipeline on multi-stage Clos
// fabrics with ECMP routing, where the incremental max-min allocator's
// component sharding actually matters: background flows spread across
// the fabric shatter the flow↔link sharing graph into many independent
// components. Each sweep point reports the fabric shape, how much of the
// routed pair set is genuinely multi-path, the component structure of a
// whole-network refill, the agreement between the progressive-filling
// and bottleneck-structure backends, and Norm(N_E) from a calibrated
// decomposition — evidence the paper's "constant from change" finding
// survives on modern fabrics two orders of magnitude larger.

import (
	"math/rand"

	"netconstant/internal/cloud"
	"netconstant/internal/topo"
)

// ExtClosResult reports the Clos-fabric scaling study.
type ExtClosResult struct {
	Table *Table
	// Points holds one entry per swept fabric size.
	Points []ExtClosPoint
}

// ExtClosPoint is one swept fabric size (exported fields: the sweep
// checkpoints gob-encode it).
type ExtClosPoint struct {
	Machines   int
	Nodes      int
	Links      int
	BgSources  int
	PairsTotal int
	PairsMulti int
	Components int
	Flows      int
	Agreement  float64 // max relative max-min vs bottleneck-structure rate diff
	NormE      float64
}

// extClosScales picks the swept fabric sizes: modest in quick mode so CI
// and tests stay fast, beyond the paper's 1024 machines in full mode.
// There are no 32k/131k points: a figure sweep re-runs per point and
// would pay the large-fabric build repeatedly.
func extClosScales(cfg Config) []int {
	if cfg.Runs >= 100 {
		return []int{1024, 4096, 16384}
	}
	return []int{64, 256}
}

// ExtClos runs the Clos scaling study.
func ExtClos(cfg Config) (*ExtClosResult, error) {
	scales := extClosScales(cfg)
	pts := make([]ExtClosPoint, len(scales))
	if err := sweepPoints(cfg, "ext-clos", pts, func(i int, _ *rand.Rand) error {
		machines := scales[i]
		shape := topo.ClosShape(machines)
		fabric := topo.NewClos(shape)
		vms := cfg.SimVMs
		if vms > machines {
			vms = machines
		}
		bgSources := machines / 16
		if bgSources < 2 {
			bgSources = 2
		}
		sc := cloud.NewSimCluster(cloud.SimClusterConfig{
			Topo:     fabric,
			VMs:      vms,
			Seed:     cfg.Seed + 1500 + int64(machines),
			BgLinks:  bgSources,
			BgBytes:  32 << 20,
			BgLambda: 1,
			// The §V-E probe size; large fabrics still calibrate only the
			// VM pairs, so the point cost is dominated by background churn.
			ProbeBulk: 1 << 20,
		})
		defer sc.StopBackground()
		// Let the background reach steady state before measuring.
		sc.AdvanceTime(2)
		comps, flows := sc.Sim.RefillAll()
		total, multi := sc.Sim.ECMPPairs()
		agree := sc.Sim.AllocatorAgreement()
		ne, err := simNormE(cfg, sc)
		if err != nil {
			return err
		}
		pts[i] = ExtClosPoint{
			Machines:   machines,
			Nodes:      fabric.NumNodes(),
			Links:      fabric.NumLinks(),
			BgSources:  bgSources,
			PairsTotal: total,
			PairsMulti: multi,
			Components: comps,
			Flows:      flows,
			Agreement:  agree,
			NormE:      ne,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	res := &ExtClosResult{
		Table: NewTable("ext-clos: §V-E pipeline on ECMP Clos fabrics beyond the paper's 1024 machines",
			"machines", "nodes", "links", "ECMP pairs", "multipath", "refill comps", "flows", "maxmin vs BS", "Norm(N_E)"),
		Points: pts,
	}
	for _, p := range pts {
		res.Table.AddRow(itoa(p.Machines), itoa(p.Nodes), itoa(p.Links),
			itoa(p.PairsTotal), itoa(p.PairsMulti), itoa(p.Components), itoa(p.Flows),
			f(p.Agreement), f(p.NormE))
	}
	res.Table.AddNote("multi-stage Clos via topo.ClosShape, deterministic ECMP routing, component-sharded max-min fill")
	return res, nil
}
