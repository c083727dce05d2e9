// N-body: the paper's first real-world application — an all-pairs gravity
// simulation whose per-step all-to-all (gather + broadcast, as in MPICH2)
// runs over strategy-planned communication trees. Prints the Fig 9b-style
// computation/communication/overhead breakdown per strategy.
package main

import (
	"context"
	"fmt"
	"log"

	"netconstant/internal/apps"
	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/mpi"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

func main() {
	const (
		vms    = 16
		bodies = 256
		steps  = 64
		msg    = 1 << 20 // 1 MB, the paper's Fig 9b default
	)
	provider := cloud.NewProvider(cloud.ProviderConfig{
		Tree: topo.TreeConfig{Racks: 8, ServersPerRack: 8},
		Seed: 21,
	})
	cluster, err := provider.Provision(vms, 22)
	if err != nil {
		log.Fatal(err)
	}
	adv := core.NewAdvisor(cluster, stats.NewRNG(23), core.AdvisorConfig{})
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		log.Fatal(err)
	}
	overhead := adv.CalibrationCost()
	snap := cluster.SnapshotPerf()

	fmt.Printf("N-body: %d bodies, %d steps, %d ranks, 1 MB all-to-all chunks\n\n", bodies, steps, vms)
	fmt.Printf("%-12s %-10s %-10s %-10s %-10s %-12s\n", "strategy", "comp (s)", "comm (s)", "ovhd (s)", "total (s)", "energy")
	for _, s := range []core.Strategy{core.Baseline, core.Heuristics, core.RPCA} {
		tree := adv.PlanTree(s, 0, msg, nil, nil)
		res, err := apps.RunNBody(mpi.NewAnalyticNet(snap), tree, tree, apps.NBodyConfig{
			Bodies: bodies, Steps: steps, Ranks: vms, MsgBytes: msg, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		if s != core.Baseline {
			res.Breakdown.Overhead = overhead
		}
		fmt.Printf("%-12s %-10.2f %-10.2f %-10.2f %-10.2f %-12.6f\n",
			s, res.Breakdown.Computation, res.Breakdown.Communication,
			res.Breakdown.Overhead, res.Breakdown.Total(), res.Energy)
	}
	fmt.Println("\n(the physics is identical across strategies — only the network plan changes)")
}
