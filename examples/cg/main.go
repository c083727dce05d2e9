// CG: the paper's second real-world application — a conjugate gradient
// solve over a 2-D Poisson system whose per-iteration vector exchange
// (gather + broadcast) runs over strategy-planned trees. Reproduces the
// Fig 9a observation: at small problem sizes the calibration overhead
// makes network-aware strategies slower; at larger sizes the reduced
// communication wins it back.
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
	const vms = 16
	provider := cloud.NewProvider(cloud.ProviderConfig{
		Tree: topo.TreeConfig{Racks: 8, ServersPerRack: 8},
		Seed: 31,
	})
	cluster, err := provider.Provision(vms, 32)
	if err != nil {
		log.Fatal(err)
	}
	adv := core.NewAdvisor(cluster, stats.NewRNG(33), core.AdvisorConfig{})
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		log.Fatal(err)
	}
	overhead := adv.CalibrationCost()
	snap := cluster.SnapshotPerf()

	for _, vectorSize := range []int{1000, 16000, 64000} {
		fmt.Printf("CG with %d unknowns (convergence ‖r‖ <= 1e-5·‖g0‖):\n", vectorSize)
		chunk := float64(vectorSize) / vms * 8
		for _, s := range []core.Strategy{core.Baseline, core.Heuristics, core.RPCA} {
			tree := adv.PlanTree(s, 0, chunk, nil, nil)
			res, err := apps.RunCG(mpi.NewAnalyticNet(snap), tree, tree, apps.CGConfig{
				VectorSize: vectorSize, Ranks: vms, MaxIter: 4000,
			})
			if err != nil {
				log.Fatal(err)
			}
			if s != core.Baseline {
				res.Breakdown.Overhead = overhead
			}
			fmt.Printf("  %-12s %4d iters, comp %7.2f s, comm %7.2f s, overhead %6.1f s, total %8.2f s (converged=%v)\n",
				s, res.Iterations, res.Breakdown.Computation, res.Breakdown.Communication,
				res.Breakdown.Overhead, res.Breakdown.Total(), res.Converged)
		}
		fmt.Println()
	}
}
