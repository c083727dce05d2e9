// Quickstart: the complete netconstant pipeline on a small virtual
// cluster — provision, calibrate a temporal performance matrix, decouple
// the constant component with RPCA, inspect Norm(N_E), and build a
// network-aware broadcast tree from the constant component.
package main

import (
	"context"
	"fmt"
	"log"

	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/mpi"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

func main() {
	// 1. A synthetic IaaS provider: the EC2 stand-in. VM pairs get a
	//    ground-truth constant performance (placement + virtualization)
	//    overlaid with volatility, sparse interference spikes, and rare
	//    migrations.
	provider := cloud.NewProvider(cloud.ProviderConfig{
		Tree: topo.TreeConfig{Racks: 8, ServersPerRack: 8},
		Seed: 42,
	})

	// 2. Provision a virtual cluster of 12 VMs.
	cluster, err := provider.Provision(12, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("provisioned 12 VMs spread over %d racks\n", cluster.RackSpread())

	// 3. The Advisor implements the paper's Algorithm 1: calibrate a
	//    TP-matrix (time step 10), run RPCA, keep the constant component.
	adv := core.NewAdvisor(cluster, stats.NewRNG(1), core.AdvisorConfig{})
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibration consumed %.0f s of cluster time\n", adv.CalibrationCost())
	fmt.Printf("Norm(N_E) = %.3f -> network-aware optimization is %s\n",
		adv.NormE(), adv.Effectiveness())

	// 4. Build the FNF broadcast tree from the constant component and
	//    compare its expected time against the blind binomial baseline.
	const msg = 8 << 20 // the paper's 8 MB default
	rpcaTree := adv.PlanTree(core.RPCA, 0, msg, nil, nil)
	baseTree := adv.PlanTree(core.Baseline, 0, msg, nil, nil)
	fmt.Printf("expected broadcast: baseline %.3f s, RPCA-guided %.3f s\n",
		adv.ExpectedTime(baseTree, mpi.Broadcast, msg),
		adv.ExpectedTime(rpcaTree, mpi.Broadcast, msg))

	// 5. Execute both against the instantaneous network (what a run right
	//    now would actually experience).
	snap := cluster.SnapshotPerf()
	base := mpi.RunCollective(mpi.NewAnalyticNet(snap), baseTree, mpi.Broadcast, msg)
	rpca := mpi.RunCollective(mpi.NewAnalyticNet(snap), rpcaTree, mpi.Broadcast, msg)
	fmt.Printf("actual broadcast:   baseline %.3f s, RPCA-guided %.3f s (%.0f%% faster)\n",
		base, rpca, 100*(base-rpca)/base)

	// 6. Algorithm 1's maintenance loop: compare actual vs expected and
	//    re-calibrate when the network changed significantly.
	expected := adv.ExpectedTime(rpcaTree, mpi.Broadcast, msg)
	if recal, err := adv.ObserveCtx(context.Background(), expected, rpca); err != nil {
		log.Fatal(err)
	} else if recal {
		fmt.Println("significant change detected -> recalibrated")
	} else {
		fmt.Println("network unchanged -> constant component still valid")
	}
}
