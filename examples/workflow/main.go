// Workflow: the paper's future-work direction — scheduling a scientific
// workflow (a layered DAG of compute tasks with data dependencies) onto a
// virtual cluster. Compares round-robin placement, network-blind HEFT,
// and HEFT guided by the RPCA constant component, each evaluated against
// the network conditions a run actually experiences.
package main

import (
	"context"
	"fmt"
	"log"

	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
	"netconstant/internal/workflow"
)

func main() {
	const (
		vms      = 16
		flopRate = 1e9
	)
	provider := cloud.NewProvider(cloud.ProviderConfig{
		Tree: topo.TreeConfig{Racks: 8, ServersPerRack: 8},
		Seed: 41,
	})
	cluster, err := provider.Provision(vms, 42)
	if err != nil {
		log.Fatal(err)
	}
	adv := core.NewAdvisor(cluster, stats.NewRNG(43), core.AdvisorConfig{})
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster calibrated: Norm(N_E) = %.3f (%s)\n\n", adv.NormE(), adv.Effectiveness())

	rng := stats.NewRNG(44)
	dag := workflow.RandomDAG(rng, 6, 8, 4<<20, 32<<20, 5e8, 2e9)
	edges := len(dag.Data)
	fmt.Printf("workflow: %d tasks in 6 layers, %d data edges\n\n", len(dag.Tasks), edges)

	snap := cluster.SnapshotPerf()
	show := func(name string, assign []int) {
		ms, err := workflow.Evaluate(dag, assign, vms, flopRate, snap)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s makespan %8.2f s\n", name, ms)
	}

	show("round-robin", workflow.RoundRobin(dag, vms))
	if s, err := workflow.HEFT(dag, vms, flopRate, nil); err == nil {
		show("HEFT (network-blind)", s.VMOf)
	}
	if s, err := workflow.HEFT(dag, vms, flopRate, adv.HeuristicPerf()); err == nil {
		show("HEFT + Heuristics", s.VMOf)
	}
	if s, err := workflow.HEFT(dag, vms, flopRate, adv.Constant()); err == nil {
		show("HEFT + RPCA constant", s.VMOf)
	}
}
