// Topology mapping: assign a random task graph (5–10 MB edge volumes, the
// paper's workload) onto a virtual cluster, comparing the ring-mapping
// baseline against the Hoefler-Snir greedy heuristic guided by direct
// measurements (Heuristics) and by the RPCA constant component.
package main

import (
	"context"
	"fmt"
	"log"

	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/mapping"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

func main() {
	const vms = 24
	provider := cloud.NewProvider(cloud.ProviderConfig{
		Tree: topo.TreeConfig{Racks: 8, ServersPerRack: 8},
		Seed: 11,
	})
	cluster, err := provider.Provision(vms, 12)
	if err != nil {
		log.Fatal(err)
	}
	rng := stats.NewRNG(13)
	adv := core.NewAdvisor(cluster, rng, core.AdvisorConfig{})
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		log.Fatal(err)
	}

	task := mapping.RandomTaskGraph(rng, vms, 0.15, 5<<20, 10<<20)
	var edges int
	var volume float64
	for i := 0; i < vms; i++ {
		for j := i + 1; j < vms; j++ {
			if v := task.Edge(i, j); v > 0 {
				edges++
				volume += v
			}
		}
	}
	fmt.Printf("task graph: %d tasks, %d edges, %.0f MB total transfer volume\n\n",
		vms, edges, volume/(1<<20))

	snap := cluster.SnapshotPerf() // what execution experiences right now
	show := func(name string, assign []int) {
		if err := mapping.ValidatePermutation(assign); err != nil {
			log.Fatal(err)
		}
		elapsed, total := mapping.Cost(task, assign, snap)
		fmt.Printf("%-22s elapsed %.2f s, total transfer time %.2f s\n", name, elapsed, total)
	}

	show("ring (baseline)", mapping.RingMapping(vms))
	show("greedy + heuristics", mapping.GreedyMap(task, mapping.MachineGraphFromPerf(adv.HeuristicPerf())))
	show("greedy + RPCA", mapping.GreedyMap(task, mapping.MachineGraphFromPerf(adv.Constant())))
}
