// Broadcast comparison: the paper's Fig 7 scenario at example scale — an
// MPI-style broadcast on a 64-VM virtual cluster under four planning
// strategies, repeated across dynamic network conditions, reported as mean
// elapsed time and a CDF.
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
	const (
		vms  = 64
		msg  = 8 << 20
		runs = 30
	)
	provider := cloud.NewProvider(cloud.ProviderConfig{
		Tree: topo.TreeConfig{Racks: 16, ServersPerRack: 16},
		Seed: 3,
	})
	cluster, err := provider.Provision(vms, 4)
	if err != nil {
		log.Fatal(err)
	}
	rng := stats.NewRNG(5)
	adv := core.NewAdvisor(cluster, rng, core.AdvisorConfig{})
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("64-VM cluster over %d racks, Norm(N_E)=%.3f\n\n", cluster.RackSpread(), adv.NormE())

	strategies := []core.Strategy{core.Baseline, core.Heuristics, core.RPCA}
	samples := map[core.Strategy][]float64{}
	for r := 0; r < runs; r++ {
		cluster.AdvanceTime(30 * 60) // one run every 30 minutes, as in the paper
		snap := cluster.SnapshotPerf()
		root := rng.Intn(vms)
		for _, s := range strategies {
			tree := adv.PlanTree(s, root, msg, nil, nil)
			el := mpi.RunCollective(mpi.NewAnalyticNet(snap), tree, mpi.Broadcast, msg)
			samples[s] = append(samples[s], el)
		}
	}

	base := stats.Mean(samples[core.Baseline])
	fmt.Printf("%-12s %-10s %-12s %-8s\n", "strategy", "mean (s)", "normalized", "p90 (s)")
	for _, s := range strategies {
		m := stats.Mean(samples[s])
		cdf := stats.NewCDF(samples[s])
		fmt.Printf("%-12s %-10.3f %-12.3f %-8.3f\n", s, m, m/base, cdf.Quantile(0.9))
	}

	fmt.Println("\nbroadcast CDF (elapsed seconds at each percentile):")
	fmt.Printf("%-6s", "pct")
	for _, s := range strategies {
		fmt.Printf("%-12s", s)
	}
	fmt.Println()
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
		fmt.Printf("%-6.0f", q*100)
		for _, s := range strategies {
			fmt.Printf("%-12.3f", stats.NewCDF(samples[s]).Quantile(q))
		}
		fmt.Println()
	}
}
