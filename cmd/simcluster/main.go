// Command simcluster runs the paper's §V-E large-scale simulation
// standalone: a tree-structured data center (default 32 racks × 32
// servers = 1024 machines, as in the paper) with Poisson background
// traffic, a virtual cluster sampled from it, RPCA analysis of the
// measured temporal performance matrix, and a strategy comparison on live
// simulated collectives.
//
// Flags are checked before any work: an out-of-range size, count or
// traffic parameter is a usage error (exit 2); a failed analysis exits 1.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"netconstant/internal/cli"
	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/mapping"
	"netconstant/internal/mpi"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

func main() { os.Exit(run()) }

// maxMachines caps -racks × -servers at the largest fabric the simulator
// is benchmarked at (BENCH_sim.json), so a mistyped size is refused
// instead of building an unbounded tree.
const maxMachines = 1 << 17

// finitePositive reports whether a byte count can be simulated.
func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

func run() int {
	racks := flag.Int("racks", 32, "number of racks")
	perRack := flag.Int("servers", 32, "servers per rack")
	vms := flag.Int("vms", 32, "virtual cluster size")
	bgLinks := flag.Int("bg", 64, "background traffic sources")
	bgLambda := flag.Float64("lambda", 1, "background mean waiting time (s)")
	bgBytes := flag.Float64("bgmsg", 64<<20, "background message size (bytes)")
	hotRacks := flag.Int("hot", 16, "racks carrying background traffic (0 = all)")
	runs := flag.Int("runs", 20, "comparison repetitions")
	msg := flag.Float64("msg", 8<<20, "collective message size (bytes)")
	steps := flag.Int("steps", 10, "time step (TP-matrix rows)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	const cmd = "simcluster"
	if *racks < 1 || *perRack < 1 || *racks > maxMachines / *perRack {
		return cli.Usagef(cmd, "-racks and -servers must be ≥ 1 and give at most %d machines, got %d × %d", maxMachines, *racks, *perRack)
	}
	machines := *racks * *perRack
	switch {
	case *vms < 2 || *vms > machines:
		return cli.Usagef(cmd, "-vms must be between 2 and the %d machines, got %d", machines, *vms)
	case *steps < 1:
		return cli.Usagef(cmd, "-steps must be ≥ 1, got %d", *steps)
	case *runs < 1:
		return cli.Usagef(cmd, "-runs must be ≥ 1, got %d", *runs)
	case *bgLinks < 0:
		return cli.Usagef(cmd, "-bg must be ≥ 0, got %d", *bgLinks)
	case *hotRacks < 0 || *hotRacks > *racks:
		return cli.Usagef(cmd, "-hot must be between 0 and the %d racks, got %d", *racks, *hotRacks)
	case math.IsNaN(*bgLambda) || math.IsInf(*bgLambda, 1) || *bgLambda < 0:
		return cli.Usagef(cmd, "-lambda must be a finite number of seconds ≥ 0, got %v", *bgLambda)
	case !finitePositive(*bgBytes):
		return cli.Usagef(cmd, "-bgmsg must be a positive finite byte count, got %v", *bgBytes)
	case !finitePositive(*msg):
		return cli.Usagef(cmd, "-msg must be a positive finite byte count, got %v", *msg)
	}

	sc := cloud.NewSimCluster(cloud.SimClusterConfig{
		Tree: topo.TreeConfig{
			Racks:          *racks,
			ServersPerRack: *perRack,
			IntraRackBps:   1e9 / 8,
			InterRackBps:   2e9 / 8,
		},
		VMs:       *vms,
		Seed:      *seed,
		BgLinks:   *bgLinks,
		BgBytes:   *bgBytes,
		BgLambda:  *bgLambda,
		HotRacks:  *hotRacks,
		ProbeBulk: 1 << 20,
	})
	defer sc.StopBackground()

	fmt.Printf("simulated data center: %d machines (%d racks x %d servers), %d-VM cluster, %d background sources (λ=%.1fs, %.0f MB)\n",
		machines, *racks, *perRack, *vms, *bgLinks, *bgLambda, *bgBytes/(1<<20))

	rng := stats.NewRNG(*seed + 1)
	adv := core.NewAdvisor(sc, rng, core.AdvisorConfig{TimeStep: *steps})
	fmt.Printf("measuring %d all-link snapshots...\n", *steps)
	tc := cloud.SnapshotTP(sc, *steps, 5)
	if err := adv.AnalyzeCalibration(tc); err != nil {
		return cli.Failf(cmd, "%v", err)
	}
	fmt.Printf("Norm(N_E) = %.4f -> optimizations are %s\n\n", adv.NormE(), adv.Effectiveness())

	strategies := []core.Strategy{core.Baseline, core.TopologyAware, core.Heuristics, core.RPCA}
	sums := map[core.Strategy]map[string]float64{}
	for _, s := range strategies {
		sums[s] = map[string]float64{}
	}
	net := mpi.NewSimNetwork(sc.Sim, sc.Hosts)
	for r := 0; r < *runs; r++ {
		root := rng.Intn(*vms)
		task := mapping.RandomTaskGraph(rng, *vms, 0.1, 5<<20, 10<<20)
		snap := cloud.SnapshotTP(sc, 1, 0)
		snapPerf := core.PerfFromRows(*vms, snap.Latency.Matrix().Row(0), snap.Bandwidth.Matrix().Row(0))
		for _, s := range strategies {
			tree := adv.PlanTree(s, root, *msg, sc.Sim.Topo, sc.Hosts)
			sums[s]["broadcast"] += mpi.RunCollective(net, tree, mpi.Broadcast, *msg)
			sums[s]["scatter"] += mpi.RunCollective(net, tree, mpi.Scatter, *msg)
			var assign []int
			if guide := adv.GuidancePerf(s); guide != nil {
				assign = mapping.GreedyMap(task, mapping.MachineGraphFromPerf(guide))
			} else {
				assign = mapping.RingMapping(*vms)
			}
			mel, _ := mapping.Cost(task, assign, snapPerf)
			sums[s]["mapping"] += mel
		}
	}

	fmt.Printf("%-15s %-12s %-12s %-12s (normalized to Baseline; lower is better)\n", "strategy", "broadcast", "scatter", "mapping")
	for _, s := range strategies {
		fmt.Printf("%-15s", s)
		for _, app := range []string{"broadcast", "scatter", "mapping"} {
			fmt.Printf(" %-12.4f", sums[s][app]/sums[core.Baseline][app])
		}
		fmt.Println()
	}
	return cli.ExitOK
}
