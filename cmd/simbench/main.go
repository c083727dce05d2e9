// Command simbench times the component-sharded max-min fill on a large
// ECMP fabric and merges the result into BENCH_sim.json as a
// sim_<topo>_<machines> entry: build an ECMP Clos or fat-tree at
// -machines scale, warm up background traffic, measure per-event-step
// latency, then time whole-network refills.
//
// Refills are semantic no-ops, so the run fails (exit 1) if any refill
// moves the rate fingerprint, or if the refilled rates differ by a
// single bit from a fresh whole-network reference fill. The reference
// fill is quadratic, so that check is skipped above 32,768 machines.
//
// Usage:
//
//	simbench [-topo clos|fattree] [-machines N] [-reps N] [-out BENCH_sim.json]
//
// The mat worker pool runs at GOMAXPROCS; every entry records
// GOMAXPROCS and the host's CPU count next to its timings.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"netconstant/internal/cli"
	"netconstant/internal/cloud"
	"netconstant/internal/topo"
)

// fabricReport is one large-fabric sweep entry (sim_<topo>_<machines>).
type fabricReport struct {
	Topo        string  `json:"topo"`
	Machines    int     `json:"machines"`
	Nodes       int     `json:"nodes"`
	Links       int     `json:"links"`
	BgSources   int     `json:"bg_sources"`
	ActiveFlows int     `json:"active_flows"`
	PairsTotal  int     `json:"ecmp_pairs"`
	PairsMulti  int     `json:"ecmp_multipath_pairs"`
	Components  int     `json:"refill_components"`
	GoMaxProcs  int     `json:"gomaxprocs"` // mat worker-pool size
	NProc       int     `json:"nproc"`
	Reps        int     `json:"reps"`
	BuildSec    float64 `json:"build_s"`
	WarmupSec   float64 `json:"warmup_s"`
	Steps       int     `json:"steps"`
	StepSec     float64 `json:"per_step_s"`
	RefillSec   float64 `json:"refill_s"` // best of reps
	Verified    bool    `json:"verified_vs_global"`
	TotalSec    float64 `json:"total_s"`
}

// verifyMaxMachines is the largest fabric checked against the quadratic
// whole-network reference fill.
const verifyMaxMachines = 32768

// timeBest runs fn reps times and returns the best wall-clock seconds —
// the standard way to suppress scheduler noise on shared machines. A
// cancelled context stops between repetitions (timings from an
// interrupted run are never reported anyway).
func timeBest(ctx context.Context, reps int, fn func()) float64 {
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		if ctx.Err() != nil {
			break
		}
		start := time.Now()
		fn()
		if d := time.Since(start).Seconds(); d < best {
			best = d
		}
	}
	return best
}

// mergeReport merges the given keys into the JSON object at path (other
// keys are preserved), so entries from several runs share one
// BENCH_sim.json.
func mergeReport(path string, set map[string]any) error {
	obj := map[string]json.RawMessage{}
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &obj); err != nil {
			return fmt.Errorf("existing %s is not a JSON object: %w", path, err)
		}
	}
	for k, v := range set {
		raw, err := json.Marshal(v)
		if err != nil {
			return err
		}
		obj[k] = raw
	}
	buf, err := json.MarshalIndent(obj, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// buildFabric constructs the benchmark fabric for -topo at -machines
// scale.
func buildFabric(kind string, machines int) (*topo.Topology, error) {
	switch kind {
	case "clos":
		return topo.NewClosE(topo.ClosShape(machines))
	case "fattree":
		// Smallest even arity whose k³/4 servers cover the request.
		k := 4
		for k*k*k/4 < machines {
			k += 2
		}
		return topo.NewFatTreeE(topo.FatTreeConfig{K: k, LinkBps: 1e9 / 8, HopLatency: 50e-6})
	}
	return nil, fmt.Errorf("unknown fabric %q", kind)
}

// runFabric is the large-fabric sweep: build, warm up background
// traffic, measure per-event-step latency, then time whole-network
// refills and check they leave every rate bit unchanged.
func runFabric(ctx context.Context, kind string, machines, reps int) (fabricReport, error) {
	fr := fabricReport{Topo: kind, Machines: machines, Reps: reps,
		GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU()}
	totalStart := time.Now()

	buildStart := time.Now()
	fabric, err := buildFabric(kind, machines)
	if err != nil {
		return fr, err
	}
	fr.Nodes, fr.Links = fabric.NumNodes(), fabric.NumLinks()
	bgSources := machines / 16
	if bgSources < 4 {
		bgSources = 4
	}
	fr.BgSources = bgSources
	vms := 16
	sc := cloud.NewSimCluster(cloud.SimClusterConfig{
		Topo:      fabric,
		VMs:       vms,
		Seed:      42,
		BgLinks:   bgSources,
		BgBytes:   32 << 20,
		BgLambda:  1,
		ProbeBulk: 1 << 20,
	})
	defer sc.StopBackground()
	fr.BuildSec = time.Since(buildStart).Seconds()

	// Steady state: every source has routed its pair (ECMP) and sent at
	// least one message.
	warmStart := time.Now()
	sc.AdvanceTime(2)
	fr.WarmupSec = time.Since(warmStart).Seconds()
	s := sc.Sim
	fr.PairsTotal, fr.PairsMulti = s.ECMPPairs()

	// Per-event-step latency: arrivals and departures with their
	// incremental recomputes, on the live fabric.
	steps := 2000
	stepStart := time.Now()
	n := 0
	for ; n < steps && ctx.Err() == nil; n++ {
		if !s.Eng.Step() {
			break
		}
	}
	fr.Steps = n
	if n > 0 {
		fr.StepSec = time.Since(stepStart).Seconds() / float64(n)
	}
	fr.ActiveFlows = s.ActiveFlows()

	// Whole-network refills are semantic no-ops, so they can be repeated
	// for timing without perturbing the simulation; the fingerprint must
	// not move.
	before := s.RateFingerprint()
	fr.RefillSec = timeBest(ctx, reps, func() { fr.Components, _ = s.RefillAll() })
	if after := s.RateFingerprint(); after != before {
		return fr, fmt.Errorf("refill moved the rate fingerprint: %#x -> %#x", before, after)
	}
	// Bit-exact differential against the whole-network reference fill.
	if machines <= verifyMaxMachines {
		s.SetVerifyGlobal(true)
		s.RefillAll()
		s.SetVerifyGlobal(false)
		if err := s.VerifyError(); err != nil {
			return fr, fmt.Errorf("sharded fill diverged from global reference: %w", err)
		}
		fr.Verified = true
	}
	fr.TotalSec = time.Since(totalStart).Seconds()
	return fr, nil
}

func main() { os.Exit(run()) }

func run() int {
	reps := flag.Int("reps", 2, "repetitions per timing (best-of)")
	out := flag.String("out", "BENCH_sim.json", "report path")
	topoKind := flag.String("topo", "clos", "benchmark fabric: clos or fattree")
	machines := flag.Int("machines", 4096, "fabric scale (servers)")
	flag.Parse()
	if *topoKind != "clos" && *topoKind != "fattree" {
		return cli.Usagef("simbench", "-topo must be clos or fattree, got %q", *topoKind)
	}
	if *reps < 1 || *machines < 1 {
		return cli.Usagef("simbench", "-reps and -machines must be ≥ 1")
	}

	// First SIGINT/SIGTERM: finish the current repetition, then exit 130
	// without writing a report (partial timings would be misleading).
	// Second signal: force quit.
	ctx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	defer cli.SignalDrain("simbench", "finishing the current repetition", cancelRun)()

	fr, err := runFabric(ctx, *topoKind, *machines, *reps)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "simbench: interrupted — no report written")
		return cli.ExitInterrupted
	}
	if err != nil {
		return cli.Failf("simbench", "%v", err)
	}
	key := fmt.Sprintf("sim_%s_%d", *topoKind, *machines)
	if err := mergeReport(*out, map[string]any{key: fr}); err != nil {
		return cli.Failf("simbench", "%v", err)
	}
	fmt.Printf("%s %d machines (%d nodes, %d links): %d ECMP pairs (%d multipath), %d bg sources, %d active flows\n",
		*topoKind, fr.Machines, fr.Nodes, fr.Links, fr.PairsTotal, fr.PairsMulti, fr.BgSources, fr.ActiveFlows)
	fmt.Printf("  build %.2fs, warmup %.2fs, %.1fµs/step over %d steps\n",
		fr.BuildSec, fr.WarmupSec, fr.StepSec*1e6, fr.Steps)
	fmt.Printf("  refill (%d components, GOMAXPROCS %d of %d CPUs): %.3fms, verified=%v\n",
		fr.Components, fr.GoMaxProcs, fr.NProc, fr.RefillSec*1e3, fr.Verified)
	fmt.Printf("wrote %s (%s)\n", *out, key)
	return cli.ExitOK
}
