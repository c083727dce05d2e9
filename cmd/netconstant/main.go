// Command netconstant is the interactive CLI for the library: it
// provisions a synthetic virtual cluster (or replays a recorded trace),
// calibrates the temporal performance matrix, runs the RPCA analysis, and
// prints the constant component, Norm(N_E), the effectiveness grade, and
// the communication trees each strategy would build.
//
// Subcommands:
//
//	advise   provision + calibrate + analyze + recommend (default)
//	record   record a performance trace of a synthetic cluster to a file
//	replay   analyze a recorded trace file
//	schedule print the paired calibration schedule for N machines
//	triangles analyze triangle-inequality violations of a cluster
//
// Flags are checked before any work: an out-of-range size, count, rate
// or index is a usage error (exit 2); a failed analysis exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"netconstant/internal/cli"
	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/faults"
	"netconstant/internal/mpi"
	"netconstant/internal/netcoord"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// The synthetic data center every subcommand provisions from: 16 racks
// of 16 servers, the daemon's default. -vms is capped at the server
// count, as the daemon caps a tenant's VMs.
const (
	racks          = 16
	serversPerRack = 16
	maxVMs         = racks * serversPerRack
)

// maxScheduleN caps schedule -n at the paper's largest cluster (§V-E's
// 1,024 machines); the schedule it prints grows as n².
const maxScheduleN = 1024

// maxTraceCells caps record's trace at 2^24 pair measurements
// (snapshots × VMs²), so a mistyped -hours or -interval is refused
// instead of recording without end.
const maxTraceCells = 1 << 24

func main() { os.Exit(run()) }

func run() int {
	sub, args := "advise", os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, args = args[0], args[1:]
	}
	switch sub {
	case "advise":
		return runAdvise(args)
	case "record":
		return runRecord(args)
	case "replay":
		return runReplay(args)
	case "schedule":
		return runSchedule(args)
	case "triangles":
		return runTriangles(args)
	}
	return cli.Usagef("netconstant", "unknown subcommand %q (want advise|record|replay|schedule|triangles)", sub)
}

// parse parses a subcommand's flags and returns cli.ExitOK, or the usage
// exit code for a positional argument. A malformed flag exits 2 inside
// flag itself.
func parse(fs *flag.FlagSet, args []string) int {
	fs.Parse(args)
	if fs.NArg() != 0 {
		return cli.Usagef(fs.Name(), "unexpected arguments %v", fs.Args())
	}
	return cli.ExitOK
}

// finitePositive reports whether a size or duration can be simulated.
func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// finiteNonNegative reports whether a start time or rate can be simulated.
func finiteNonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// probability reports whether p is a probability (NaN is not).
func probability(p float64) bool { return p >= 0 && p <= 1 }

// checkVMs range-checks a -vms flag against the data center and returns
// cli.ExitOK or the usage exit code.
func checkVMs(cmd string, vms, least int) int {
	if vms < least || vms > maxVMs {
		return cli.Usagef(cmd, "-vms must be between %d and the data center's %d servers, got %d", least, maxVMs, vms)
	}
	return cli.ExitOK
}

func provision(vms int, seed int64) (*cloud.Provider, *cloud.VirtualCluster, error) {
	p := cloud.NewProvider(cloud.ProviderConfig{
		Tree: topo.TreeConfig{Racks: racks, ServersPerRack: serversPerRack},
		Seed: seed,
	})
	vc, err := p.Provision(vms, seed+1)
	return p, vc, err
}

func runAdvise(args []string) int {
	const cmd = "netconstant advise"
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	vms := fs.Int("vms", 16, "virtual cluster size")
	seed := fs.Int64("seed", 1, "random seed")
	steps := fs.Int("steps", 10, "time step (TP-matrix rows)")
	msg := fs.Float64("msg", 8<<20, "message size in bytes for tree planning")
	root := fs.Int("root", 0, "collective root rank")
	probeLoss := fs.Float64("probe-loss", 0, "fault scenario: probability each probe is lost")
	heavyTail := fs.Float64("heavy-tail", 0, "fault scenario: probability of a heavy-tailed slow probe")
	stragglers := fs.Int("stragglers", 0, "fault scenario: number of persistently slow VMs")
	blackoutRack := fs.Bool("blackout-rack", false, "fault scenario: black out the first VM's rack")
	blackoutStart := fs.Float64("blackout-start", 0, "blackout start, seconds of cluster time")
	blackoutDur := fs.Float64("blackout-dur", 300, "blackout duration, seconds")
	churn := fs.Float64("churn", 0, "fault scenario: per-VM churn events per day")
	if code := parse(fs, args); code != cli.ExitOK {
		return code
	}
	if code := checkVMs(cmd, *vms, 2); code != cli.ExitOK {
		return code
	}
	switch {
	case *steps < 1:
		return cli.Usagef(cmd, "-steps must be ≥ 1, got %d", *steps)
	case !finitePositive(*msg):
		return cli.Usagef(cmd, "-msg must be a positive, finite byte count, got %v", *msg)
	case *root < 0 || *root >= *vms:
		return cli.Usagef(cmd, "-root must be a rank of the %d-VM cluster, got %d", *vms, *root)
	case !probability(*probeLoss) || !probability(*heavyTail):
		return cli.Usagef(cmd, "-probe-loss and -heavy-tail must be probabilities in [0, 1], got %v and %v", *probeLoss, *heavyTail)
	case *stragglers < 0 || *stragglers > *vms:
		return cli.Usagef(cmd, "-stragglers must be between 0 and the %d VMs, got %d", *vms, *stragglers)
	case !finiteNonNegative(*churn):
		return cli.Usagef(cmd, "-churn must be a finite rate ≥ 0, got %v", *churn)
	case !finiteNonNegative(*blackoutStart) || !finitePositive(*blackoutDur):
		return cli.Usagef(cmd, "-blackout-start must be finite and ≥ 0 and -blackout-dur finite and > 0, got %v and %v", *blackoutStart, *blackoutDur)
	}

	p, vc, err := provision(*vms, *seed)
	if err != nil {
		return cli.Failf(cmd, "%v", err)
	}
	rng := stats.NewRNG(*seed + 2)

	faulty := *probeLoss > 0 || *heavyTail > 0 || *stragglers > 0 || *blackoutRack || *churn > 0
	var cluster cloud.Cluster = vc
	var fc *faults.Cluster
	cfg := core.AdvisorConfig{TimeStep: *steps}
	if faulty {
		sc := faults.Scenario{
			Seed:          *seed + 3,
			ProbeLoss:     *probeLoss,
			HeavyTailProb: *heavyTail,
			Stragglers:    *stragglers,
			ChurnRate:     *churn,
		}
		if *blackoutRack {
			rack := p.Topo.Node(vc.Hosts[0]).Rack
			sc.Blackouts = []faults.Blackout{
				faults.RackBlackout(p.Topo, vc.Hosts, rack, *blackoutStart, *blackoutDur),
			}
		}
		fc = faults.Wrap(vc, sc)
		cluster = fc
		// Fault scenarios need the resilient calibration pipeline: retries,
		// MAD screening, and honest missing-cell masking.
		cfg.Calibration.Resilient = true
	}

	adv := core.NewAdvisor(cluster, rng, cfg)
	fmt.Printf("calibrating %d x all-link measurements on %d VMs...\n", *steps, *vms)
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		return cli.Failf(cmd, "%v", err)
	}
	if fc != nil {
		counts := fc.EventCounts()
		fmt.Printf("fault events:")
		for _, k := range []faults.EventKind{
			faults.EventProbeLoss, faults.EventHeavyTail,
			faults.EventBlackoutDrop, faults.EventChurnDrop,
		} {
			if counts[k] > 0 {
				fmt.Printf(" %s=%d", k, counts[k])
			}
		}
		fmt.Println()
	}
	report(adv, *msg, *root)
	return cli.ExitOK
}

func report(adv *core.Advisor, msg float64, root int) {
	fmt.Printf("calibration cost: %.1f s of cluster time\n", adv.CalibrationCost())
	fmt.Printf("Norm(N_E) = %.4f -> optimizations are %s\n", adv.NormE(), adv.Effectiveness())
	h := adv.Health()
	fmt.Printf("calibration health: coverage %.1f%%, mean quality %.2f, confidence %s\n",
		100*h.Coverage, h.MeanQuality, h.Confidence)
	if eff := adv.EffectiveStrategy(core.RPCA); eff != core.RPCA {
		fmt.Printf("degraded mode: RPCA guidance falls back to %s\n", eff)
	}
	con := adv.Constant()
	fmt.Println("\nconstant-component bandwidth (MB/s):")
	n := con.N
	maxShow := n
	if maxShow > 12 {
		maxShow = 12
	}
	for i := 0; i < maxShow; i++ {
		for j := 0; j < maxShow; j++ {
			if i == j {
				fmt.Printf("%7s", "-")
				continue
			}
			fmt.Printf("%7.1f", con.Bandwth.At(i, j)/1e6)
		}
		fmt.Println()
	}
	if maxShow < n {
		fmt.Printf("(... %dx%d matrix truncated)\n", n, n)
	}

	for _, s := range []core.Strategy{core.Baseline, core.Heuristics, core.RPCA} {
		tree := adv.PlanTree(s, root, msg, nil, nil)
		est := adv.ExpectedTime(tree, mpi.Broadcast, msg)
		fmt.Printf("\n%s broadcast tree (root %d, %.0f-byte msg): depth %d, expected %.4f s\n",
			s, root, msg, tree.Depth(), est)
	}
}

func runRecord(args []string) int {
	const cmd = "netconstant record"
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	vms := fs.Int("vms", 16, "virtual cluster size")
	seed := fs.Int64("seed", 1, "random seed")
	hours := fs.Float64("hours", 24, "trace duration in simulated hours")
	interval := fs.Float64("interval", 1800, "snapshot interval in seconds")
	out := fs.String("o", "trace.gob", "output file")
	if code := parse(fs, args); code != cli.ExitOK {
		return code
	}
	if code := checkVMs(cmd, *vms, 2); code != cli.ExitOK {
		return code
	}
	if !finitePositive(*hours) || !finitePositive(*interval) {
		return cli.Usagef(cmd, "-hours and -interval must be positive and finite, got %v and %v", *hours, *interval)
	}
	if cells := (math.Floor(*hours*3600 / *interval) + 1) * float64(*vms) * float64(*vms); cells > maxTraceCells {
		return cli.Usagef(cmd, "-hours %v at -interval %v records %.3g pair measurements of %d VMs, more than %d", *hours, *interval, cells, *vms, maxTraceCells)
	}

	_, vc, err := provision(*vms, *seed)
	if err != nil {
		return cli.Failf(cmd, "%v", err)
	}
	tr := cloud.Record(vc, *hours*3600, *interval)
	f, err := os.Create(*out)
	if err != nil {
		return cli.Failf(cmd, "%v", err)
	}
	if err := tr.Encode(f); err != nil {
		f.Close()
		return cli.Failf(cmd, "%v", err)
	}
	if err := f.Close(); err != nil {
		return cli.Failf(cmd, "%v", err)
	}
	fmt.Printf("recorded %d snapshots of a %d-VM cluster to %s\n", tr.Len(), *vms, *out)
	return cli.ExitOK
}

func runReplay(args []string) int {
	const cmd = "netconstant replay"
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	in := fs.String("i", "trace.gob", "trace file")
	steps := fs.Int("steps", 10, "time step (TP-matrix rows)")
	msg := fs.Float64("msg", 8<<20, "message size in bytes")
	root := fs.Int("root", 0, "collective root rank")
	seed := fs.Int64("seed", 1, "random seed")
	if code := parse(fs, args); code != cli.ExitOK {
		return code
	}
	switch {
	case *steps < 1:
		return cli.Usagef(cmd, "-steps must be ≥ 1, got %d", *steps)
	case !finitePositive(*msg):
		return cli.Usagef(cmd, "-msg must be a positive, finite byte count, got %v", *msg)
	case *root < 0:
		return cli.Usagef(cmd, "-root must be ≥ 0, got %d", *root)
	}

	f, err := os.Open(*in)
	if err != nil {
		return cli.Failf(cmd, "%v", err)
	}
	defer f.Close()
	tr, err := cloud.DecodeTrace(f)
	if err != nil {
		return cli.Failf(cmd, "%v", err)
	}
	// The trace decides the remaining ranges; the same flags can never
	// fit it, so these are usage errors too.
	if tr.Len() < *steps {
		return cli.Usagef(cmd, "-steps %d needs %d snapshots; %s has %d", *steps, *steps, *in, tr.Len())
	}
	if *root >= tr.N {
		return cli.Usagef(cmd, "-root must be a rank of the trace's %d-VM cluster, got %d", tr.N, *root)
	}
	rc := cloud.NewReplay(tr)
	adv := core.NewAdvisor(rc, stats.NewRNG(*seed), core.AdvisorConfig{TimeStep: *steps})
	tc := cloud.SnapshotTP(rc, *steps, 0)
	if err := adv.AnalyzeCalibrationCtx(context.Background(), tc); err != nil {
		return cli.Failf(cmd, "%v", err)
	}
	fmt.Printf("replaying %s: %d snapshots, %d VMs\n", *in, tr.Len(), tr.N)
	report(adv, *msg, *root)
	return cli.ExitOK
}

func runSchedule(args []string) int {
	const cmd = "netconstant schedule"
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	n := fs.Int("n", 8, "number of machines")
	if code := parse(fs, args); code != cli.ExitOK {
		return code
	}
	if *n < 2 || *n > maxScheduleN {
		return cli.Usagef(cmd, "-n must be between 2 and %d, got %d", maxScheduleN, *n)
	}
	rounds := cloud.PairSchedule(*n)
	fmt.Printf("paired calibration schedule for %d machines: %d rounds (sequential would need %d)\n",
		*n, len(rounds), *n*(*n-1))
	for i, round := range rounds {
		fmt.Printf("round %3d:", i)
		for _, pr := range round {
			fmt.Printf(" %d->%d", pr[0], pr[1])
		}
		fmt.Println()
	}
	return cli.ExitOK
}

// runTriangles quantifies the paper's §IV-B argument against network
// coordinates on a synthetic cluster: the fraction of triples whose
// transfer-time "distances" violate the triangle inequality.
func runTriangles(args []string) int {
	const cmd = "netconstant triangles"
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	vms := fs.Int("vms", 16, "virtual cluster size")
	seed := fs.Int64("seed", 1, "random seed")
	msg := fs.Float64("msg", 8<<20, "message size for the transfer-time metric")
	if code := parse(fs, args); code != cli.ExitOK {
		return code
	}
	if code := checkVMs(cmd, *vms, 3); code != cli.ExitOK {
		return code
	}
	if !finitePositive(*msg) {
		return cli.Usagef(cmd, "-msg must be a positive, finite byte count, got %v", *msg)
	}

	_, vc, err := provision(*vms, *seed)
	if err != nil {
		return cli.Failf(cmd, "%v", err)
	}
	vc.SetFreezeDynamics(true)
	w := vc.TruePerf().Weights(*msg)
	st := netcoord.AnalyzeTriangles(w)
	fmt.Printf("cluster of %d VMs, %0.f-byte transfer-time metric:\n", *vms, *msg)
	fmt.Printf("  triples checked:     %d\n", st.Triples)
	fmt.Printf("  violations:          %d (%.2f%%)\n", st.Violations, 100*st.Rate)
	fmt.Printf("  mean severity:       %.2f%%\n", 100*st.MeanSeverity)
	fmt.Printf("  worst violation:     d(%d,%d) exceeds the detour via %d by %.1f%%\n",
		st.Worst.I, st.Worst.K, st.Worst.J, 100*st.Worst.Severity)
	if st.Rate > 0.01 {
		fmt.Println("=> the pair-wise performance is not a metric space; coordinate embeddings (Vivaldi, GNP) cannot represent it (paper §IV-B)")
	}
	return cli.ExitOK
}
