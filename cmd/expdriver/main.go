// Command expdriver regenerates every table and figure of the paper's
// evaluation section and writes the results as text to stdout and,
// optionally, as a markdown report (EXPERIMENTS.md).
//
// Usage:
//
//	expdriver [-full] [-only fig7,fig13] [-md EXPERIMENTS.md] [-seed N]
//	          [-workers N] [-ckpt dir] [-resume dir]
//	          [-cpuprofile out.pprof] [-memprofile out.pprof]
//
// The default "quick" profile runs every experiment at reduced scale in
// well under a minute; -full uses the paper's scales (196 VMs, 1024-node
// simulation, 100 repetitions) and takes considerably longer.
//
// Sweep points fan out over -workers goroutines (default GOMAXPROCS);
// tables are byte-identical at any worker count. Calibration traces are
// memoized across figures: each is measured once on a seeded replica and
// replayed, so the memo saves time without changing a table.
//
// Crash safety: with -ckpt dir every completed sweep point and finished
// figure is journaled (fsynced, CRC-framed) into dir, so the process can
// be SIGKILLed at any moment and restarted with -resume dir — finished
// work replays from the journal and the final tables are byte-identical
// to an uninterrupted run, even at a different -workers setting.
// SIGINT/SIGTERM drain gracefully: in-flight sweep points finish and
// journal, partial outputs are written atomically, and the driver exits
// with status 130; a second signal force-quits immediately.
//
// Exit codes follow the repo-wide convention (internal/cli): 0 success,
// 1 runtime failure, 2 usage error, 130 interrupted.
//
// Fault-injection aids for supervisors and tests (mutually exclusive,
// each requires -ckpt or -resume): -crashafter N SIGKILLs the process
// after N journaled sweep points, -failafter N exits 1 (a persistent
// fatal failure), and -stallafter N SIGSTOPs the process so it stays
// alive but stops journaling (a wedged run).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"netconstant/internal/cancel"
	"netconstant/internal/checkpoint"
	"netconstant/internal/cli"
	"netconstant/internal/cloud"
	"netconstant/internal/exp"
)

func main() { os.Exit(run()) }

// run holds the whole driver so deferred profile writers and the
// checkpoint journal close before the process exits with the
// figure-level status code.
func run() int {
	full := flag.Bool("full", false, "run at the paper's scale (196 VMs, 100 reps; slow)")
	only := flag.String("only", "", "comma-separated figure list, e.g. fig7,fig13")
	md := flag.String("md", "", "also write a markdown report to this path (atomically)")
	jsonOut := flag.String("json", "", "also write machine-readable results (JSON lines) to this path (atomically)")
	seed := flag.Int64("seed", 1, "experiment seed")
	workers := flag.Int("workers", 0, "concurrent sweep points per figure (0 = GOMAXPROCS); results are byte-identical at any setting")
	ckptDir := flag.String("ckpt", "", "journal completed sweep points and figures into this directory (crash-safe; resume with -resume)")
	resume := flag.String("resume", "", "resume from this checkpoint directory (must hold a journal from a matching run)")
	crashAfter := flag.Int("crashafter", 0, "testing aid: SIGKILL the process after N journaled sweep points (requires -ckpt or -resume)")
	failAfter := flag.Int("failafter", 0, "testing aid: exit 1 after N journaled sweep points, simulating a persistent fatal failure (requires -ckpt or -resume)")
	stallAfter := flag.Int("stallafter", 0, "testing aid: SIGSTOP the process after N journaled sweep points, simulating a wedged run (requires -ckpt or -resume)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	flag.Parse()

	// Flag combinations that cannot be honored are usage errors, not
	// silently ignored knobs: a campaign supervisor (cmd/expfleet) keys
	// its retry policy on this distinction, and a human deserves it too.
	if *workers < 0 {
		return cli.Usagef("expdriver", "-workers must be ≥ 0, got %d", *workers)
	}
	if *crashAfter < 0 || *failAfter < 0 || *stallAfter < 0 {
		return cli.Usagef("expdriver", "-crashafter/-failafter/-stallafter must be ≥ 0")
	}
	if *ckptDir != "" && *resume != "" {
		return cli.Usagef("expdriver", "-ckpt and -resume are mutually exclusive: -resume already journals into its directory")
	}
	armed := 0
	for _, n := range []int{*crashAfter, *failAfter, *stallAfter} {
		if n > 0 {
			armed++
		}
	}
	if armed > 1 {
		return cli.Usagef("expdriver", "-crashafter, -failafter and -stallafter are mutually exclusive")
	}
	if armed == 1 && *ckptDir == "" && *resume == "" {
		return cli.Usagef("expdriver", "-crashafter/-failafter/-stallafter count journaled sweep points and require -ckpt or -resume")
	}

	cfg := exp.Quick()
	if *full {
		cfg = exp.Full()
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	// The driver is where wall-clock readings belong: inject the real
	// clock for the figures that report elapsed real time (Fig 4).
	cfg.Clock = time.Now
	cfg.Memo = cloud.NewCalibrationMemo(0)

	// Graceful shutdown: the first SIGINT/SIGTERM cancels the run context
	// (workers drain, in-flight points journal, partial outputs flush); a
	// second one force-quits.
	ctx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	cfg.Ctx = ctx
	defer cli.SignalDrain("expdriver", "draining in-flight sweep points", cancelRun)()

	dir := *ckptDir
	if *resume != "" {
		dir = *resume
		if _, err := os.Stat(filepath.Join(dir, exp.JournalName)); err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: -resume %s: no checkpoint journal there (%v)\n", dir, err)
			return cli.ExitUsage
		}
	}
	var ckpt *exp.Checkpoint
	if dir != "" {
		var err error
		ckpt, err = exp.OpenCheckpoint(dir, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: checkpoint %s: %v\n", dir, err)
			return cli.ExitFailure
		}
		defer ckpt.Close()
		cfg.Ckpt = ckpt
		if st := ckpt.Stats(); st.ResumedPoints > 0 || st.ResumedFigures > 0 {
			fmt.Fprintf(os.Stderr, "expdriver: resuming from %s: %d sweep points and %d figures journaled\n",
				dir, st.ResumedPoints, st.ResumedFigures)
		}
	}

	if *crashAfter > 0 || *failAfter > 0 || *stallAfter > 0 {
		crash, fail, stall := *crashAfter > 0, *failAfter > 0, *stallAfter > 0
		target := int64(*crashAfter + *failAfter + *stallAfter)
		var journaled atomic.Int64
		cfg.PointHook = func(string, int) {
			if journaled.Add(1) != target {
				return
			}
			switch {
			case crash:
				// Simulate a hard crash mid-run: SIGKILL ourselves right
				// after the Nth point hit the journal, then park this worker
				// so no further point can slip in before death.
				p, err := os.FindProcess(os.Getpid())
				if err == nil {
					p.Kill()
				}
				select {}
			case fail:
				// Simulate a persistent fatal failure: the Nth point is
				// durably journaled (Append fsyncs), so an immediate exit
				// loses nothing and every retry fails the same way.
				fmt.Fprintf(os.Stderr, "expdriver: -failafter %d reached — simulating a fatal failure\n", target)
				os.Exit(cli.ExitFailure)
			case stall:
				// Simulate a wedged process: stop the whole process while
				// staying alive, so liveness checks pass but the journal
				// freezes. A supervisor watching journal progress must
				// detect and kill it (SIGKILL works on stopped processes).
				fmt.Fprintf(os.Stderr, "expdriver: -stallafter %d reached — stopping (SIGSTOP)\n", target)
				syscall.Kill(os.Getpid(), syscall.SIGSTOP)
			}
		}
	}

	want := map[string]bool{}
	if *only != "" {
		figs := exp.Figures()
		valid := map[string]bool{}
		for _, fig := range figs {
			valid[fig.Name] = true
		}
		for _, n := range strings.Split(*only, ",") {
			n = strings.TrimSpace(n)
			if !valid[n] {
				names := make([]string, len(figs))
				for i, fig := range figs {
					names[i] = fig.Name
				}
				fmt.Fprintf(os.Stderr, "expdriver: unknown figure %q; valid figures: %s\n", n, strings.Join(names, ", "))
				return cli.ExitUsage
			}
			want[n] = true
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return cli.ExitFailure
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return cli.ExitFailure
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	var jsonLines []string
	var mdOut strings.Builder
	mdOut.WriteString("# EXPERIMENTS — paper vs measured\n\n")
	fmt.Fprintf(&mdOut, "Profile: quick=%v, VMs=%d, runs=%d, seed=%d. Generated by `cmd/expdriver`.\n\n",
		!*full, cfg.VMs, cfg.Runs, cfg.Seed)

	emit := func(tables []*exp.Table) {
		for _, t := range tables {
			fmt.Println(t.String())
			mdOut.WriteString(t.Markdown())
			if *jsonOut != "" {
				if line, err := t.JSON(); err == nil {
					jsonLines = append(jsonLines, string(line))
				}
			}
		}
	}

	// header prints a figure's "== " line: how it ran, then the readings
	// of real time its tables carry. Those vary by run, like the line
	// itself, so they stay out of the tables and the -json and -md reports.
	header := func(fig exp.Figure, how string, tables []*exp.Table) {
		for _, t := range tables {
			for _, w := range t.WallClock {
				how += "; " + w
			}
		}
		fmt.Printf("== %s: %s (%s)\n\n", fig.Name, fig.Desc, how)
	}

	exitCode := 0
	interrupted := false
	for _, fig := range exp.Figures() {
		if len(want) > 0 && !want[fig.Name] {
			continue
		}
		if tables, ok := ckpt.FigureTables(fig.Name); ok {
			header(fig, "replayed from checkpoint", tables)
			emit(tables)
			continue
		}
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		start := time.Now()
		tables, err := fig.Run(cfg)
		if err != nil {
			if errors.Is(err, cancel.ErrCanceled) {
				fmt.Fprintf(os.Stderr, "expdriver: %s: %v\n", fig.Name, err)
				interrupted = true
				break
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", fig.Name, err)
			exitCode = cli.ExitFailure
			continue
		}
		if ckpt != nil {
			if err := ckpt.RecordFigure(fig.Name, tables); err != nil {
				fmt.Fprintf(os.Stderr, "expdriver: checkpoint %s: %v\n", fig.Name, err)
				exitCode = cli.ExitFailure
			}
		}
		header(fig, fmt.Sprintf("%.1fs", time.Since(start).Seconds()), tables)
		emit(tables)
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "expdriver: interrupted — progress is journaled; partial outputs follow")
	}

	// Output files land atomically (write-temp → fsync → rename), so a
	// crash mid-write can never leave a torn report, and readers only ever
	// observe the previous or the new version.
	if *md != "" {
		if err := checkpoint.WriteFileAtomic(*md, []byte(mdOut.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exitCode = cli.ExitFailure
		}
	}
	if *jsonOut != "" {
		if err := checkpoint.WriteFileAtomic(*jsonOut, []byte(strings.Join(jsonLines, "\n")+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exitCode = cli.ExitFailure
		}
	}
	if interrupted {
		return cli.ExitInterrupted
	}
	return exitCode
}
