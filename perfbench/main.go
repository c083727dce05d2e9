// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload at a seed for a fixed time, checks every op's
// output, and prints as the last line of standard output one JSON object
// with the keys correct, attempted, failed and metrics:
//
//	bash perfbench/run.sh --workload advise --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (setup_s, tail_ms,
// ops_per_s, live_heap_mb). With --trace 1 the workload runs
// twice at the same seed, untraced and then traced, and the metrics are
// the per-layer ones; the untraced pass gives the allocation counts and
// the tracing overhead, and the traced pass must produce the same output
// digest.
//
// Load comes from one client goroutine per CPU in a closed loop: each
// client sends its next op only after the previous one completed, as a
// job launcher waits for its plan before it runs the collective.
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	advise       /advise reads against 4 calibrated 64-VM tenants
//	recalibrate  calibrate then advise on 32 32-VM tenants (RPCA, journal)
//	simulate     the §V-E snapshot → RPCA → plan → broadcast cycle, one
//	             fresh 1024-machine simulated cluster per op
package main

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"netconstant/internal/cli"
	"netconstant/internal/core"
	"netconstant/internal/stats"
)

// instance is one set-up workload: its state plus the op it runs.
type instance interface {
	// op runs op i of client c (op 0 is the client's warm-up, part of
	// set-up) and returns the bytes the output digest covers. A non-nil
	// error names the check the op failed. Spans are recorded on tr,
	// which is nil when the op is not traced.
	op(ctx context.Context, c, i int, tr *tracer) ([]byte, error)
	// layers returns the instance's per-layer counts (keys are metric
	// names) for the pass that just ended; ops counts its ops.
	layers(ctx context.Context, ops int) (map[string]float64, error)
	// close tears the instance down and reports anything it left behind.
	close() error
}

type workload struct {
	name string
	// tailQ is the fixed tail percentile: the highest rung of tailLadder
	// that had at least minBeyond samples beyond it and stayed steady
	// from seed to seed. advise (~200k ops a run) takes p95: its p99 has
	// thousands of samples beyond it but spread 18% over seven seeds,
	// against 4% for p95. recalibrate (~175 ops) takes p90 and simulate
	// (~55 ops) p75 by the ten-beyond rule alone.
	tailQ float64
	// prefix is how many timed ops per client enter the output digest and
	// the exact counts; every client runs at least this many.
	prefix int
	// clients caps the closed-loop clients (one per CPU otherwise).
	clients func(ncpu int) int
	setup   func(ctx context.Context, e env) (instance, error)
}

// env is what a workload's set-up receives.
type env struct {
	seed    int64
	clients int
	work    string // directory for on-disk state
	prefix  int    // the workload's prefix: ops 1..prefix are counted exactly
	traced  bool   // build the replicas the traced pass checks against
}

var workloads = []workload{
	{
		name:  "advise",
		tailQ: 0.95, prefix: 1000, clients: capClients(adviseTenants),
		setup: func(ctx context.Context, e env) (instance, error) { return setupDaemon(ctx, e, adviseCfg) },
	},
	{
		name:  "recalibrate",
		tailQ: 0.90, prefix: 8, clients: capClients(recalTenants),
		setup: func(ctx context.Context, e env) (instance, error) { return setupDaemon(ctx, e, recalCfg) },
	},
	{
		name:  "simulate",
		tailQ: 0.75, prefix: 4, clients: func(n int) int { return n },
		setup: func(ctx context.Context, e env) (instance, error) { return setupSimulate(ctx, e, fig13Cfg) },
	},
}

// capClients keeps every client owning at least one tenant.
func capClients(tenants int) func(int) int {
	return func(n int) int { return min(n, tenants) }
}

// setupRepeats is how many times an untraced run sets up; setup_s is
// their median, since a single set-up was the noisiest number measured.
const setupRepeats = 3

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: advise, recalibrate or simulate")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs and output digest")
	seconds := flag.Float64("seconds", 20, "timed seconds per pass")
	trace := flag.Int("trace", 0, "1 = print per-layer metrics from a traced re-run instead of end-to-end metrics")
	work := flag.String("work", ".bench_build/work", "directory for daemon journals (removed again per run)")
	spans := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	if flag.NArg() != 0 {
		return cli.Usagef("perfbench", "unexpected arguments %v", flag.Args())
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return cli.Usagef("perfbench", "unknown -workload %q (want advise, recalibrate or simulate)", *name)
	}
	if *seconds <= 0 || math.IsNaN(*seconds) || (*trace != 0 && *trace != 1) {
		return cli.Usagef("perfbench", "-seconds must be positive and -trace 0 or 1")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return cli.Failf("perfbench", "%v", err)
	}
	ctx := context.Background()
	e := env{seed: *seed, clients: w.clients(runtime.NumCPU()), work: *work, prefix: w.prefix}
	dur := time.Duration(*seconds * float64(time.Second))

	var res result
	var prov provenance
	var err error
	if *trace == 0 {
		res, prov, err = runEndToEnd(ctx, w, e, dur)
	} else {
		res, prov, err = runTraced(ctx, w, e, dur, *spans)
	}
	if err != nil {
		return cli.Failf("perfbench", "%s: %v", w.name, err)
	}
	prov.fill(w, e, *seconds, *trace)
	buf, err := json.Marshal(map[string]provenance{"provenance": prov})
	if err != nil {
		return cli.Failf("perfbench", "encode provenance: %v", err)
	}
	fmt.Println(string(buf))
	if buf, err = json.Marshal(res); err != nil {
		return cli.Failf("perfbench", "encode result: %v", err)
	}
	fmt.Println(string(buf))
	return cli.ExitOK
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance is printed with every run, on the line before the result.
type provenance struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Trace        int            `json:"trace"`
	Commit       string         `json:"commit"`
	SourceSHA256 string         `json:"source_sha256"`
	Go           string         `json:"go"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	NProc        int            `json:"nproc"`
	Clients      int            `json:"clients"`
	Digest       string         `json:"digest"`
	DigestOps    int            `json:"digest_ops_per_client"`
	TailQ        float64        `json:"tail_percentile,omitempty"`
	TailBeyond   int            `json:"tail_samples_beyond,omitempty"`
	TailRuleQ    float64        `json:"tail_rule_pick,omitempty"`
	N            map[string]int `json:"n"`
	FirstFailure string         `json:"first_failure,omitempty"`
}

func (p *provenance) fill(w *workload, e env, seconds float64, trace int) {
	p.Workload, p.Seed, p.Seconds, p.Trace = w.name, e.seed, seconds, trace
	p.Go, p.GOMAXPROCS, p.NProc, p.Clients = runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), e.clients
	p.DigestOps = w.prefix + 1
	p.Commit = "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			p.Commit = rev
			if modified == "true" {
				p.Commit += "+modified"
			}
		}
	}
	p.SourceSHA256 = sourceDigest()
}

// sourceDigest hashes the Go sources and module files under the working
// directory, skipping hidden directories and build output, so a run in
// a checkout without git history still names the code it measured.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pass is the outcome of one set-up plus timed phase.
type pass struct {
	setupS     []float64
	lat        []float64 // seconds per timed op, all clients
	attempted  int
	failed     int
	firstFail  error
	elapsed    float64 // timed seconds
	digest     string
	heapBytes  uint64 // live heap after a forced GC at the end of the timed phase
	mallocs    uint64 // over the timed phase
	allocBytes uint64
	layers     map[string]float64
}

func (p *pass) fail(err error) {
	p.failed++
	if p.firstFail == nil {
		p.firstFail = err
	}
}

// runPass sets the workload up `setups` times (closing all but the last),
// runs the timed closed loop on the last set-up, and tears it down.
func runPass(ctx context.Context, w *workload, e env, dur time.Duration, setups int, tr *tracer) (*pass, error) {
	p := &pass{}
	digests := make([]hash.Hash, e.clients)
	for c := range digests {
		digests[c] = sha256.New()
	}
	var inst instance
	for k := 0; k < setups; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				p.fail(fmt.Errorf("set-up %d teardown: %w", k, err))
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(ctx, e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		errs := make([]error, e.clients)
		outs := make([][]byte, e.clients)
		parallel(e.clients, func(c int) { outs[c], errs[c] = inst.op(ctx, c, 0, nil) })
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		for c, err := range errs {
			p.attempted++
			if err != nil {
				p.fail(fmt.Errorf("client %d warm-up: %w", c, err))
			}
			if k == setups-1 {
				digests[c].Write(outs[c])
			}
		}
	}

	lats := make([][]float64, e.clients)
	fails := make([][]error, e.clients)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(dur)
	parallel(e.clients, func(c int) {
		for i := 1; i <= w.prefix || time.Now().Before(deadline); i++ {
			t0 := time.Now()
			out, err := inst.op(ctx, c, i, tr)
			d := time.Since(t0).Seconds()
			if err != nil {
				fails[c] = append(fails[c], fmt.Errorf("client %d op %d: %w", c, i, err))
				continue
			}
			lats[c] = append(lats[c], d)
			if i <= w.prefix {
				digests[c].Write(out)
			}
		}
	})
	p.elapsed = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	p.allocBytes = after.TotalAlloc - before.TotalAlloc

	all := sha256.New()
	for c := 0; c < e.clients; c++ {
		p.lat = append(p.lat, lats[c]...)
		p.attempted += len(lats[c]) + len(fails[c])
		for _, err := range fails[c] {
			p.fail(err)
		}
		all.Write(digests[c].Sum(nil))
	}
	p.digest = hex.EncodeToString(all.Sum(nil))[:16]
	var err error
	if p.layers, err = inst.layers(ctx, p.attempted-(setups-1)*e.clients); err != nil {
		p.fail(fmt.Errorf("layer counts: %w", err))
	}

	// The latency buffers belong to the benchmark, not the program: drop
	// them from the live heap figure.
	sampleBytes := uint64(0)
	for c := range lats {
		sampleBytes += uint64(cap(lats[c])) * 8
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapBytes = ms.HeapAlloc - min(ms.HeapAlloc, sampleBytes)
	runtime.KeepAlive(lats)

	if err := inst.close(); err != nil {
		p.fail(fmt.Errorf("teardown: %w", err))
	}
	return p, nil
}

// parallel runs f(0..n-1) on n goroutines and waits for all of them.
func parallel(n int, f func(c int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for c := 0; c < n; c++ {
		go func(c int) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

func runEndToEnd(ctx context.Context, w *workload, e env, dur time.Duration) (result, provenance, error) {
	p, err := runPass(ctx, w, e, dur, setupRepeats, nil)
	if err != nil {
		return result{}, provenance{}, err
	}
	sorted := append([]float64(nil), p.lat...)
	sort.Float64s(sorted)
	completed := len(sorted)
	var prov provenance
	prov.Digest, prov.TailQ = p.digest, w.tailQ
	prov.N = map[string]int{"setup_s": len(p.setupS), "tail_ms": completed, "ops_per_s": completed, "live_heap_mb": 1}
	if p.firstFail != nil {
		prov.FirstFailure = p.firstFail.Error()
	}
	// With no completed op the run is incorrect; its latencies read 0.
	p50, tail := 0.0, 0.0
	if completed > 0 {
		p50, tail = stats.Quantile(sorted, 0.5), stats.Quantile(sorted, w.tailQ)
		prov.TailBeyond = beyond(sorted, tail)
		prov.TailRuleQ, _ = tailRule(sorted)
	}
	// The median is printed but not reported as a metric: op latency on
	// the daemon workloads has two modes (advise ~0.12 and ~0.19 ms;
	// recalibrate, RPCA that stops early and RPCA that runs to the
	// iteration cap) whose weights shift from run to run, and the median
	// sits between them. Over ten seeds it spread 19% on advise and 22%
	// on recalibrate while the tail stayed within 5%.
	m := map[string]metric{
		"setup_s":      {median(p.setupS), "s"},
		"tail_ms":      {tail * 1e3, "ms"},
		"ops_per_s":    {float64(completed) / p.elapsed, "1/s"},
		"live_heap_mb": {float64(p.heapBytes) / 1e6, "MB"},
	}
	fmt.Printf("%s seed %d: %d ops in %.2fs over %d clients, %d failed; setup %.3fs (median of %d); p50 %.4fms p%g %.4fms (%d beyond); digest %s\n",
		w.name, e.seed, p.attempted, p.elapsed, e.clients, p.failed, median(p.setupS), len(p.setupS),
		p50*1e3, 100*w.tailQ, m["tail_ms"].Value, prov.TailBeyond, p.digest)
	return result{Correct: p.failed == 0 && completed > 0, Attempted: p.attempted, Failed: p.failed, Metrics: m}, prov, nil
}

func runTraced(ctx context.Context, w *workload, e env, dur time.Duration, spanDir string) (result, provenance, error) {
	plain, err := runPass(ctx, w, e, dur, 1, nil)
	if err != nil {
		return result{}, provenance{}, err
	}
	tr := newTracer(e.clients)
	e.traced = true
	traced, err := runPass(ctx, w, e, dur, 1, tr)
	if err != nil {
		return result{}, provenance{}, err
	}
	sum := tr.summarize()
	sum.breakdown()

	var prov provenance
	prov.Digest = traced.digest
	prov.N = map[string]int{"traced_ops": sum.ops, "untraced_ops": len(plain.lat)}
	failed := plain.failed + traced.failed
	firstFail := cmp.Or(plain.firstFail, traced.firstFail)
	if plain.digest != traced.digest {
		failed++
		firstFail = cmp.Or(firstFail, fmt.Errorf("traced digest %s differs from untraced %s", traced.digest, plain.digest))
	}
	if firstFail != nil {
		prov.FirstFailure = firstFail.Error()
	}

	m := map[string]metric{}
	for _, sm := range spanMetrics {
		st := sum.byName[sm.span]
		if sm.perOp {
			m[sm.name] = metric{sum.selfPerOp(sm.span, sm.scale), sm.unit}
			prov.N[sm.name] = sum.ops
			continue
		}
		m[sm.name] = metric{sum.meanDur(sm.span, sm.scale), sm.unit}
		if st != nil {
			prov.N[sm.name] = st.calls
		}
	}
	plainOps := float64(max(len(plain.lat), 1))
	m["allocs_per_op"] = metric{float64(plain.mallocs) / plainOps, "count"}
	m["alloc_kb_per_op"] = metric{float64(plain.allocBytes) / plainOps / 1e3, "KB"}
	m["trace.gap_share"] = metric{0, "share"}
	m["trace.overhead_share"] = metric{0, "share"}
	if sum.wall > 0 {
		m["trace.gap_share"] = metric{float64(sum.gap) / float64(sum.wall), "share"}
	}
	if len(plain.lat) > 0 && sum.ops > 0 {
		plainMean := stats.Mean(plain.lat)
		tracedMean := float64(sum.wall) / float64(sum.ops) / 1e9
		m["trace.overhead_share"] = metric{tracedMean/plainMean - 1, "share"}
	}
	for _, k := range layerCountKeys {
		m[k.name] = metric{traced.layers[k.name], k.unit}
	}

	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return result{}, provenance{}, err
	}
	path := filepath.Join(spanDir, w.name+".jsonl")
	if err := tr.write(path); err != nil {
		return result{}, provenance{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("%s seed %d: traced %d ops, untraced %d; digest %s (untraced %s); spans in %s\n",
		w.name, e.seed, sum.ops, len(plain.lat), traced.digest, plain.digest, path)
	return result{Correct: failed == 0 && sum.ops > 0, Attempted: plain.attempted + traced.attempted, Failed: failed, Metrics: m}, prov, nil
}

// spanMetrics are the per-layer metrics read off the spans: the mean
// duration of one call of a layer's public function, or, for perOp, the
// span's self time per op. ServeHTTP's self time is the serve layer's
// own work — mux, JSON, admission, the shard hop, the journal call and,
// on recalibrate, the memo bookkeeping and tenant clock advance — plus
// any difference between the daemon's and the replica's timing of the
// same layer calls. The root span's self time is the client's: building
// requests, decoding and checking responses.
var spanMetrics = []struct {
	name, span, unit string
	scale            time.Duration
	perOp            bool
}{
	{"serve.self_us", "serve.ServeHTTP", "us", time.Microsecond, true},
	{"client.self_us", "op", "us", time.Microsecond, true},
	{"netmodel.weights_us", "netmodel.Weights", "us", time.Microsecond, false},
	{"mpi.fnf_us", "mpi.FNFTree", "us", time.Microsecond, false},
	{"mpi.bcast_est_us", "mpi.RunCollective/analytic", "us", time.Microsecond, false},
	{"mpi.bcast_sim_ms", "mpi.RunCollective/sim", "ms", time.Millisecond, false},
	{"core.analyze_ms", "core.AnalyzeCalibration", "ms", time.Millisecond, false},
	{"core.plan_us", "core.PlanTree", "us", time.Microsecond, false},
	{"rpca.solve_ms", "rpca.DecomposeTP", "ms", time.Millisecond, false},
	{"cloud.probe_ms", "cloud.CalibrateTP", "ms", time.Millisecond, false},
	{"checkpoint.append_us", "checkpoint.Append", "us", time.Microsecond, false},
	{"simnet.pingpong_us", "simnet.PairPerf", "us", time.Microsecond, false},
	{"simnet.advance_ms", "simnet.AdvanceTime", "ms", time.Millisecond, false},
}

// layerCountKeys are the per-layer metrics an instance counts itself
// (every workload reports every key; a layer a workload never calls
// reports 0).
var layerCountKeys = []struct{ name, unit string }{
	{"serve.queue_max", "count"},
	{"serve.shed", "count"},
	{"rpca.iters", "count"},
	{"rpca.converged_share", "share"},
	{"rpca.svt_full", "count"},
	{"rpca.svt_truncated", "count"},
	{"cloud.memo_hits", "count/op"},
	{"cloud.memo_misses", "count/op"},
	{"checkpoint.journal_kb", "KB"},
	{"checkpoint.record_bytes", "bytes"},
	{"simnet.sim_s_per_op", "s"},
}

var errLeftBehind = errors.New("left behind after teardown")

// counts are a client's own per-layer counts. The solver and simulator
// counts are taken over its ops 1..prefix, which every run at a seed
// completes identically, so they repeat exactly.
type counts struct {
	solves, iters, converged, svtFull, svtTrunc int
	simSeconds                                  float64
	simOps                                      int
	recordBytes                                 int64
	queueMax                                    int
}

func (c *counts) solve(d *core.Decomposition, full, trunc int) {
	c.solves++
	c.iters += d.Iterations
	if d.Converged {
		c.converged++
	}
	c.svtFull += full
	c.svtTrunc += trunc
}

func (c *counts) add(o counts) {
	c.solves += o.solves
	c.iters += o.iters
	c.converged += o.converged
	c.svtFull += o.svtFull
	c.svtTrunc += o.svtTrunc
	c.simSeconds += o.simSeconds
	c.simOps += o.simOps
	c.recordBytes = max(c.recordBytes, o.recordBytes)
	c.queueMax = max(c.queueMax, o.queueMax)
}

// metrics maps the counts onto layerCountKeys (per solve and per op).
func (c counts) metrics() map[string]float64 {
	m := map[string]float64{
		"checkpoint.record_bytes": float64(c.recordBytes),
		"serve.queue_max":         float64(c.queueMax),
	}
	if c.solves > 0 {
		n := float64(c.solves)
		m["rpca.iters"] = float64(c.iters) / n
		m["rpca.converged_share"] = float64(c.converged) / n
		m["rpca.svt_full"] = float64(c.svtFull) / n
		m["rpca.svt_truncated"] = float64(c.svtTrunc) / n
	}
	if c.simOps > 0 {
		m["simnet.sim_s_per_op"] = c.simSeconds / float64(c.simOps)
	}
	return m
}
