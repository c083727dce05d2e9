package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"netconstant/internal/cancel"
	"netconstant/internal/checkpoint"
	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/exp"
	"netconstant/internal/faults"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// Failure is one oracle violation: an invariant the system under fault
// broke, with enough detail to understand the report without rerunning.
type Failure struct {
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
}

func (f Failure) String() string { return f.Oracle + ": " + f.Detail }

func failf(oracle, format string, args ...any) Failure {
	return Failure{Oracle: oracle, Detail: fmt.Sprintf(format, args...)}
}

// RunOracles checks every invariant oracle against one plan and returns
// the violations (nil when the system held up). The oracle families:
//
//   - journal: damaged journals (truncation, bit flips, zeroed ranges,
//     duplicated frames) must recover to a verbatim record prefix or
//     fail with a typed *checkpoint.CorruptError — never panic, never
//     return wrong records — and a recovered journal must accept new
//     appends.
//   - resume: a checkpointed sweep interrupted at the plan's kill point
//     and resumed must render byte-identical tables to a fresh run.
//   - health: resilient calibration under the plan's fault scenario must
//     keep Norm(N_E) finite, grade a health within range, honor the
//     confidence→strategy fallback ladder, and be bit-for-bit
//     deterministic across identical runs.
//   - stream: a streaming session fed seeded pair re-measurements must
//     serve the regime trigger with a partial re-solve, never a full
//     calibration, that installs bit for bit the constant and Norm(N_E)
//     core.DecomposeTP gives on the edited calibration, and be
//     bit-for-bit deterministic across identical runs.
//   - clos: on a random ECMP Clos fabric, the component-sharded max-min
//     fill must stay bitwise equal to a whole-network reference fill,
//     byte-identical across two replays, satisfy the max-min
//     invariants, and agree with a bottleneck-structure fill within
//     1e-9 relative.
func RunOracles(p Plan) []Failure {
	var fails []Failure
	fails = append(fails, oracleJournal(p)...)
	fails = append(fails, oracleResume(p)...)
	fails = append(fails, oracleHealth(p)...)
	fails = append(fails, oracleStream(p)...)
	fails = append(fails, oracleClos(p)...)
	return fails
}

// guard runs fn, converting a panic into an oracle failure; chaos
// campaigns must report a panic as a finding, not die on it.
func guard(oracle string, fails *[]Failure, fn func()) {
	defer func() {
		if r := recover(); r != nil {
			*fails = append(*fails, failf(oracle, "panic: %v", r))
		}
	}()
	fn()
}

// --- Oracle 1: journal damage round-trip -------------------------------

// journalRecords is how many seeded records the damage oracle journals
// before attacking the file.
const journalRecords = 10

func oracleJournal(p Plan) (fails []Failure) {
	const oracle = "journal"
	dir, err := os.MkdirTemp("", "chaos-journal-")
	if err != nil {
		return []Failure{failf(oracle, "mkdtemp: %v", err)}
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "journal.nclog")

	// Seed a journal with records of varied sizes.
	rng := stats.NewRNG(p.Seed ^ 0x6a09e667)
	j, err := checkpoint.Create(path)
	if err != nil {
		return []Failure{failf(oracle, "create: %v", err)}
	}
	orig := make([][]byte, journalRecords)
	for i := range orig {
		rec := make([]byte, 1+rng.Intn(600))
		rng.Read(rec)
		orig[i] = rec
		if err := j.Append(rec); err != nil {
			j.Close()
			return []Failure{failf(oracle, "append %d: %v", i, err)}
		}
	}
	if err := j.Close(); err != nil {
		return []Failure{failf(oracle, "close: %v", err)}
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		return []Failure{failf(oracle, "read back: %v", err)}
	}
	lastFrame := 8 + len(orig[len(orig)-1]) // [len u32][crc u32][payload]

	for _, op := range p.damageOps() {
		reps := op.N
		if reps < 1 {
			reps = 1
		}
		for r := 0; r < reps; r++ {
			data := damage(append([]byte(nil), pristine...), op.Kind, rng, lastFrame)
			guard(oracle, &fails, func() {
				fails = append(fails, checkDamaged(path, data, op.Kind, orig)...)
			})
		}
	}
	return fails
}

// damage applies one seeded corruption of the given kind to data.
// lastFrame is the byte length of the final record's frame (needed to
// duplicate it verbatim).
func damage(data []byte, kind string, rng *rand.Rand, lastFrame int) []byte {
	switch kind {
	case OpTruncate:
		return data[:rng.Intn(len(data))]
	case OpBitFlip:
		pos := rng.Intn(len(data))
		data[pos] ^= 1 << rng.Intn(8)
		return data
	case OpZeroFill:
		start := rng.Intn(len(data))
		end := start + 1 + rng.Intn(64)
		if end > len(data) {
			end = len(data)
		}
		for i := start; i < end; i++ {
			data[i] = 0
		}
		return data
	case OpDupeRecord:
		return append(data, data[len(data)-lastFrame:]...)
	default:
		return data
	}
}

// checkDamaged writes the damaged image and asserts the recovery
// contract: replay either fails typed or yields a verbatim prefix of
// the original records (duplicated-final-frame extras excepted), and a
// successfully recovered journal accepts and persists a fresh append.
func checkDamaged(path string, data []byte, kind string, orig [][]byte) (fails []Failure) {
	const oracle = "journal"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return []Failure{failf(oracle, "write damaged image: %v", err)}
	}
	rec, err := checkpoint.Replay(path)
	if err != nil {
		if !errors.Is(err, checkpoint.ErrCorrupt) {
			fails = append(fails, failf(oracle, "%s: untyped replay error: %v", kind, err))
		}
		return fails // typed refusal is a correct outcome
	}
	last := orig[len(orig)-1]
	for i, got := range rec.Records {
		want := last // extras past the original count may only be copies of the final record (the dupe case)
		if i < len(orig) {
			want = orig[i]
		}
		if !bytes.Equal(got, want) {
			fails = append(fails, failf(oracle, "%s: recovered record %d is not a verbatim prefix (got %d bytes, want %d)",
				kind, i, len(got), len(want)))
			return fails
		}
	}
	if len(rec.Records) > len(orig) && kind != OpDupeRecord {
		fails = append(fails, failf(oracle, "%s: recovery invented %d extra records", kind, len(rec.Records)-len(orig)))
	}

	// A journal that replays must also reopen and extend: append one
	// probe record and replay again.
	j, reopen, err := checkpoint.Open(path)
	if err != nil {
		fails = append(fails, failf(oracle, "%s: replay succeeded but reopen failed: %v", kind, err))
		return fails
	}
	if len(reopen.Records) != len(rec.Records) {
		fails = append(fails, failf(oracle, "%s: open recovered %d records, replay %d", kind, len(reopen.Records), len(rec.Records)))
	}
	probe := []byte("chaos-probe-record")
	if err := j.Append(probe); err != nil {
		j.Close()
		fails = append(fails, failf(oracle, "%s: append after recovery: %v", kind, err))
		return fails
	}
	if err := j.Close(); err != nil {
		fails = append(fails, failf(oracle, "%s: close after recovery: %v", kind, err))
		return fails
	}
	after, err := checkpoint.Replay(path)
	if err != nil {
		fails = append(fails, failf(oracle, "%s: replay after recovery+append: %v", kind, err))
		return fails
	}
	if n := len(after.Records); n != len(rec.Records)+1 || !bytes.Equal(after.Records[n-1], probe) {
		fails = append(fails, failf(oracle, "%s: append after recovery not persisted (%d records, want %d)",
			kind, n, len(rec.Records)+1))
	}
	return fails
}

// --- Oracle 2: resume equals fresh -------------------------------------

// oracleResume runs a small checkpointed Fig 7 sweep, interrupts it at
// the plan's kill point, resumes from the journal at a different worker
// count, and requires the resumed tables to be byte-identical to an
// uninterrupted run's.
func oracleResume(p Plan) (fails []Failure) {
	const oracle = "resume"
	guard(oracle, &fails, func() {
		cfg := exp.Quick()
		cfg.Seed = p.Seed
		cfg.Runs = 6
		cfg.VMs = 8
		cfg.SmallVMs = 4

		fresh := cfg
		fresh.Workers = 2
		want, err := exp.Fig7Overall(fresh)
		if err != nil {
			fails = append(fails, failf(oracle, "fresh run: %v", err))
			return
		}

		dir, err := os.MkdirTemp("", "chaos-resume-")
		if err != nil {
			fails = append(fails, failf(oracle, "mkdtemp: %v", err))
			return
		}
		defer os.RemoveAll(dir)

		// Interrupted run: cancel once the kill point has journaled. With
		// several workers in flight the sweep may drain to completion
		// anyway — that is fine; the contract under test is that whatever
		// progress was journaled resumes to identical bytes.
		kill := int64(p.KillPoint(cfg.Runs - 1))
		interrupted := cfg
		interrupted.Workers = 4
		ctx, stop := context.WithCancel(context.Background())
		defer stop()
		interrupted.Ctx = ctx
		var done atomic.Int64
		interrupted.PointHook = func(string, int) {
			if done.Add(1) == kill {
				stop()
			}
		}
		ck, err := exp.OpenCheckpoint(dir, cfg)
		if err != nil {
			fails = append(fails, failf(oracle, "open checkpoint: %v", err))
			return
		}
		interrupted.Ckpt = ck
		if _, err := exp.Fig7Overall(interrupted); err != nil && !errors.Is(err, cancel.ErrCanceled) {
			ck.Close()
			fails = append(fails, failf(oracle, "interrupted run failed untyped: %v", err))
			return
		}
		if err := ck.Close(); err != nil {
			fails = append(fails, failf(oracle, "close checkpoint: %v", err))
			return
		}

		// Resume at a different worker count from the same journal.
		resumed := cfg
		resumed.Workers = 1
		ck2, err := exp.OpenCheckpoint(dir, cfg)
		if err != nil {
			fails = append(fails, failf(oracle, "reopen checkpoint: %v", err))
			return
		}
		defer ck2.Close()
		if ck2.Stats().ResumedPoints < int(kill) {
			fails = append(fails, failf(oracle, "journal lost progress: %d points resumed, want ≥ %d",
				ck2.Stats().ResumedPoints, kill))
		}
		resumed.Ckpt = ck2
		got, err := exp.Fig7Overall(resumed)
		if err != nil {
			fails = append(fails, failf(oracle, "resumed run: %v", err))
			return
		}
		if got.Table.String() != want.Table.String() || got.CDFTable.String() != want.CDFTable.String() {
			fails = append(fails, failf(oracle, "resumed tables differ from fresh (kill point %d)", kill))
		}
	})
	return fails
}

// --- Oracle 3: calibration-health ladder under faults ------------------

// healthObs captures one faulted calibration run bit-for-bit, so two
// identically seeded runs can be compared exactly.
type healthObs struct {
	Err        string
	NormEBits  uint64
	CovBits    uint64
	QualBits   uint64
	Confidence string
	Strategy   string
	Events     string
}

// oracleHealth provisions a small cluster, wraps it in the plan's fault
// scenario, runs the resilient calibration pipeline, and checks the
// degradation contract: health stays in range, Norm(N_E) stays finite,
// the advisor's effective strategy follows the confidence fallback
// ladder, guidance still plans a usable tree — and the whole run is
// bit-for-bit deterministic.
func oracleHealth(p Plan) (fails []Failure) {
	const oracle = "health"
	guard(oracle, &fails, func() {
		// The ladder itself must be monotone in confidence: more
		// confidence can never select a *less* capable strategy.
		rank := map[core.Strategy]int{core.Baseline: 0, core.Heuristics: 1, core.RPCA: 2}
		prev := -1
		for c := core.ConfidenceNone; c <= core.ConfidenceHigh; c++ {
			r := rank[core.FallbackStrategy(core.RPCA, c)]
			if r < prev {
				fails = append(fails, failf(oracle, "fallback ladder not monotone at confidence %v", c))
			}
			prev = r
		}

		first, ffail := faultedCalibration(p)
		fails = append(fails, ffail...)
		if first.Err == "" {
			second, sfail := faultedCalibration(p)
			fails = append(fails, sfail...)
			if first != second {
				fails = append(fails, failf(oracle, "nondeterministic under faults:\n  run 1: %+v\n  run 2: %+v", first, second))
			}
		}
	})
	return fails
}

// faultedCalibration is one observation for oracleHealth: baseline
// cost, faulted resilient calibration, invariant checks.
func faultedCalibration(p Plan) (healthObs, []Failure) {
	const oracle = "health"
	var fails []Failure
	cfg := exp.Quick()
	n := cfg.SmallVMs
	advCfg := core.AdvisorConfig{
		TimeStep:    cfg.TimeStep,
		Calibration: cloud.CalibrationConfig{Resilient: true},
	}
	build := func(seedShift int64) (*cloud.Provider, *cloud.VirtualCluster, error) {
		prov := cloud.NewProvider(cloud.ProviderConfig{
			Tree: topo.TreeConfig{Racks: cfg.Racks, ServersPerRack: cfg.ServersPerRack},
			Seed: p.Seed + 9000 + seedShift,
		})
		vc, err := prov.Provision(n, p.Seed+9001+seedShift)
		return prov, vc, err
	}

	// Fault-free run fixes the timescale the scenario windows scale to.
	_, vc0, err := build(0)
	if err != nil {
		return healthObs{Err: err.Error()}, []Failure{failf(oracle, "provision: %v", err)}
	}
	adv0 := core.NewAdvisor(vc0, stats.NewRNG(p.Seed+9002), advCfg)
	if err := adv0.CalibrateCtx(context.Background()); err != nil {
		return healthObs{Err: err.Error()}, []Failure{failf(oracle, "fault-free calibration failed: %v", err)}
	}
	baseCost := adv0.CalibrationCost()

	// Faulted run on an identically seeded sibling cluster.
	_, vc, err := build(0)
	if err != nil {
		return healthObs{Err: err.Error()}, []Failure{failf(oracle, "provision: %v", err)}
	}
	fc := faults.Wrap(vc, p.Scenario(baseCost, n))
	adv := core.NewAdvisor(fc, stats.NewRNG(p.Seed+9002), advCfg)
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		// A typed, deterministic refusal under extreme faults is within
		// contract; the determinism comparison below still applies to it
		// via the error string.
		return healthObs{Err: err.Error()}, nil
	}

	h := adv.Health()
	if math.IsNaN(h.Coverage) || h.Coverage < 0 || h.Coverage > 1 {
		fails = append(fails, failf(oracle, "coverage out of range: %v", h.Coverage))
	}
	if math.IsNaN(h.MeanQuality) || h.MeanQuality < 0 || h.MeanQuality > 1 {
		fails = append(fails, failf(oracle, "mean quality out of range: %v", h.MeanQuality))
	}
	if ne := adv.NormE(); math.IsNaN(ne) || math.IsInf(ne, 0) {
		fails = append(fails, failf(oracle, "Norm(N_E) not finite: %v", ne))
	}
	strat := adv.EffectiveStrategy(core.RPCA)
	if want := core.FallbackStrategy(core.RPCA, h.Confidence); strat != want {
		fails = append(fails, failf(oracle, "ladder violated: confidence %v used %v, contract says %v",
			h.Confidence, strat, want))
	}
	if h.Confidence < core.ConfidenceReduced && strat == core.RPCA {
		fails = append(fails, failf(oracle, "RPCA guidance used at confidence %v", h.Confidence))
	}
	if tree := adv.PlanTree(core.RPCA, 0, cfg.MsgBytes, nil, nil); tree == nil {
		fails = append(fails, failf(oracle, "degraded guidance planned a nil tree"))
	}

	counts := fc.EventCounts()
	keys := make([]string, 0, len(counts))
	byKey := make(map[string]int, len(counts))
	for k, v := range counts {
		s := fmt.Sprint(k)
		keys = append(keys, s)
		byKey[s] = v
	}
	sort.Strings(keys)
	var ev bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&ev, "%s=%d;", k, byKey[k])
	}

	return healthObs{
		NormEBits:  math.Float64bits(adv.NormE()),
		CovBits:    math.Float64bits(h.Coverage),
		QualBits:   math.Float64bits(h.MeanQuality),
		Confidence: h.Confidence.String(),
		Strategy:   strat.String(),
		Events:     ev.String(),
	}, fails
}
