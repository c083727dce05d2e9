package exp

// Streaming extension study: the incremental constant-subspace tracker
// against its batch differential oracle. A calibrated advisor opens a
// streaming session, re-measures a seeded set of pairs from the evolved
// cluster (per-pair time series sampled from instantaneous snapshots),
// lets sustained divergence trigger the regime detector's partial
// re-solve, and pins the streaming state to a fresh batch IALM solve
// before and after. Purely deterministic — this table is about
// accuracy, not the streaming path's latency or throughput.

import (
	"fmt"
	"math"
)

// extStreamMaxObserve caps the divergence observations driven at the
// regime detector before the study gives up waiting for a trigger.
const extStreamMaxObserve = 12

// ExtStreaming runs the streaming-vs-batch accuracy study.
func ExtStreaming(cfg Config) (*Table, error) {
	e, err := newEnv(cfg, cfg.VMs, 2600)
	if err != nil {
		return nil, err
	}
	adv := e.advisor
	if err := adv.BeginStreamingCtx(cfg.context()); err != nil {
		return nil, err
	}
	seedLat, seedBw, err := adv.VerifyStreaming()
	if err != nil {
		return nil, err
	}

	// Re-measure a seeded set of pairs: the cluster evolves (background
	// traffic, migrations) between TimeStep instantaneous snapshots, and
	// each re-measured pair's column is its time series across them.
	rows := adv.LastCalibration().Latency.Steps()
	snaps := make([]struct{ lat, bw [][]float64 }, 0, rows)
	for s := 0; s < rows; s++ {
		e.cluster.AdvanceTime(30 * 60)
		perf := e.cluster.SnapshotPerf()
		lat := make([][]float64, cfg.VMs)
		bw := make([][]float64, cfg.VMs)
		for i := 0; i < cfg.VMs; i++ {
			lat[i] = append([]float64(nil), perf.Latency.Row(i)...)
			bw[i] = append([]float64(nil), perf.Bandwth.Row(i)...)
		}
		snaps = append(snaps, struct{ lat, bw [][]float64 }{lat, bw})
	}
	pairs := min(cfg.VMs, 12)
	replaced := 0
	for k := 0; k < pairs; k++ {
		src, dst := e.rng.Intn(cfg.VMs), e.rng.Intn(cfg.VMs)
		if src == dst {
			continue
		}
		lat := make([]float64, rows)
		bw := make([]float64, rows)
		for s := range snaps {
			lat[s] = snaps[s].lat[src][dst]
			bw[s] = snaps[s].bw[src][dst]
		}
		if err := adv.StreamPair(src, dst, lat, bw); err != nil {
			return nil, err
		}
		replaced++
	}

	// Sustained 80% divergence: over the regime threshold, under the hard
	// spike threshold — must resolve via the partial re-solve.
	triggered := false
	for i := 0; i < extStreamMaxObserve && !triggered; i++ {
		if triggered, err = adv.Observe(1.0, 1.8); err != nil {
			return nil, err
		}
	}
	postLat, postBw, err := adv.VerifyStreaming()
	if err != nil {
		return nil, err
	}

	tb := NewTable("Ext: streaming decomposition vs batch differential oracle",
		"metric", "latency", "bandwidth")
	tb.AddRow("seed trace: rel ‖D_stream−D_batch‖F",
		fmtRel(seedLat.RelFroD), fmtRel(seedBw.RelFroD))
	tb.AddRow("seed trace: constant row rel diff",
		fmtRel(seedLat.ConstantRel), fmtRel(seedBw.ConstantRel))
	tb.AddRow("after partial re-solve: rel ‖D_stream−D_batch‖F",
		fmtRel(postLat.RelFroD), fmtRel(postBw.RelFroD))
	tb.AddRow("after partial re-solve: constant row rel diff",
		fmtRel(postLat.ConstantRel), fmtRel(postBw.ConstantRel))
	tb.AddRow("warm/batch iterations",
		fmt.Sprintf("%d/%d", postLat.StreamIters, postLat.BatchIters),
		fmt.Sprintf("%d/%d", postBw.StreamIters, postBw.BatchIters))
	tb.AddNote("%d pair columns re-measured from the evolved cluster; regime trigger=%v, partial re-solves=%d, full calibrations=%d, Norm(N_E)=%.4f",
		replaced, triggered, adv.PartialResolves(), adv.Calibrations(), adv.NormE())
	worst := math.Max(math.Max(postLat.RelFroD, postBw.RelFroD),
		math.Max(postLat.ConstantRel, postBw.ConstantRel))
	if math.IsNaN(worst) {
		return nil, fmt.Errorf("exp: NaN streaming-vs-batch disagreement")
	}
	tb.AddNote("worst post-resolve disagreement %.2e (acceptance bound 1e-10)", worst)
	return tb, nil
}

// fmtRel renders a relative-error cell.
func fmtRel(v float64) string { return fmt.Sprintf("%.2e", v) }
