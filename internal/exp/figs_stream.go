package exp

// Streaming extension study: what a partial recalibration buys. The
// paper's Algorithm 1 loops calibrate → guide → monitor → recalibrate;
// the advisor's streaming session is the partial recalibration, editing
// re-measured pair columns into the last calibration and decomposing
// again. After a calibration, the cluster evolves (background traffic,
// migrations) through a re-measurement window of TimeStep instantaneous
// snapshots, and a re-measured pair's series is its column across them.
// Each row scores a constant against the ground truth read once after the
// window: the stale calibration's, a dozen streamed pairs re-solved
// through the regime trigger, every pair streamed and re-solved, and a
// full recalibration of the live cluster. It separates a lasting change
// in the constant from short-term noise; it times nothing.

import (
	"fmt"

	"netconstant/internal/netmodel"
	"netconstant/internal/rpca"
)

const (
	// extStreamMaxObserve caps the divergence observations driven at the
	// regime detector before the study gives up waiting for a trigger.
	extStreamMaxObserve = 12
	// extStreamPairs is how many pairs the regime-triggered row streams.
	extStreamPairs = 12
	// extStreamGap is the simulated time between the window's snapshots.
	extStreamGap = 30 * 60
)

// ExtStreaming runs the partial-vs-full recalibration study.
func ExtStreaming(cfg Config) (*Table, error) {
	e, err := newEnv(cfg, cfg.VMs, 2600)
	if err != nil {
		return nil, err
	}
	adv := e.advisor
	n := cfg.VMs
	stale := adv.Constant()
	truthBefore := e.cluster.TruePerf()
	if err := adv.BeginStreamingCtx(cfg.context()); err != nil {
		return nil, err
	}

	rows := adv.LastCalibration().Latency.Steps()
	snaps := make([]*netmodel.PerfMatrix, rows)
	for s := range snaps {
		e.cluster.AdvanceTime(extStreamGap)
		snaps[s] = e.cluster.SnapshotPerf()
	}
	truth := e.cluster.TruePerf()
	relL1 := func(pm *netmodel.PerfMatrix) (lat, bw string) {
		return fmt.Sprintf("%.4f", rpca.RelDiff(pm.Latency.Data(), truth.Latency.Data())),
			fmt.Sprintf("%.4f", rpca.RelDiff(pm.Bandwth.Data(), truth.Bandwth.Data()))
	}

	// Every off-diagonal pair in a seeded order: the first extStreamPairs
	// are streamed before the regime trigger, the rest before the explicit
	// re-solve of the third row.
	pairs := make([][2]int, 0, n*(n-1))
	for _, k := range e.rng.Perm(n * (n - 1)) {
		src, dst := k/(n-1), k%(n-1)
		if dst >= src {
			dst++
		}
		pairs = append(pairs, [2]int{src, dst})
	}
	stream := func(batch [][2]int) error {
		for _, p := range batch {
			lat := make([]float64, rows)
			bw := make([]float64, rows)
			for s, snap := range snaps {
				l := snap.Link(p[0], p[1])
				lat[s], bw[s] = l.Alpha, l.Beta
			}
			if err := adv.StreamPair(p[0], p[1], lat, bw); err != nil {
				return err
			}
		}
		return nil
	}

	tb := NewTable("Ext: partial vs full recalibration, constant error against ground truth",
		"guidance", "pairs re-measured", "latency rel L1", "bandwidth rel L1")
	lat, bw := relL1(stale)
	tb.AddRow("stale calibration", "0", lat, bw)

	few := min(extStreamPairs, len(pairs))
	if err := stream(pairs[:few]); err != nil {
		return nil, err
	}
	// Sustained 80% divergence: over the regime threshold, under the hard
	// spike threshold — served by a partial re-solve, not a calibration.
	triggered := false
	for i := 0; i < extStreamMaxObserve && !triggered; i++ {
		if triggered, err = adv.ObserveCtx(cfg.context(), 1.0, 1.8); err != nil {
			return nil, err
		}
	}
	if !triggered || adv.PartialResolves() != 1 || adv.Calibrations() != 1 {
		return nil, fmt.Errorf("exp: ext-stream regime trigger: triggered=%v, partial re-solves %d, calibrations %d; want a partial re-solve",
			triggered, adv.PartialResolves(), adv.Calibrations())
	}
	lat, bw = relL1(adv.Constant())
	tb.AddRow(fmt.Sprintf("%d pairs streamed, regime-triggered re-solve", few), fmt.Sprint(few), lat, bw)

	if err := stream(pairs[few:]); err != nil {
		return nil, err
	}
	if err := adv.PartialResolve(); err != nil {
		return nil, err
	}
	lat, bw = relL1(adv.Constant())
	tb.AddRow("every pair streamed, re-solved", fmt.Sprint(len(pairs)), lat, bw)

	if err := adv.CalibrateCtx(cfg.context()); err != nil {
		return nil, err
	}
	lat, bw = relL1(adv.Constant())
	tb.AddRow("full recalibration of the live cluster", fmt.Sprint(len(pairs)), lat, bw)

	tb.AddNote("ground truth read once, after the window of %d snapshots %d min apart that each streamed series samples; the full recalibration measures after that read",
		rows, extStreamGap/60)
	tb.AddNote("during the window the ground truth moved %.4f (latency) and %.4f (bandwidth) relative L1",
		rpca.RelDiff(truth.Latency.Data(), truthBefore.Latency.Data()),
		rpca.RelDiff(truth.Bandwth.Data(), truthBefore.Bandwth.Data()))
	return tb, nil
}
