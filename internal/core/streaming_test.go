package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"netconstant/internal/netmodel"
	"netconstant/internal/rpca"
	"netconstant/internal/stats"
)

// streamAdvisor calibrates a small cluster and opens a streaming session.
func streamAdvisor(t *testing.T, n int, cfg AdvisorConfig) *Advisor {
	t.Helper()
	_, vc := testCluster(t, n, 40)
	adv := NewAdvisor(vc, stats.NewRNG(4), cfg)
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := adv.BeginStreamingCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	return adv
}

func TestAdvisorStreamingLifecycle(t *testing.T) {
	adv := streamAdvisor(t, 6, AdvisorConfig{})
	if !adv.StreamingActive() {
		t.Fatal("session not active after BeginStreaming")
	}
	if got := len(adv.stream.lat.Constant()); got != 36 {
		t.Fatalf("streaming constant row has %d pairs, want 36", got)
	}
	// A fresh full calibration supersedes the session.
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if adv.StreamingActive() {
		t.Fatal("session survived a full calibration")
	}
	if adv.stream != nil {
		t.Fatal("streaming state after session end")
	}
	if err := adv.PartialResolve(); !errors.Is(err, ErrNotStreaming) {
		t.Fatalf("PartialResolve err = %v, want ErrNotStreaming", err)
	}
	if err := adv.StreamPair(0, 1, nil, nil); !errors.Is(err, ErrNotStreaming) {
		t.Fatalf("StreamPair err = %v, want ErrNotStreaming", err)
	}
}

func TestAdvisorStreamPairAndPartialResolve(t *testing.T) {
	adv := streamAdvisor(t, 6, AdvisorConfig{})
	rows := adv.LastCalibration().Latency.Steps()
	lat := make([]float64, rows)
	bw := make([]float64, rows)
	for i := range lat {
		lat[i] = 5e-3 // a migrated pair: much slower latency,
		bw[i] = 1e6   // much thinner pipe
	}
	for _, pair := range [][2]int{{0, 1}, {1, 0}, {2, 5}} {
		if err := adv.StreamPair(pair[0], pair[1], lat, bw); err != nil {
			t.Fatal(err)
		}
	}
	if err := adv.StreamPair(9, 0, lat, bw); err == nil {
		t.Fatal("out-of-cluster pair accepted")
	}

	before := adv.Constant()
	if err := adv.PartialResolve(); err != nil {
		t.Fatal(err)
	}
	if adv.PartialResolves() != 1 {
		t.Fatalf("partial resolves = %d, want 1", adv.PartialResolves())
	}
	after := adv.Constant()
	if before == after {
		t.Fatal("partial re-solve did not install fresh guidance")
	}
	// The re-measured column must have pulled the constant toward the new
	// regime for that pair.
	if !(after.Latency.At(0, 1) > before.Latency.At(0, 1)) {
		t.Errorf("latency constant for the slowed pair did not increase: %v -> %v",
			before.Latency.At(0, 1), after.Latency.At(0, 1))
	}
	if ne := adv.NormE(); !(ne >= 0 && ne <= 1) {
		t.Errorf("NormE out of range: %v", ne)
	}
}

// TestStreamPairRejectedLeavesSession: a pair whose bandwidth series is
// rejected (a NaN, or one sample short), or whose latency series is,
// returns an error and leaves both session matrices bit-identical, so the
// next partial re-solve installs exactly what it would have without the
// call.
func TestStreamPairRejectedLeavesSession(t *testing.T) {
	sameBits := func(t *testing.T, what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	ref := streamAdvisor(t, 6, AdvisorConfig{})
	if err := ref.PartialResolve(); err != nil {
		t.Fatal(err)
	}
	rows := ref.LastCalibration().Latency.Steps()
	lat := make([]float64, rows)
	bw := make([]float64, rows)
	for i := range lat {
		lat[i], bw[i] = 5e-3, 1e6
	}
	nanLat := append([]float64(nil), lat...)
	nanLat[rows/2] = math.NaN()
	nanBW := append([]float64(nil), bw...)
	nanBW[rows/2] = math.NaN()
	for _, c := range []struct {
		name    string
		lat, bw []float64
	}{{"NaN bw", lat, nanBW}, {"short bw", lat, bw[:rows-1]}, {"NaN lat", nanLat, bw}} {
		t.Run(c.name, func(t *testing.T) {
			adv := streamAdvisor(t, 6, AdvisorConfig{})
			latBefore := adv.stream.lat.Matrix().Clone()
			bwBefore := adv.stream.bw.Matrix().Clone()
			if err := adv.StreamPair(0, 1, c.lat, c.bw); err == nil {
				t.Fatal("rejected series accepted")
			}
			sameBits(t, "latency matrix", adv.stream.lat.Matrix().Data(), latBefore.Data())
			sameBits(t, "bandwidth matrix", adv.stream.bw.Matrix().Data(), bwBefore.Data())
			if err := adv.PartialResolve(); err != nil {
				t.Fatal(err)
			}
			sameBits(t, "latency constant", adv.Constant().Latency.Data(), ref.Constant().Latency.Data())
			sameBits(t, "bandwidth constant", adv.Constant().Bandwth.Data(), ref.Constant().Bandwth.Data())
			if math.Float64bits(adv.NormE()) != math.Float64bits(ref.NormE()) {
				t.Fatalf("NormE %v, want %v", adv.NormE(), ref.NormE())
			}
		})
	}
}

// TestAdvisorObserveRegimeUsesPartialResolve: sustained sub-threshold
// drift with a session open must trigger a partial re-solve, not a full
// re-calibration.
func TestAdvisorObserveRegimeUsesPartialResolve(t *testing.T) {
	adv := streamAdvisor(t, 6, AdvisorConfig{Threshold: 1.0, RegimeWindow: 3})
	cals := adv.Calibrations()
	triggered := false
	for i := 0; i < 12 && !triggered; i++ {
		var err error
		// 80% persistent divergence: above RegimeThreshold (0.5), below
		// the 100% spike threshold.
		triggered, err = adv.ObserveCtx(context.Background(), 1.0, 1.8)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !triggered {
		t.Fatal("regime detector never triggered")
	}
	if adv.PartialResolves() != 1 {
		t.Fatalf("partial resolves = %d, want 1", adv.PartialResolves())
	}
	if adv.Calibrations() != cals {
		t.Fatalf("regime trigger ran a full calibration (%d -> %d)", cals, adv.Calibrations())
	}
	if !adv.StreamingActive() {
		t.Fatal("session closed by a partial re-solve")
	}
	if adv.divEWMA != 0 {
		t.Fatal("partial re-solve did not reset the divergence EWMA")
	}

	// A hard spike still forces the full calibrate and closes the session.
	triggered, err := adv.ObserveCtx(context.Background(), 1.0, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	if !triggered || adv.Calibrations() != cals+1 {
		t.Fatalf("spike: triggered=%v calibrations %d (want %d)", triggered, adv.Calibrations(), cals+1)
	}
	if adv.StreamingActive() {
		t.Fatal("session survived a spike-triggered full calibration")
	}
}

// TestAdvisorVerifyStreaming pins the streaming session to the batch
// differential oracle at the acceptance tolerance.
func TestAdvisorVerifyStreaming(t *testing.T) {
	adv := streamAdvisor(t, 6, AdvisorConfig{})
	rows := adv.LastCalibration().Latency.Steps()
	lat := make([]float64, rows)
	bw := make([]float64, rows)
	for i := range lat {
		lat[i] = 300e-6
		bw[i] = 15e6
	}
	if err := adv.StreamPair(3, 4, lat, bw); err != nil {
		t.Fatal(err)
	}
	agLat, agBw, err := adv.VerifyStreaming()
	if err != nil {
		t.Fatal(err)
	}
	for _, ag := range []struct {
		name string
		rel  float64
	}{
		{"latency D", agLat.RelFroD}, {"latency constant", agLat.ConstantRel},
		{"bandwidth D", agBw.RelFroD}, {"bandwidth constant", agBw.ConstantRel},
	} {
		if !(ag.rel <= 1e-10) {
			t.Errorf("%s disagreement %.3e (want <= 1e-10)", ag.name, ag.rel)
		}
	}
}

func TestAdvisorBeginStreamingErrors(t *testing.T) {
	_, vc := testCluster(t, 4, 41)
	adv := NewAdvisor(vc, stats.NewRNG(5), AdvisorConfig{})
	if err := adv.BeginStreamingCtx(context.Background()); !errors.Is(err, ErrNotStreaming) {
		t.Fatalf("BeginStreamingCtx before calibration: err = %v, want ErrNotStreaming", err)
	}
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	if err := adv.BeginStreamingCtx(ctx); err == nil {
		t.Fatal("cancelled BeginStreamingCtx did not error")
	}
	if adv.StreamingActive() {
		t.Fatal("failed BeginStreaming left a session open")
	}
}

// TestPartialResolveMatchesBatchAnalysis: a partial re-solve is a batch
// analysis of the session's matrices. With no pair streamed it must
// install exactly what the calibration's own analysis installed; after
// three streamed pairs, exactly what DecomposeTP gives on TP-matrix copies
// the test edits itself at column src·n + dst. The constant matrices and
// NormE are compared bit for bit.
func TestPartialResolveMatchesBatchAnalysis(t *testing.T) {
	const n = 8
	ctx := context.Background()
	sameBits := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v, batch analysis %v", what, i, got[i], want[i])
			}
		}
	}
	check := func(stage string, adv *Advisor, want *netmodel.PerfMatrix, wantNormE float64) {
		t.Helper()
		got := adv.Constant()
		sameBits(stage+": latency constant", got.Latency.Data(), want.Latency.Data())
		sameBits(stage+": bandwidth constant", got.Bandwth.Data(), want.Bandwth.Data())
		if math.Float64bits(adv.NormE()) != math.Float64bits(wantNormE) {
			t.Fatalf("%s: NormE %v, batch analysis %v", stage, adv.NormE(), wantNormE)
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		_, vc := testCluster(t, n, seed)
		adv := NewAdvisor(vc, stats.NewRNG(seed+100), AdvisorConfig{})
		if err := adv.CalibrateCtx(ctx); err != nil {
			t.Fatal(err)
		}
		calConstant, calNormE := adv.Constant(), adv.NormE()
		if err := adv.BeginStreamingCtx(ctx); err != nil {
			t.Fatal(err)
		}
		if err := adv.PartialResolve(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("seed %d unedited", seed), adv, calConstant, calNormE)

		tc := adv.LastCalibration()
		rows := tc.Latency.Steps()
		type pair struct {
			src, dst int
			lat, bw  []float64
		}
		var pairs []pair
		for k, sd := range [][2]int{{0, 1}, {3, 2}, {7, 5}} {
			p := pair{src: sd[0], dst: sd[1], lat: make([]float64, rows), bw: make([]float64, rows)}
			for i := 0; i < rows; i++ {
				p.lat[i] = 1e-3 * float64(k+1) * (1 + 0.05*float64(i%3))
				p.bw[i] = 2e6 * float64(k+1) / (1 + 0.05*float64(i%4))
			}
			if err := adv.StreamPair(p.src, p.dst, p.lat, p.bw); err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, p)
		}
		if err := adv.PartialResolve(); err != nil {
			t.Fatal(err)
		}
		edit := func(tp *netmodel.TPMatrix, series func(pair) []float64) *netmodel.TPMatrix {
			out := netmodel.NewTPMatrix(n)
			for s := 0; s < rows; s++ {
				snap := tp.Snapshot(s)
				for _, p := range pairs {
					snap.Data()[p.src*n+p.dst] = series(p)[s]
				}
				out.Append(tp.Times[s], snap)
			}
			return out
		}
		latD, err := DecomposeTP(edit(tc.Latency, func(p pair) []float64 { return p.lat }), rpca.Options{}, adv.cfg.Extract)
		if err != nil {
			t.Fatal(err)
		}
		bwD, err := DecomposeTP(edit(tc.Bandwidth, func(p pair) []float64 { return p.bw }), rpca.Options{}, adv.cfg.Extract)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("seed %d after 3 streamed pairs", seed), adv, PerfFromRows(n, latD.ConstantRow, bwD.ConstantRow), bwD.NormE)
	}
}
