package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"netconstant/internal/mat"
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
	if got := adv.stream.lat.Cols(); got != 36 {
		t.Fatalf("streaming session has %d pair columns, want 36", got)
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

// TestAdvisorStreamPairAndPartialResolve: an accepted pair lands at
// column src·n + dst of both session matrices and nowhere else, the
// installed guidance moves only at the next partial re-solve, and the
// re-solve pulls the constant toward the re-measured regime.
func TestAdvisorStreamPairAndPartialResolve(t *testing.T) {
	const n = 6
	adv := streamAdvisor(t, n, AdvisorConfig{})
	tc := adv.LastCalibration()
	rows := tc.Latency.Steps()
	lat := make([]float64, rows)
	bw := make([]float64, rows)
	for i := range lat {
		lat[i] = 5e-3 // a migrated pair: much slower latency,
		bw[i] = 1e6   // much thinner pipe
	}
	pairs := [][2]int{{0, 1}, {1, 0}, {2, 5}}
	for _, pair := range pairs {
		if err := adv.StreamPair(pair[0], pair[1], lat, bw); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []struct {
		name     string
		got      []float64
		cal      []float64
		streamed []float64
	}{
		{"latency", adv.stream.lat.Data(), tc.Latency.Matrix().Data(), lat},
		{"bandwidth", adv.stream.bw.Data(), tc.Bandwidth.Matrix().Data(), bw},
	} {
		for idx, v := range m.got {
			want := m.cal[idx]
			for _, pair := range pairs {
				if idx%(n*n) == pair[0]*n+pair[1] {
					want = m.streamed[idx/(n*n)]
				}
			}
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%s session row %d column %d = %v, want %v", m.name, idx/(n*n), idx%(n*n), v, want)
			}
		}
	}

	before := adv.Constant()
	if err := adv.StreamPair(9, 0, lat, bw); err == nil {
		t.Fatal("out-of-cluster pair accepted")
	}
	if adv.Constant() != before || adv.PartialResolves() != 0 {
		t.Fatal("streaming a pair moved the installed guidance before a partial re-solve")
	}
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

// TestStreamPairRejectedLeavesSession: a pair outside the cluster, or
// whose bandwidth or latency series is rejected (a NaN or +Inf sample,
// which must match rpca.ErrNonFinite, or one sample short), returns an
// error and leaves both session matrices bit-identical, so the next
// partial re-solve installs exactly what it would have without the call.
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
	with := func(series []float64, v float64) []float64 {
		out := append([]float64(nil), series...)
		out[rows/2] = v
		return out
	}
	for _, c := range []struct {
		name      string
		src, dst  int
		lat, bw   []float64
		nonFinite bool
	}{
		{"NaN bw", 0, 1, lat, with(bw, math.NaN()), true},
		{"+Inf bw", 0, 1, lat, with(bw, math.Inf(1)), true},
		{"short bw", 0, 1, lat, bw[:rows-1], false},
		{"NaN lat", 0, 1, with(lat, math.NaN()), bw, true},
		{"+Inf lat", 0, 1, with(lat, math.Inf(1)), bw, true},
		{"short lat", 0, 1, lat[:rows-1], bw, false},
		{"src past n", 6, 1, lat, bw, false},
		{"negative src", -1, 1, lat, bw, false},
		{"dst past n", 0, 6, lat, bw, false},
		{"negative dst", 0, -1, lat, bw, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			adv := streamAdvisor(t, 6, AdvisorConfig{})
			latBefore := adv.stream.lat.Clone()
			bwBefore := adv.stream.bw.Clone()
			err := adv.StreamPair(c.src, c.dst, c.lat, c.bw)
			if err == nil {
				t.Fatal("rejected pair accepted")
			}
			if errors.Is(err, rpca.ErrNonFinite) != c.nonFinite {
				t.Fatalf("err = %v; matches rpca.ErrNonFinite: %v, want %v", err, !c.nonFinite, c.nonFinite)
			}
			sameBits(t, "latency matrix", adv.stream.lat.Data(), latBefore.Data())
			sameBits(t, "bandwidth matrix", adv.stream.bw.Data(), bwBefore.Data())
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
// the test edits itself at column src·n + dst. The gate case (CI's
// stream-oracle-gate) streams 98 re-measured pairs into a 14-VM, 24-step
// calibration and checks 7 times along the way. The constant matrices
// and NormE are compared bit for bit.
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

	// The gate case: a 14-VM calibration of 24 steps (196 pair columns).
	// The last 98 off-diagonal pairs in row-major order are re-measured
	// from the live cluster one at a time, and the session is re-solved
	// and checked after every 16th pair and at the end.
	const gateN, gateSteps, streamed, checkEvery, wantChecks = 14, 24, 98, 16, 7
	_, vc := testCluster(t, gateN, 1)
	adv := NewAdvisor(vc, stats.NewRNG(101), AdvisorConfig{TimeStep: gateSteps})
	if err := adv.CalibrateCtx(ctx); err != nil {
		t.Fatal(err)
	}
	if err := adv.BeginStreamingCtx(ctx); err != nil {
		t.Fatal(err)
	}
	tc := adv.LastCalibration()
	// The test's own edited copies: the calibration's snapshots, written
	// at (src, dst), which a TP-matrix row vectorizes to src·n + dst.
	latSnaps := make([]*mat.Dense, gateSteps)
	bwSnaps := make([]*mat.Dense, gateSteps)
	for s := range latSnaps {
		latSnaps[s], bwSnaps[s] = tc.Latency.Snapshot(s), tc.Bandwidth.Snapshot(s)
	}
	batch := func(snaps []*mat.Dense) *Decomposition {
		t.Helper()
		tp := netmodel.NewTPMatrix(gateN)
		for s, snap := range snaps {
			tp.Append(tc.Latency.Times[s], snap)
		}
		d, err := DecomposeTP(tp, rpca.Options{}, adv.cfg.Extract)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	var offDiag [][2]int
	for src := 0; src < gateN; src++ {
		for dst := 0; dst < gateN; dst++ {
			if src != dst {
				offDiag = append(offDiag, [2]int{src, dst})
			}
		}
	}
	checks := 0
	for k, p := range offDiag[len(offDiag)-streamed:] {
		lat, bw := make([]float64, gateSteps), make([]float64, gateSteps)
		for s := range lat {
			vc.AdvanceTime(30)
			l := vc.PairPerf(p[0], p[1])
			lat[s], bw[s] = l.Alpha, l.Beta
			latSnaps[s].Set(p[0], p[1], l.Alpha)
			bwSnaps[s].Set(p[0], p[1], l.Beta)
		}
		if err := adv.StreamPair(p[0], p[1], lat, bw); err != nil {
			t.Fatal(err)
		}
		if done := k + 1; done%checkEvery == 0 || done == streamed {
			if err := adv.PartialResolve(); err != nil {
				t.Fatal(err)
			}
			latD, bwD := batch(latSnaps), batch(bwSnaps)
			check(fmt.Sprintf("gate after %d streamed pairs", done), adv, PerfFromRows(gateN, latD.ConstantRow, bwD.ConstantRow), bwD.NormE)
			checks++
		}
	}
	if checks != wantChecks {
		t.Fatalf("gate case ran %d checks, want %d", checks, wantChecks)
	}
}
