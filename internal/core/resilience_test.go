package core

import (
	"math"
	"testing"

	"netconstant/internal/cloud"
	"netconstant/internal/faults"
	"netconstant/internal/netmodel"
	"netconstant/internal/stats"
)

// relErrBW is the mean per-link relative bandwidth error of an estimate
// against the ground-truth performance matrix.
func relErrBW(truth, got *netmodel.PerfMatrix, n int) float64 {
	var relErr float64
	count := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			tb := truth.Bandwth.At(i, j)
			relErr += math.Abs(got.Bandwth.At(i, j)-tb) / tb
			count++
		}
	}
	return relErr / float64(count)
}

func TestConfidenceGradingAndFallback(t *testing.T) {
	cases := []struct {
		h    CalibrationHealth
		want Confidence
	}{
		{CalibrationHealth{Coverage: 1, Converged: true}, ConfidenceHigh},
		{CalibrationHealth{Coverage: 0.97, RetryExhaustion: 0.02, Converged: true}, ConfidenceHigh},
		{CalibrationHealth{Coverage: 0.97, Converged: false}, ConfidenceHigh},
		{CalibrationHealth{Coverage: 0.97, RetryExhaustion: 0.2, Converged: true}, ConfidenceReduced},
		{CalibrationHealth{Coverage: 0.8, Converged: true}, ConfidenceReduced},
		{CalibrationHealth{Coverage: 0.5, Converged: true}, ConfidenceLow},
		{CalibrationHealth{Coverage: 0.1, Converged: true}, ConfidenceNone},
	}
	for _, c := range cases {
		if got := gradeConfidence(c.h); got != c.want {
			t.Errorf("grade(%+v) = %v, want %v", c.h, got, c.want)
		}
	}

	fb := []struct {
		s    Strategy
		c    Confidence
		want Strategy
	}{
		{RPCA, ConfidenceHigh, RPCA},
		{RPCA, ConfidenceReduced, RPCA},
		{RPCA, ConfidenceLow, Heuristics},
		{RPCA, ConfidenceNone, Baseline},
		{Heuristics, ConfidenceLow, Heuristics},
		{Heuristics, ConfidenceNone, Baseline},
		{Baseline, ConfidenceNone, Baseline},
		{TopologyAware, ConfidenceNone, TopologyAware},
	}
	for _, c := range fb {
		if got := FallbackStrategy(c.s, c.c); got != c.want {
			t.Errorf("fallback(%v, %v) = %v, want %v", c.s, c.c, got, c.want)
		}
	}

	for c, want := range map[Confidence]string{
		ConfidenceHigh: "high", ConfidenceReduced: "reduced",
		ConfidenceLow: "low", ConfidenceNone: "none",
	} {
		if c.String() != want {
			t.Errorf("Confidence string %v", c)
		}
	}
}

// TestGracefulDegradationUnderFaults is the end-to-end acceptance check:
// a calibration run under ≥20% probe loss plus a transient rack blackout
// must still complete with finite cost, recover the constant component to
// within 2× the fault-free error, and report reduced confidence while
// still producing guidance.
func TestGracefulDegradationUnderFaults(t *testing.T) {
	const n = 8
	cfg := AdvisorConfig{
		Calibration: cloud.CalibrationConfig{Resilient: true},
	}

	// Fault-free resilient baseline.
	_, vc := testCluster(t, n, 40)
	adv0 := NewAdvisor(vc, stats.NewRNG(41), cfg)
	if err := adv0.Calibrate(); err != nil {
		t.Fatal(err)
	}
	truth := vc.TruePerf()
	baseErr := relErrBW(truth, adv0.Constant(), n)
	baseCost := adv0.CalibrationCost()
	if adv0.Confidence() != ConfidenceHigh {
		t.Fatalf("fault-free confidence = %v, health %+v", adv0.Confidence(), adv0.Health())
	}

	// Identically seeded cluster, now wrapped with faults: 25% probe loss
	// and a rack blackout. Retries stretch the faulted run to roughly 3×
	// the fault-free cost, so a window of 1.5× that cost covers about half
	// of it.
	p2, vc2 := testCluster(t, n, 40)
	rack := p2.Topo.Node(vc2.Hosts[0]).Rack
	fc := faults.Wrap(vc2, faults.Scenario{
		Seed:      42,
		ProbeLoss: 0.25,
		Blackouts: []faults.Blackout{
			faults.RackBlackout(p2.Topo, vc2.Hosts, rack, 0.1*baseCost, 1.5*baseCost),
		},
	})
	adv := NewAdvisor(fc, stats.NewRNG(41), cfg)
	if err := adv.Calibrate(); err != nil {
		t.Fatal(err)
	}

	cost := adv.CalibrationCost()
	if math.IsInf(cost, 0) || math.IsNaN(cost) || cost <= 0 {
		t.Fatalf("faulted calibration cost %v", cost)
	}
	tc := adv.LastCalibration()
	if tc.Mask == nil || tc.Coverage() >= 1 {
		t.Fatalf("faulted calibration should have gaps (coverage %v)", tc.Coverage())
	}

	faultErr := relErrBW(truth, adv.Constant(), n)
	if faultErr > 2*baseErr {
		t.Errorf("faulted constant error %.4f > 2× fault-free %.4f", faultErr, baseErr)
	}
	if adv.Confidence() >= ConfidenceHigh {
		t.Errorf("confidence under faults = %v, want below high (health %+v)",
			adv.Confidence(), adv.Health())
	}
	if adv.Confidence() <= ConfidenceNone {
		t.Errorf("confidence collapsed to none; health %+v", adv.Health())
	}

	// Guidance is still produced, through the fallback ladder if needed.
	tree := adv.PlanTree(RPCA, 0, 1<<20, nil, nil)
	if tree == nil {
		t.Fatal("no guidance tree under faults")
	}
	if s := adv.EffectiveStrategy(RPCA); s == Baseline {
		t.Errorf("RPCA degraded all the way to baseline; health %+v", adv.Health())
	}
	t.Logf("baseline err %.4f cost %.0f; faulted err %.4f cost %.0f coverage %.3f confidence %v",
		baseErr, baseCost, faultErr, cost, tc.Coverage(), adv.Confidence())
}

// TestObserveRegimeChange: sustained drift below the spike threshold must
// still trigger a re-calibration once the divergence EWMA stays above
// RegimeThreshold for RegimeWindow observations.
func TestObserveRegimeChange(t *testing.T) {
	_, vc := testCluster(t, 6, 50)
	adv := NewAdvisor(vc, stats.NewRNG(51), AdvisorConfig{Threshold: 1.0})
	if err := adv.Calibrate(); err != nil {
		t.Fatal(err)
	}

	// rel = 0.2: EWMA tops out at 0.2 < RegimeThreshold (0.5) — never fires.
	for k := 0; k < 20; k++ {
		trig, err := adv.Observe(1, 1.2)
		if err != nil {
			t.Fatal(err)
		}
		if trig {
			t.Fatal("mild drift should not trigger")
		}
	}
	if adv.Recalibrations() != 0 {
		t.Fatal("unexpected recalibration")
	}

	// rel = 0.8 (still below the 1.0 spike threshold): the EWMA crosses 0.5
	// and holds, so the regime detector must fire within a few observations.
	fired := false
	for k := 0; k < 15 && !fired; k++ {
		trig, err := adv.Observe(1, 1.8)
		if err != nil {
			t.Fatal(err)
		}
		fired = trig
	}
	if !fired {
		t.Fatal("sustained drift never triggered a regime re-calibration")
	}
	if adv.Recalibrations() != 1 {
		t.Errorf("recalibrations %d", adv.Recalibrations())
	}
	if adv.divEWMA != 0 {
		t.Error("EWMA should reset after re-calibration")
	}
}
