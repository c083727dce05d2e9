package cloud

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"netconstant/internal/stats"
)

// provisionTest builds a small cluster for the resilience tests.
func provisionTest(t *testing.T, n int, seed int64) *VirtualCluster {
	t.Helper()
	vc, err := smallProvider(seed).Provision(n, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return vc
}

// TestPairScheduleProperty is the randomized version of TestPairSchedule:
// for any n ≥ 2, even or odd, the schedule covers every ordered pair
// exactly once with disjoint pairs per round.
func TestPairScheduleProperty(t *testing.T) {
	prop := func(raw uint8) bool {
		n := 2 + int(raw)%39 // n in [2, 40]
		rounds := PairSchedule(n)
		seen := map[[2]int]bool{}
		for _, round := range rounds {
			inRound := map[int]bool{}
			for _, pr := range round {
				if pr[0] == pr[1] || pr[0] < 0 || pr[1] < 0 || pr[0] >= n || pr[1] >= n {
					return false
				}
				if seen[pr] || inRound[pr[0]] || inRound[pr[1]] {
					return false
				}
				seen[pr] = true
				inRound[pr[0]] = true
				inRound[pr[1]] = true
			}
		}
		return len(seen) == n*(n-1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSequentialDropoutFiniteCost is the regression test for the Inf-cost
// bug: with every probe dropped, the sequential path used to charge
// pingpongTime of a zero-bandwidth link — a division by zero whose +Inf
// propagated into Cost and the cluster clock. Both schedules must now
// yield finite costs no matter how many probes fail.
func TestSequentialDropoutFiniteCost(t *testing.T) {
	for _, sequential := range []bool{true, false} {
		vc := provisionTest(t, 6, 77)
		cal := calibrateOnce(vc, stats.NewRNG(78), CalibrationConfig{
			Sequential: sequential,
			DropProb:   1,
		})
		if math.IsInf(cal.Cost, 0) || math.IsNaN(cal.Cost) {
			t.Errorf("sequential=%v: cost %v", sequential, cal.Cost)
		}
		if now := vc.Now(); math.IsInf(now, 0) || math.IsNaN(now) {
			t.Errorf("sequential=%v: cluster clock %v", sequential, now)
		}
		if cal.Failed == 0 {
			t.Errorf("sequential=%v: expected failed pairs", sequential)
		}
	}
}

// TestCalibrationDeterminism: identical seeds and configs must produce
// byte-identical TP-matrices, in both legacy and resilient modes — the
// repo's experiments rely on run-to-run reproducibility.
func TestCalibrationDeterminism(t *testing.T) {
	for _, cfg := range []CalibrationConfig{
		{},
		{DropProb: 0.2},
		{Resilient: true, Repeats: 3, MaxRetries: 2},
	} {
		enc := func() []byte {
			vc := provisionTest(t, 6, 90)
			tc := calibrateTP(t, vc, stats.NewRNG(91), 4, 10, cfg)
			var buf bytes.Buffer
			if err := tc.Latency.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			if err := tc.Bandwidth.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		if !bytes.Equal(enc(), enc()) {
			t.Errorf("config %+v: calibrations not byte-identical", cfg)
		}
	}
}

// TestResilientQualityAccounting: a lossy but recoverable calibration
// should measure everything (full coverage) while reporting the retries
// it spent and a mean quality strictly below a clean run's.
func TestResilientQualityAccounting(t *testing.T) {
	vc := provisionTest(t, 6, 95)
	cal := calibrateOnce(vc, stats.NewRNG(96), CalibrationConfig{
		Resilient: true,
		DropProb:  0.3,
		Repeats:   3,
	})
	if cal.Retries == 0 {
		t.Error("expected spent retries at 30% drop probability")
	}
	if cov := 1 - float64(cal.Missing)/30; cov < 0.9 { // 6 VMs: 30 ordered pairs
		t.Errorf("coverage %v despite retry budget", cov)
	}
	if q := cal.MeanQuality(); q <= 0 || q >= 1 {
		t.Errorf("mean quality %v, want in (0,1)", q)
	}

	vc2 := provisionTest(t, 6, 95)
	clean := calibrateOnce(vc2, stats.NewRNG(96), CalibrationConfig{Resilient: true, Repeats: 3})
	if clean.MeanQuality() <= cal.MeanQuality() {
		t.Errorf("clean quality %v should beat lossy %v", clean.MeanQuality(), cal.MeanQuality())
	}
}
