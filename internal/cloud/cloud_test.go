package cloud

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"netconstant/internal/netmodel"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// smallProvider builds a compact data center for tests.
// calibrateOnce runs one uncancellable all-link calibration, as each step
// of CalibrateTPCtx does.
func calibrateOnce(c Cluster, rng *rand.Rand, cfg CalibrationConfig) *Calibration {
	cal, _ := calibrate(context.Background(), c, rng, cfg, pairedSchedule(c, cfg))
	return cal
}

func smallProvider(seed int64) *Provider {
	return NewProvider(ProviderConfig{
		Tree: topo.TreeConfig{Racks: 4, ServersPerRack: 4},
		Seed: seed,
	})
}

func TestProvisionPlacement(t *testing.T) {
	p := smallProvider(1)
	vc, err := p.Provision(8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if vc.Size() != 8 {
		t.Fatal("size")
	}
	for _, h := range vc.Hosts {
		if p.Topo.Node(h).Kind != topo.Server {
			t.Error("VM on non-server node")
		}
	}
	if vc.RackSpread() < 1 || vc.RackSpread() > 4 {
		t.Errorf("rack spread %d", vc.RackSpread())
	}
}

func TestProvisionErrors(t *testing.T) {
	p := smallProvider(2)
	if _, err := p.Provision(0, 1); err == nil {
		t.Error("zero size should error")
	}
	// Capacity: 16 servers × 8 slots = 128.
	if _, err := p.Provision(129, 1); err == nil {
		t.Error("over capacity should error")
	}
	if _, err := p.Provision(128, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Provision(1, 2); err == nil {
		t.Error("full provider should reject")
	}
}

func TestGroundTruthStableWithoutDynamics(t *testing.T) {
	p := smallProvider(3)
	vc, _ := p.Provision(6, 7)
	vc.SetFreezeDynamics(true)
	l1 := vc.PairPerf(0, 1)
	vc.AdvanceTime(3600)
	l2 := vc.PairPerf(0, 1)
	if l1 != l2 {
		t.Error("frozen dynamics should be constant")
	}
	if l1.Beta <= 0 || l1.Alpha <= 0 {
		t.Error("nonpositive performance")
	}
}

func TestPairPerfSelfLoop(t *testing.T) {
	p := smallProvider(4)
	vc, _ := p.Provision(4, 1)
	l := vc.PairPerf(2, 2)
	if l.Alpha != 0 || !math.IsInf(l.Beta, 1) {
		t.Error("self loop should be free")
	}
}

func TestVolatilityBand(t *testing.T) {
	p := smallProvider(5)
	vc, _ := p.Provision(4, 9)
	truth := vc.TruePerf().Link(0, 1)
	// Sample many measurements; most should lie near the truth, a few may
	// spike.
	within := 0
	total := 500
	for k := 0; k < total; k++ {
		l := vc.PairPerf(0, 1)
		if l.Beta > truth.Beta*0.85 && l.Beta < truth.Beta*1.15 {
			within++
		}
	}
	frac := float64(within) / float64(total)
	if frac < 0.75 {
		t.Errorf("volatility band too wide: only %.2f within ±15%%", frac)
	}
	if frac == 1 {
		t.Error("expected at least one spike among 500 draws")
	}
}

func TestMigrationChangesGroundTruth(t *testing.T) {
	p := NewProvider(ProviderConfig{
		Tree:          topo.TreeConfig{Racks: 4, ServersPerRack: 4},
		Seed:          6,
		MigrationRate: 1000, // force migrations quickly
	})
	vc, _ := p.Provision(6, 11)
	before := vc.TruePerf()
	hosts := append([]int(nil), vc.Hosts...)
	for k := 0; k < 200 && slices.Equal(hosts, vc.Hosts); k++ {
		vc.AdvanceTime(3600)
	}
	if slices.Equal(hosts, vc.Hosts) {
		t.Fatal("no migration occurred at extreme rate")
	}
	after := vc.TruePerf()
	if before.Bandwth.ApproxEqual(after.Bandwth, 1e-12) {
		t.Error("migration should change ground truth")
	}
}

func TestAdvanceTimeNegativePanics(t *testing.T) {
	p := smallProvider(7)
	vc, _ := p.Provision(2, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	vc.AdvanceTime(-1)
}

func TestPairSchedule(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 9} {
		rounds := PairSchedule(n)
		seen := map[[2]int]bool{}
		for _, round := range rounds {
			inRound := map[int]bool{}
			for _, pr := range round {
				if pr[0] == pr[1] {
					t.Fatalf("n=%d: self pair", n)
				}
				if seen[pr] {
					t.Fatalf("n=%d: duplicate pair %v", n, pr)
				}
				seen[pr] = true
				if inRound[pr[0]] || inRound[pr[1]] {
					t.Fatalf("n=%d: machine used twice in one round", n)
				}
				inRound[pr[0]] = true
				inRound[pr[1]] = true
			}
		}
		if len(seen) != n*(n-1) {
			t.Errorf("n=%d: covered %d ordered pairs, want %d", n, len(seen), n*(n-1))
		}
		// Round count ≈ 2(N-1) for even N (the paper's "2×N" overhead).
		if n%2 == 0 && len(rounds) != 2*(n-1) {
			t.Errorf("n=%d: %d rounds, want %d", n, len(rounds), 2*(n-1))
		}
	}
	if PairSchedule(1) != nil {
		t.Error("n=1 should have no schedule")
	}
}

func TestCalibrateCoversAllPairs(t *testing.T) {
	p := smallProvider(8)
	vc, _ := p.Provision(6, 13)
	rng := stats.NewRNG(99)
	cal := calibrateOnce(vc, rng, CalibrationConfig{})
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i == j {
				continue
			}
			if cal.Perf.Link(i, j).Beta <= 0 {
				t.Fatalf("pair (%d,%d) not measured", i, j)
			}
		}
	}
	if cal.Cost <= 0 || cal.Rounds != 10 {
		t.Errorf("cost %v rounds %d", cal.Cost, cal.Rounds)
	}
}

func TestCalibrateSequentialCostsMore(t *testing.T) {
	p := smallProvider(9)
	vc1, _ := p.Provision(6, 17)
	vc2, _ := p.Provision(6, 17)
	rng := stats.NewRNG(1)
	paired := calibrateOnce(vc1, rng, CalibrationConfig{})
	seq := calibrateOnce(vc2, rng, CalibrationConfig{Sequential: true})
	if seq.Cost <= paired.Cost {
		t.Errorf("sequential %v should cost more than paired %v", seq.Cost, paired.Cost)
	}
	if seq.Rounds != 30 {
		t.Errorf("sequential rounds %d", seq.Rounds)
	}
}

func TestCalibrationCostScalesLinearly(t *testing.T) {
	// The Fig 4 shape: cost grows ~linearly in N for the paired schedule.
	typical := netmodel.Link{Alpha: 300e-6, Beta: 100e6}
	c64 := EstimateCalibrationCost(64, typical, CalibrationConfig{})
	c196 := EstimateCalibrationCost(196, typical, CalibrationConfig{})
	ratio := c196 / c64
	want := float64(2*195) / float64(2*63)
	if math.Abs(ratio-want) > 0.01 {
		t.Errorf("cost ratio %v want %v", ratio, want)
	}
	// Magnitudes from the paper (Fig 4 covers one TP-matrix = time step 10
	// calibrations): < 4 min at 64, ~10 min at 196.
	if 10*c64 > 4*60 {
		t.Errorf("64-VM TP calibration %v s, paper says < 4 min", 10*c64)
	}
	if tp196 := 10 * c196; tp196 < 5*60 || tp196 > 15*60 {
		t.Errorf("196-VM TP calibration %v s, paper says ~10 min", tp196)
	}
}

func TestCalibrateTP(t *testing.T) {
	p := smallProvider(10)
	vc, _ := p.Provision(5, 19)
	rng := stats.NewRNG(2)
	tc := CalibrateTP(vc, rng, 4, 60, CalibrationConfig{})
	if tc.Latency.Steps() != 4 || tc.Bandwidth.Steps() != 4 {
		t.Fatal("TP steps")
	}
	if tc.TotalCost <= 0 {
		t.Error("cost")
	}
	// Times strictly increasing.
	for k := 1; k < 4; k++ {
		if tc.Latency.Times[k] <= tc.Latency.Times[k-1] {
			t.Error("TP times not increasing")
		}
	}
	// Default step count.
	vc2, _ := p.Provision(3, 23)
	tc2 := CalibrateTP(vc2, rng, 0, 0, CalibrationConfig{})
	if tc2.Latency.Steps() != 10 {
		t.Errorf("default steps %d", tc2.Latency.Steps())
	}
}

func TestSnapshotTP(t *testing.T) {
	p := smallProvider(11)
	vc, _ := p.Provision(4, 29)
	tc := SnapshotTP(vc, 3, 10)
	if tc.Bandwidth.Steps() != 3 {
		t.Fatal("snapshot steps")
	}
	if tc.TotalCost != 0 {
		t.Error("snapshots are free")
	}
}

func TestTraceRecordReplay(t *testing.T) {
	p := smallProvider(12)
	vc, _ := p.Provision(4, 31)
	tr := Record(vc, 100, 25)
	if tr.Len() != 5 {
		t.Fatalf("trace length %d", tr.Len())
	}
	rc := NewReplay(tr)
	if rc.Size() != 4 {
		t.Fatal("replay size")
	}
	first := rc.PairPerf(0, 1)
	if first != tr.Perfs[0].Link(0, 1) {
		t.Error("replay should serve snapshot 0 at start")
	}
	rc.AdvanceTime(60)
	got := rc.PairPerf(0, 1)
	if got != tr.Perfs[2].Link(0, 1) {
		t.Error("replay should advance to snapshot at t=50")
	}
	rc.Seek(tr.Times[0])
	if rc.PairPerf(0, 1) != tr.Perfs[0].Link(0, 1) {
		t.Error("seek back")
	}
}

func TestTraceEncodeDecode(t *testing.T) {
	p := smallProvider(13)
	vc, _ := p.Provision(3, 37)
	tr := Record(vc, 50, 25)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() || back.N != tr.N {
		t.Fatal("shape")
	}
	for k := 0; k < tr.Len(); k++ {
		if !back.Perfs[k].Bandwth.ApproxEqual(tr.Perfs[k].Bandwth, 0) {
			t.Fatal("bandwidth content")
		}
		if !back.Perfs[k].Latency.ApproxEqual(tr.Perfs[k].Latency, 0) {
			t.Fatal("latency content")
		}
	}
}

func TestTraceInjectNoise(t *testing.T) {
	p := smallProvider(14)
	vc, _ := p.Provision(3, 41)
	tr := Record(vc, 50, 25)
	before := tr.Perfs[0].Bandwth.Clone()
	rng := stats.NewRNG(5)
	tr.InjectNoise(rng, 5, 0.2, 2)
	if before.ApproxEqual(tr.Perfs[0].Bandwth, 1e-12) {
		t.Error("noise should perturb the trace")
	}
}

func TestReplayPanics(t *testing.T) {
	mustPanic(t, func() { NewReplay(&Trace{}) })
	p := smallProvider(15)
	vc, _ := p.Provision(2, 43)
	tr := Record(vc, 10, 5)
	rc := NewReplay(tr)
	mustPanic(t, func() { rc.AdvanceTime(-1) })
	mustPanic(t, func() { Record(vc, 10, 0) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestSimClusterMeasurement(t *testing.T) {
	sc := NewSimCluster(SimClusterConfig{
		Tree:     topo.TreeConfig{Racks: 4, ServersPerRack: 4, IntraRackBps: 100e6, InterRackBps: 1e9, HopLatency: 50e-6},
		VMs:      6,
		Seed:     3,
		BgLinks:  4,
		BgBytes:  1 << 20,
		BgLambda: 0.5,
		// Use a modest probe so the test is fast.
		ProbeBulk: 1 << 20,
	})
	defer sc.StopBackground()
	if sc.Size() != 6 {
		t.Fatal("size")
	}
	l := sc.PairPerf(0, 1)
	if l.Alpha <= 0 || l.Beta <= 0 {
		t.Errorf("bad measurement %+v", l)
	}
	// Bandwidth cannot exceed the fastest link.
	if l.Beta > 1e9 {
		t.Errorf("impossible bandwidth %v", l.Beta)
	}
	before := sc.Now()
	sc.AdvanceTime(1)
	if sc.Now() < before+1 {
		t.Error("advance time")
	}
	mustPanic(t, func() { sc.AdvanceTime(-1) })
	mustPanic(t, func() {
		NewSimCluster(SimClusterConfig{Tree: topo.TreeConfig{Racks: 1, ServersPerRack: 2}, VMs: 99})
	})
}

func TestSameRackFasterThanCrossRack(t *testing.T) {
	// Placement heterogeneity: same-rack pairs should usually beat
	// cross-rack pairs in ground truth — this is what link selection
	// exploits.
	p := smallProvider(16)
	vc, _ := p.Provision(16, 47)
	vc.SetFreezeDynamics(true)
	var sameSum, crossSum float64
	var sameN, crossN int
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if i == j {
				continue
			}
			bw := vc.TruePerf().Link(i, j).Beta
			if p.Topo.SameRack(vc.Hosts[i], vc.Hosts[j]) {
				sameSum += bw
				sameN++
			} else {
				crossSum += bw
				crossN++
			}
		}
	}
	if sameN == 0 || crossN == 0 {
		t.Skip("degenerate placement")
	}
	if sameSum/float64(sameN) <= crossSum/float64(crossN) {
		t.Error("same-rack pairs should be faster on average")
	}
}

func TestRepairPerfMatrix(t *testing.T) {
	pm := netmodel.NewPerfMatrix(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				pm.SetLink(i, j, netmodel.Link{Alpha: 1e-3, Beta: 1e6})
			}
		}
	}
	// Break one direction: reverse should be borrowed.
	pm.SetLink(0, 1, netmodel.Link{})
	// Break both directions of another pair: column median should fill.
	pm.SetLink(0, 2, netmodel.Link{})
	pm.SetLink(2, 0, netmodel.Link{})
	n := pm.Repair()
	if n == 0 {
		t.Fatal("nothing repaired")
	}
	if pm.Link(0, 1).Beta != 1e6 {
		t.Error("reverse-direction repair failed")
	}
	if pm.Link(0, 2).Beta != 1e6 || pm.Link(2, 0).Beta != 1e6 {
		t.Error("column-median repair failed")
	}
}

func TestCalibrateWithDropouts(t *testing.T) {
	p := smallProvider(30)
	vc, _ := p.Provision(8, 31)
	rng := stats.NewRNG(7)
	cal := calibrateOnce(vc, rng, CalibrationConfig{DropProb: 0.3})
	if cal.Dropped == 0 {
		t.Fatal("expected dropped probes at 30% drop rate")
	}
	// After repair, every off-diagonal cell must be positive.
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i == j {
				continue
			}
			if cal.Perf.Link(i, j).Beta <= 0 || cal.Perf.Link(i, j).Alpha <= 0 {
				t.Fatalf("cell (%d,%d) not repaired: %+v", i, j, cal.Perf.Link(i, j))
			}
		}
	}
	if cal.Failed > 0 && cal.Repaired == 0 {
		t.Error("failed pairs should have been repaired")
	}
}

func TestAdvisorPipelineSurvivesDropouts(t *testing.T) {
	// End-to-end failure injection: with 20% probe failures, the RPCA
	// pipeline still recovers the constant within a reasonable tolerance.
	p := smallProvider(32)
	vc, _ := p.Provision(8, 33)
	rng := stats.NewRNG(8)
	tc := CalibrateTP(vc, rng, 10, 0, CalibrationConfig{DropProb: 0.2})
	if tc.Latency.Steps() != 10 {
		t.Fatal("steps")
	}
	// Every off-diagonal cell of every snapshot must be positive after
	// repair.
	for st := 0; st < tc.Bandwidth.Steps(); st++ {
		snap := tc.Bandwidth.Snapshot(st)
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if i != j && snap.At(i, j) <= 0 {
					t.Fatalf("unrepaired snapshot %d cell (%d,%d)", st, i, j)
				}
			}
		}
	}
}

func TestSnapshotPerfAndConfig(t *testing.T) {
	p := smallProvider(40)
	if p.cfg.SlotsPerServer != 8 {
		t.Error("defaulted config")
	}
	vc, _ := p.Provision(4, 41)
	snap := vc.SnapshotPerf()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j && snap.Link(i, j).Beta <= 0 {
				t.Fatal("snapshot cell missing")
			}
		}
	}
}

func TestTraceCloneAndInjectors(t *testing.T) {
	p := smallProvider(42)
	vc, _ := p.Provision(3, 43)
	tr := Record(vc, 100, 25)
	rng := stats.NewRNG(44)

	cl2 := tr.Clone()
	cl2.InjectBursts(rng, 1.0, 0, tr.Len(), 2, 3)
	changed := false
	for k := 0; k < tr.Len(); k++ {
		if !tr.Perfs[k].Bandwth.ApproxEqual(cl2.Perfs[k].Bandwth, 1e-9) {
			changed = true
		}
	}
	if !changed {
		t.Error("bursts with linkProb=1 should change the trace")
	}
	// Degenerate burst windows are no-ops.
	cl3 := tr.Clone()
	cl3.InjectBursts(rng, 1, 5, 2, 1, 3) // startHi <= startLo
	cl3.InjectBursts(rng, 1, 0, 2, 0, 3) // span < 1
	(&Trace{}).InjectBursts(rng, 1, 0, 1, 1, 1)

	// Original untouched by clone mutations.
	if tr.Perfs[0].Bandwth.ApproxEqual(cl2.Perfs[0].Bandwth, 1e-9) && tr.Len() > 0 {
		// possible if burst missed snapshot 0 cells; just check clone identity
		_ = tr
	}
}

func TestReplayNow(t *testing.T) {
	p := smallProvider(45)
	vc, _ := p.Provision(2, 46)
	tr := Record(vc, 10, 5)
	rc := NewReplay(tr)
	start := rc.Now()
	rc.AdvanceTime(7)
	if rc.Now() != start+7 {
		t.Error("replay clock")
	}
}
