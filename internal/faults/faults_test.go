package faults

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"netconstant/internal/cloud"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

func testCluster(t *testing.T, n int, seed int64) (*cloud.Provider, *cloud.VirtualCluster) {
	t.Helper()
	p := cloud.NewProvider(cloud.ProviderConfig{
		Tree: topo.TreeConfig{Racks: 4, ServersPerRack: 4},
		Seed: seed,
	})
	vc, err := p.Provision(n, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return p, vc
}

func TestProbeLossAndTypedErrors(t *testing.T) {
	_, vc := testCluster(t, 6, 1)
	fc := Wrap(vc, Scenario{Seed: 1, ProbeLoss: 1})
	_, err := fc.ProbePair(0, 1)
	if !errors.Is(err, ErrProbeLost) {
		t.Fatalf("err = %v, want ErrProbeLost", err)
	}
	var pe *ProbeError
	if !errors.As(err, &pe) || pe.I != 0 || pe.J != 1 || pe.Reason != "loss" {
		t.Errorf("probe error detail %+v", pe)
	}
	if got := fc.EventCounts()[EventProbeLoss]; got != 1 {
		t.Errorf("loss events %d", got)
	}
	// With zero loss the probe succeeds and matches the inner perturbation
	// path.
	fc2 := Wrap(vc, Scenario{Seed: 1})
	l, err := fc2.ProbePair(0, 1)
	if err != nil || l.Beta <= 0 {
		t.Errorf("clean probe: %v %v", l, err)
	}
}

func TestStragglersSlowTheirLinks(t *testing.T) {
	_, vc := testCluster(t, 8, 2)
	vc.SetFreezeDynamics(true)
	fc := Wrap(vc, Scenario{Seed: 3, Stragglers: 2, StragglerFactor: 8})
	slow := fc.StragglerVMs()
	if len(slow) != 2 {
		t.Fatalf("stragglers %v", slow)
	}
	isSlow := map[int]bool{slow[0]: true, slow[1]: true}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i == j {
				continue
			}
			truth := vc.PairPerf(i, j)
			got, err := fc.ProbePair(i, j)
			if err != nil {
				t.Fatal(err)
			}
			want := truth.Beta
			if isSlow[i] || isSlow[j] {
				want /= 8
			}
			if math.Abs(got.Beta-want) > 1e-6*want {
				t.Fatalf("pair %d->%d beta %v want %v", i, j, got.Beta, want)
			}
		}
	}
}

func TestHeavyTailOutliers(t *testing.T) {
	_, vc := testCluster(t, 4, 3)
	vc.SetFreezeDynamics(true)
	fc := Wrap(vc, Scenario{Seed: 4, HeavyTailProb: 0.5, HeavyTailAlpha: 1.2})
	truth := vc.PairPerf(0, 1)
	draws := 400
	for k := 0; k < draws; k++ {
		l, err := fc.ProbePair(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Heavy tails only ever slow the link (Pareto factor ≥ 1).
		if l.Beta > truth.Beta*(1+1e-12) {
			t.Fatal("outlier should slow the link, never speed it up")
		}
	}
	hits := fc.EventCounts()[EventHeavyTail]
	if hits < draws/4 || hits > 3*draws/4 {
		t.Errorf("heavy-tail events %d/%d, want ≈ half", hits, draws)
	}
}

func TestRackBlackoutWindow(t *testing.T) {
	p, vc := testCluster(t, 8, 5)
	rack := p.Topo.Node(vc.Hosts[0]).Rack
	b := RackBlackout(p.Topo, vc.Hosts, rack, 100, 50)
	if len(b.VMs) == 0 {
		t.Fatal("blackout covers no VMs")
	}
	fc := Wrap(vc, Scenario{Seed: 6, Blackouts: []Blackout{b}})

	// Before the window: fine.
	if _, err := fc.ProbePair(0, 1); err != nil {
		t.Fatalf("pre-window probe failed: %v", err)
	}
	// Inside the window: every probe touching VM 0 fails.
	fc.AdvanceTime(120)
	_, err := fc.ProbePair(0, 1)
	if !errors.Is(err, ErrProbeLost) {
		t.Fatalf("in-window probe should fail, got %v", err)
	}
	var pe *ProbeError
	if !errors.As(err, &pe) || pe.Reason != "blackout" {
		t.Errorf("reason %+v", pe)
	}
	if l := fc.PairPerf(0, 1); !(l.Beta == 0) {
		t.Error("blacked-out PairPerf should be a dead link")
	}
	// A pair entirely outside the rack still works.
	var a, bIdx = -1, -1
	inRack := map[int]bool{}
	for _, vm := range b.VMs {
		inRack[vm] = true
	}
	for vm := 0; vm < 8; vm++ {
		if !inRack[vm] {
			if a < 0 {
				a = vm
			} else if bIdx < 0 {
				bIdx = vm
			}
		}
	}
	if a >= 0 && bIdx >= 0 {
		if _, err := fc.ProbePair(a, bIdx); err != nil {
			t.Errorf("outside-rack probe failed: %v", err)
		}
	}
	// After the window: recovered, with start/end events logged.
	fc.AdvanceTime(100)
	if _, err := fc.ProbePair(0, 1); err != nil {
		t.Fatalf("post-window probe failed: %v", err)
	}
	cnt := fc.EventCounts()
	if cnt[EventBlackoutStart] != 1 || cnt[EventBlackoutEnd] != 1 {
		t.Errorf("blackout transitions %v", cnt)
	}
}

func TestPartitionSplitsGroups(t *testing.T) {
	_, vc := testCluster(t, 6, 7)
	fc := Wrap(vc, Scenario{Seed: 8, Partitions: []Partition{{Group: []int{0, 1, 2}, Start: 0, Duration: 100}}})
	if _, err := fc.ProbePair(0, 3); !errors.Is(err, ErrProbeLost) {
		t.Error("cross-partition probe should fail")
	}
	if _, err := fc.ProbePair(0, 1); err != nil {
		t.Errorf("same-side probe failed: %v", err)
	}
	if _, err := fc.ProbePair(3, 4); err != nil {
		t.Errorf("other-side probe failed: %v", err)
	}
	fc.AdvanceTime(200)
	if _, err := fc.ProbePair(0, 3); err != nil {
		t.Errorf("post-partition probe failed: %v", err)
	}
}

func TestChurnMakesVMsTransientlyUnreachable(t *testing.T) {
	_, vc := testCluster(t, 6, 9)
	fc := Wrap(vc, Scenario{Seed: 10, ChurnRate: 60, ChurnDuration: 120})
	churned := false
	for k := 0; k < 500 && !churned; k++ {
		fc.AdvanceTime(60)
		churned = fc.EventCounts()[EventChurnStart] > 0
	}
	if !churned {
		t.Fatal("no churn despite high rate")
	}
	// Find the churned VM from the log and verify unreachability.
	vm := -1
	for _, ev := range fc.events {
		if ev.Kind == EventChurnStart {
			vm = ev.I
		}
	}
	other := (vm + 1) % 6
	if _, err := fc.ProbePair(vm, other); !errors.Is(err, ErrProbeLost) {
		t.Errorf("churning VM should be unreachable, got %v", err)
	}
	// The VM recovers once its window passes. It may churn again on a later
	// step, so keep advancing until we observe the recovered state.
	recovered := false
	for k := 0; k < 500 && !recovered; k++ {
		fc.AdvanceTime(60)
		if _, err := fc.ProbePair(vm, other); err == nil {
			recovered = true
		}
	}
	if !recovered {
		t.Error("churned VM never recovered")
	}
	if fc.EventCounts()[EventChurnEnd] == 0 {
		t.Error("churn end not logged")
	}
}

// TestFaultScheduleDeterminism: identical seeds must produce identical
// fault schedules, event logs, and calibrations — the reproducibility
// guarantee the resilience experiments rely on.
func TestFaultScheduleDeterminism(t *testing.T) {
	build := func() (*Cluster, *cloud.TemporalCalibration) {
		p, vc := testCluster(t, 8, 11)
		rack := p.Topo.Node(vc.Hosts[0]).Rack
		fc := Wrap(vc, Scenario{
			Seed:          12,
			ProbeLoss:     0.2,
			HeavyTailProb: 0.1,
			Stragglers:    1,
			Blackouts:     []Blackout{RackBlackout(p.Topo, vc.Hosts, rack, 50, 200)},
			ChurnRate:     200,
		})
		tc := cloud.CalibrateTP(fc, stats.NewRNG(13), 5, 10,
			cloud.CalibrationConfig{Resilient: true, Repeats: 3})
		return fc, tc
	}
	fc1, tc1 := build()
	fc2, tc2 := build()

	if !reflect.DeepEqual(fc1.events, fc2.events) {
		t.Error("event logs differ across identically seeded runs")
	}
	if !reflect.DeepEqual(fc1.EventCounts(), fc2.EventCounts()) {
		t.Error("event counts differ")
	}
	enc := func(tc *cloud.TemporalCalibration) []byte {
		var buf bytes.Buffer
		if err := tc.Bandwidth.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if err := tc.Latency.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(enc(tc1), enc(tc2)) {
		t.Error("calibrations not byte-identical under identical seeds and faults")
	}
	if tc1.TotalCost != tc2.TotalCost {
		t.Errorf("costs differ: %v vs %v", tc1.TotalCost, tc2.TotalCost)
	}
}

// TestResilientCalibrationUnderFaults: the calibration layer and the fault
// substrate compose — gaps are honest (masked), costs stay finite, and
// quality reflects the abuse.
func TestResilientCalibrationUnderFaults(t *testing.T) {
	p, vc := testCluster(t, 8, 20)
	rack := p.Topo.Node(vc.Hosts[0]).Rack
	fc := Wrap(vc, Scenario{
		Seed:      21,
		ProbeLoss: 0.25,
		Blackouts: []Blackout{RackBlackout(p.Topo, vc.Hosts, rack, 0, 1e12)},
	})
	tc := cloud.CalibrateTP(fc, stats.NewRNG(22), 4, 0,
		cloud.CalibrationConfig{Resilient: true, MaxRetries: 2})
	if math.IsInf(tc.TotalCost, 0) || math.IsNaN(tc.TotalCost) || tc.TotalCost <= 0 {
		t.Fatalf("cost %v", tc.TotalCost)
	}
	if tc.Mask == nil {
		t.Fatal("resilient calibration should record a mask")
	}
	cov := tc.Coverage()
	if cov >= 1 || cov <= 0 {
		t.Errorf("coverage %v should be partial under a permanent blackout", cov)
	}
	for _, cal := range tc.Steps {
		if cal.Missing == 0 {
			t.Error("blackout rows should have missing cells")
		}
		if q := cal.MeanQuality(); q <= 0 || q >= 1 {
			t.Errorf("mean quality %v should be degraded but nonzero", q)
		}
	}
}

// StragglerVMs returns the VM indices selected as stragglers, sorted.
func (c *Cluster) StragglerVMs() []int {
	var out []int
	for vm, s := range c.straggler {
		if s {
			out = append(out, vm)
		}
	}
	sort.Ints(out)
	return out
}
