package simnet

import (
	"math"
	"math/rand"
	"testing"

	"netconstant/internal/topo"
)

// twoRackSim builds a small deterministic test fabric:
// 2 racks × 2 servers, intra 100 B/s, inter 1000 B/s, hop latency 0.01 s.
func twoRackSim() (*Sim, []int) {
	tr := topo.NewTree(topo.TreeConfig{Racks: 2, ServersPerRack: 2, IntraRackBps: 100, InterRackBps: 1000, HopLatency: 0.01})
	return New(tr), tr.Servers()
}

func TestSingleFlowTiming(t *testing.T) {
	s, srv := twoRackSim()
	// Same-rack transfer: 2 hops latency (0.02) + 100 bytes at 100 B/s = 1.02 s.
	elapsed := s.Transfer(srv[0], srv[1], 100)
	if math.Abs(elapsed-1.02) > 1e-9 {
		t.Errorf("same-rack elapsed %v", elapsed)
	}
	// Cross-rack: 4 hops (0.04) + bottleneck is the 100 B/s server link.
	elapsed = s.Transfer(srv[0], srv[2], 100)
	if math.Abs(elapsed-1.04) > 1e-9 {
		t.Errorf("cross-rack elapsed %v", elapsed)
	}
}

func TestZeroByteFlow(t *testing.T) {
	s, srv := twoRackSim()
	elapsed := s.Transfer(srv[0], srv[1], 0)
	if math.Abs(elapsed-0.02) > 1e-12 {
		t.Errorf("zero-byte flow should take pure latency, got %v", elapsed)
	}
}

func TestFlowPanics(t *testing.T) {
	s, srv := twoRackSim()
	mustPanic(t, func() { s.StartFlow(srv[0], srv[0], 1, nil) })
	mustPanic(t, func() { s.StartFlow(srv[0], srv[1], -5, nil) })
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

func TestFairSharingTwoFlowsSameLink(t *testing.T) {
	// Two flows from the same server share its 100 B/s uplink: each gets 50.
	s, srv := twoRackSim()
	var t1, t2 float64
	f1 := s.StartFlow(srv[0], srv[1], 100, func(at float64) { t1 = at })
	f2 := s.StartFlow(srv[0], srv[1], 100, func(at float64) { t2 = at })
	s.RunUntilDone(f1)
	s.RunUntilDone(f2)
	// Both: 0.02 latency + 100 bytes at 50 B/s = 2.02.
	if math.Abs(t1-2.02) > 1e-9 || math.Abs(t2-2.02) > 1e-9 {
		t.Errorf("shared flows finished at %v, %v", t1, t2)
	}
}

// Flows whose timers move to the same instant in one commit fire in flow-ID
// order, whatever order the dirty-set walk found them in. Here the early
// finisher's swap-remove leaves the link's flow list as [3, 1, 2], and
// flows 1–3 are then rescheduled to one identical completion time.
func TestSimultaneousCompletionsFireInIDOrder(t *testing.T) {
	s, srv := twoRackSim()
	var order []int64
	var flows []*Flow
	for _, bytes := range []float64{10, 100, 100, 100} {
		flows = append(flows, s.StartFlow(srv[0], srv[1], bytes, nil))
	}
	for _, f := range flows {
		f.done = func(float64) { order = append(order, f.ID) }
	}
	s.Eng.Run()
	want := []int64{flows[0].ID, flows[1].ID, flows[2].ID, flows[3].ID}
	if len(order) != len(want) {
		t.Fatalf("completions %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completions %v, want ascending flow IDs %v", order, want)
		}
	}
}

func TestFairSharingDisjointPaths(t *testing.T) {
	// Flows on disjoint paths do not interfere.
	s, srv := twoRackSim()
	var t1 float64
	f1 := s.StartFlow(srv[0], srv[1], 100, func(at float64) { t1 = at })
	f2 := s.StartFlow(srv[2], srv[3], 100, nil)
	s.RunUntilDone(f1)
	s.RunUntilDone(f2)
	if math.Abs(t1-1.02) > 1e-9 {
		t.Errorf("disjoint flow slowed down: %v", t1)
	}
}

func TestMaxMinRateRedistribution(t *testing.T) {
	// A short flow finishing early returns capacity to a long flow.
	s, srv := twoRackSim()
	var tLong float64
	long := s.StartFlow(srv[0], srv[1], 150, func(at float64) { tLong = at })
	s.StartFlow(srv[0], srv[1], 50, nil)
	s.RunUntilDone(long)
	// Phase 1: both at 50 B/s until the short flow drains 50 bytes (1 s
	// after activation at 0.02). Long has 100 left, then runs at 100 B/s
	// for 1 s. Total: 0.02 + 1 + 1 = 2.02.
	if math.Abs(tLong-2.02) > 1e-6 {
		t.Errorf("long flow finished at %v, want 2.02", tLong)
	}
}

func TestCrossRackContentionOnUplink(t *testing.T) {
	// Many cross-rack flows can saturate the 1000 B/s core uplink.
	tr := topo.NewTree(topo.TreeConfig{Racks: 2, ServersPerRack: 20, IntraRackBps: 100, InterRackBps: 1000, HopLatency: 1e-12})
	s := New(tr)
	srv := tr.Servers()
	// 20 flows rack0 -> rack1, each limited to min(100, 1000/20=50) = 50 B/s.
	var last float64
	var flows []*Flow
	for i := 0; i < 20; i++ {
		f := s.StartFlow(srv[i], srv[20+i], 100, func(at float64) { last = at })
		flows = append(flows, f)
	}
	for _, f := range flows {
		s.RunUntilDone(f)
	}
	if math.Abs(last-2.0) > 1e-6 {
		t.Errorf("uplink-contended flows finished at %v, want 2.0", last)
	}
}

func TestPingpong(t *testing.T) {
	s, srv := twoRackSim()
	alpha, beta := s.Pingpong(srv[0], srv[1], 1000)
	// Alpha ≈ 2 hops latency + 1 byte at 100 B/s = 0.02 + 0.01 = 0.03.
	if math.Abs(alpha-0.03) > 1e-9 {
		t.Errorf("alpha %v", alpha)
	}
	// Beta ≈ 100 B/s (the bottleneck link).
	if math.Abs(beta-100) > 1.0 {
		t.Errorf("beta %v", beta)
	}
}

func TestBackgroundTrafficInterferes(t *testing.T) {
	s, srv := twoRackSim()
	rng := rand.New(rand.NewSource(1))
	// Heavy background: essentially always sending on the same path.
	bg := s.AddBackground(rng, srv[0], srv[1], 1e6, 0.001)
	elapsed := s.Transfer(srv[0], srv[1], 100)
	bg.Stop()
	// With a competitor almost always active, the probe should take about
	// twice the exclusive time (1.02); allow a broad band.
	if elapsed < 1.5 {
		t.Errorf("background should slow the probe: %v", elapsed)
	}
}

func TestBackgroundStop(t *testing.T) {
	s, srv := twoRackSim()
	rng := rand.New(rand.NewSource(2))
	bg := s.AddBackground(rng, srv[0], srv[1], 100, 0.5)
	bg.Stop()
	// After stopping, the queue should drain in bounded steps.
	steps := 0
	for s.Eng.Step() {
		steps++
		if steps > 10000 {
			t.Fatal("background did not stop")
		}
	}
}

func TestActiveFlowsAccounting(t *testing.T) {
	s, srv := twoRackSim()
	f := s.StartFlow(srv[0], srv[1], 100, nil)
	if s.ActiveFlows() != 0 {
		t.Error("flow should not be active before latency elapses")
	}
	s.Eng.RunUntil(0.03)
	if s.ActiveFlows() != 1 {
		t.Error("flow should be active after activation")
	}
	s.RunUntilDone(f)
	if s.ActiveFlows() != 0 {
		t.Error("flow should be removed after completion")
	}
	if !f.Finished() {
		t.Error("finished flag")
	}
	if f.Start() != 0 {
		t.Error("start time")
	}
}

func TestRunUntilDonePanicsOnDrain(t *testing.T) {
	s, srv := twoRackSim()
	f := &Flow{ID: 999}
	_ = srv
	mustPanic(t, func() { s.RunUntilDone(f) })
}

// Conservation property: total bytes delivered equals total bytes sent for
// a randomized batch of concurrent flows.
func TestPropertyAllFlowsComplete(t *testing.T) {
	tr := topo.NewTree(topo.TreeConfig{Racks: 4, ServersPerRack: 4, IntraRackBps: 1e6, InterRackBps: 4e6, HopLatency: 1e-4})
	srv := tr.Servers()
	for seed := int64(0); seed < 10; seed++ {
		s := New(tr)
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		completed := 0
		var flows []*Flow
		for i := 0; i < n; i++ {
			a := srv[rng.Intn(len(srv))]
			b := srv[rng.Intn(len(srv))]
			if a == b {
				continue
			}
			f := s.StartFlow(a, b, 1000+rng.Float64()*1e6, func(float64) { completed++ })
			flows = append(flows, f)
		}
		s.Eng.Run()
		if completed != len(flows) {
			t.Fatalf("seed %d: %d/%d flows completed", seed, completed, len(flows))
		}
		for _, f := range flows {
			if !f.Finished() {
				t.Fatalf("seed %d: unfinished flow", seed)
			}
		}
	}
}

// Monotonicity property: adding a competing flow never speeds up a probe.
func TestPropertyContentionMonotonic(t *testing.T) {
	tr := topo.NewTree(topo.TreeConfig{Racks: 2, ServersPerRack: 4, IntraRackBps: 1e5, InterRackBps: 2e5, HopLatency: 1e-4})
	srv := tr.Servers()
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := srv[0], srv[4+rng.Intn(4)]
		bytes := 1e5 * (0.5 + rng.Float64())

		clean := New(tr).Transfer(a, b, bytes)

		s := New(tr)
		s.StartFlow(srv[1], srv[5], 1e6, nil) // competitor sharing the uplink
		loaded := s.Transfer(a, b, bytes)

		if loaded+1e-9 < clean {
			t.Fatalf("seed %d: contention sped up transfer: %v < %v", seed, loaded, clean)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() float64 {
		s, srv := twoRackSim()
		rng := rand.New(rand.NewSource(7))
		s.AddBackground(rng, srv[2], srv[3], 500, 0.2)
		s.AddBackground(rng, srv[0], srv[2], 300, 0.1)
		return s.Transfer(srv[0], srv[1], 1000)
	}
	if run() != run() {
		t.Error("same seed should replay identically")
	}
}

// Property: the max-min allocation is feasible, positive, and
// work-conserving throughout a randomized run.
func TestPropertyMaxMinInvariants(t *testing.T) {
	tr := topo.NewTree(topo.TreeConfig{Racks: 3, ServersPerRack: 4, IntraRackBps: 1e6, InterRackBps: 2e6, HopLatency: 1e-4})
	srv := tr.Servers()
	for seed := int64(0); seed < 6; seed++ {
		s := New(tr)
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 25; k++ {
			a := srv[rng.Intn(len(srv))]
			b := srv[rng.Intn(len(srv))]
			if a == b {
				continue
			}
			s.StartFlow(a, b, 1e5+rng.Float64()*1e6, nil)
		}
		steps := 0
		for s.Eng.Step() {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("seed %d after %d steps: %v", seed, steps, err)
			}
			steps++
			if steps > 100000 {
				t.Fatal("simulation did not drain")
			}
		}
	}
}

// Differential test for the tentpole optimization: on seeded random
// workloads — staggered arrivals, mixed sizes, background churn — every
// incremental recompute must produce rates bitwise equal to a fresh
// whole-network progressive fill over the same state. verifyGlobal makes
// the simulator itself run the reference allocator side by side after
// every event.
func TestDifferentialIncrementalVsGlobal(t *testing.T) {
	topos := []*topo.Topology{
		topo.NewTree(topo.TreeConfig{Racks: 3, ServersPerRack: 4, IntraRackBps: 1e6, InterRackBps: 2e6, HopLatency: 1e-4}),
		topo.NewTree(topo.TreeConfig{Racks: 4, ServersPerRack: 8, IntraRackBps: 1e8, InterRackBps: 4e8, HopLatency: 5e-5}),
		topo.NewFatTree(topo.FatTreeConfig{K: 4, LinkBps: 1e8, HopLatency: 1e-4}),
	}
	for seed := int64(1); seed <= 4; seed++ {
		for ti, tr := range topos {
			s := New(tr)
			s.verifyGlobal = true
			rng := rand.New(rand.NewSource(seed))
			srv := tr.Servers()
			// Staggered foreground arrivals with a wide size spread so
			// flows overlap and components merge and split repeatedly.
			for k := 0; k < 40; k++ {
				a := srv[rng.Intn(len(srv))]
				b := srv[rng.Intn(len(srv))]
				if a == b {
					continue
				}
				bytes := math.Pow(10, 4+3*rng.Float64())
				at := rng.Float64() * 2
				aa, bb := a, b
				s.Eng.Schedule(at, func() { s.StartFlow(aa, bb, bytes, nil) })
			}
			// Background churn on a few fixed pairs.
			var bgs []*Background
			for k := 0; k < 5; k++ {
				a := srv[rng.Intn(len(srv))]
				b := srv[(rng.Intn(len(srv)-1)+1+a)%len(srv)]
				if a == b {
					continue
				}
				bgs = append(bgs, s.AddBackground(rand.New(rand.NewSource(seed*100+int64(k))), a, b, 5e5, 0.05))
			}
			s.Eng.RunUntil(3)
			for _, b := range bgs {
				b.Stop()
			}
			s.Eng.RunUntil(6)
			if s.verifyErr != nil {
				t.Fatalf("seed %d topo %d: incremental diverged from global: %v", seed, ti, s.verifyErr)
			}
			if s.ActiveFlows() != 0 {
				// Background flows submitted before Stop may still drain.
				s.Eng.Run()
			}
			if s.verifyErr != nil {
				t.Fatalf("seed %d topo %d (drain): %v", seed, ti, s.verifyErr)
			}
		}
	}
}

// Property test over richer seeded workloads than the static-arrival one
// above: flows arrive over time, with background churn, and after every
// event the allocation must satisfy feasibility, positivity, and the
// max-min bottleneck condition.
func TestPropertyMaxMinInvariantsChurn(t *testing.T) {
	tr := topo.NewTree(topo.TreeConfig{Racks: 4, ServersPerRack: 4, IntraRackBps: 1e6, InterRackBps: 3e6, HopLatency: 1e-4})
	srv := tr.Servers()
	for seed := int64(0); seed < 8; seed++ {
		s := New(tr)
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 30; k++ {
			a := srv[rng.Intn(len(srv))]
			b := srv[rng.Intn(len(srv))]
			if a == b {
				continue
			}
			at := rng.Float64() * 3
			bytes := 1e4 + rng.Float64()*2e6
			aa, bb := a, b
			s.Eng.Schedule(at, func() { s.StartFlow(aa, bb, bytes, nil) })
		}
		bg := s.AddBackground(rand.New(rand.NewSource(seed+50)), srv[0], srv[len(srv)-1], 3e5, 0.1)
		steps := 0
		for s.Eng.Step() {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("seed %d after %d steps: %v", seed, steps, err)
			}
			steps++
			if steps > 5000 {
				bg.Stop()
			}
			if steps > 200000 {
				t.Fatal("simulation did not drain")
			}
		}
	}
}
