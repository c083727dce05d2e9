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
		// Fig 13's link rates: uplinks twice the server links, so a shared
		// uplink ties a folded server link whenever two flows cross it.
		topo.NewTree(topo.TreeConfig{Racks: 8, ServersPerRack: 8, IntraRackBps: 1e9 / 8, InterRackBps: 2e9 / 8, HopLatency: 5e-5}),
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

// A departure restores the rates its arrival replaced only when it is
// quiet. Here g arrives between f's arrival and f's departure, so the
// rates f's arrival replaced are stale and f's departure must refill:
// g then runs alone at the full 100 B/s. Afterwards h arrives beside k
// and leaves before anything else happens, so its departure restores k's
// rate without a fill. A second h on the same links then arrives without
// a fill too (a redo), and after a RefillAll in between its departure is
// refilled again. Arrivals on other links, or after an intervening
// update, fill. The reference fill checks every step.
func TestQuietDepartureRestoresOnlyWhenQuiet(t *testing.T) {
	s, srv := twoRackSim()
	s.SetVerifyGlobal(true)
	var tf, tg float64
	f := s.StartFlow(srv[0], srv[1], 100, func(at float64) { tf = at })
	var g *Flow
	s.Eng.Schedule(0.5, func() { g = s.StartFlow(srv[0], srv[1], 100, func(at float64) { tg = at }) })
	s.Eng.RunUntil(1)
	epoch := s.epoch
	s.RunUntilDone(f)
	if s.epoch == epoch {
		t.Fatal("f's departure after g's arrival restored stale rates instead of refilling")
	}
	if g.rate != 100 {
		t.Fatalf("g's rate after f left is %v, want 100", g.rate)
	}
	s.RunUntilDone(g)
	// f drains 50 B alone from 0.02, then 50 B at 50 B/s from 0.52; g's
	// last 50 B run alone at 100 B/s.
	if math.Abs(tf-1.52) > 1e-9 || math.Abs(tg-2.02) > 1e-9 {
		t.Fatalf("f done at %v, g at %v; want 1.52 and 2.02", tf, tg)
	}

	k := s.StartFlow(srv[0], srv[1], 1000, nil)
	s.Eng.RunUntil(s.Now() + 0.1)
	alone := k.rate
	h := s.StartFlow(srv[0], srv[1], 10, nil)
	s.Eng.RunUntil(s.Now() + 0.05)
	if h.rate != 50 || k.rate != 50 {
		t.Fatalf("shared rates %v and %v, want 50 each", h.rate, k.rate)
	}
	epoch = s.epoch
	s.RunUntilDone(h)
	if s.epoch != epoch {
		t.Fatal("h's quiet departure ran a fill instead of restoring")
	}
	if k.rate != alone {
		t.Fatalf("k's restored rate %v, want its pre-arrival %v", k.rate, alone)
	}
	// The second h arrives on the first one's links with nothing in
	// between, so it takes the departed h's place without a fill.
	epoch, updates := s.epoch, s.recomputes
	h = s.StartFlow(srv[0], srv[1], 10, nil)
	s.Eng.RunUntil(s.Now() + 0.05)
	if s.epoch != epoch || s.recomputes != updates+1 {
		t.Fatalf("h's arrival after a quiet departure on its links: %d fills, %d updates; want a redo (0, 1)",
			s.epoch-epoch, s.recomputes-updates)
	}
	if h.rate != 50 || k.rate != 50 {
		t.Fatalf("redone rates %v and %v, want 50 each", h.rate, k.rate)
	}
	// A whole-network refill is an allocation update too: after it, the
	// next departure refills even though no flow came or went.
	s.RefillAll()
	epoch = s.epoch
	s.RunUntilDone(h)
	if s.epoch == epoch || k.rate != alone {
		t.Fatalf("departure after RefillAll: refilled %v, k's rate %v (want a refill and %v)", s.epoch != epoch, k.rate, alone)
	}

	// A quiet departure followed by an arrival on other links (srv[0]'s
	// uplink, but cross-rack) fills.
	h = s.StartFlow(srv[0], srv[1], 10, nil)
	s.RunUntilDone(h)
	epoch = s.epoch
	x := s.StartFlow(srv[0], srv[2], 10, nil)
	s.Eng.RunUntil(s.Now() + 0.05)
	if s.epoch == epoch {
		t.Fatal("an arrival on other links than the quiet departure's redid it instead of filling")
	}
	s.RunUntilDone(x)

	// A quiet departure, then an update (here a refill), then an arrival on
	// the departed flow's links: the arrival fills.
	h = s.StartFlow(srv[0], srv[1], 10, nil)
	s.RunUntilDone(h)
	s.RefillAll()
	epoch = s.epoch
	h = s.StartFlow(srv[0], srv[1], 10, nil)
	s.Eng.RunUntil(s.Now() + 0.05)
	if s.epoch == epoch {
		t.Fatal("an arrival after an intervening update redid a stale departure instead of filling")
	}
	s.RunUntilDone(h)
	s.RunUntilDone(k)
	if err := s.VerifyError(); err != nil {
		t.Fatal(err)
	}
}

// A redo commits in flow-ID order even when the newcomer is not the
// newest active flow. n (ID 1) starts after a (ID 0) on a's cross-rack
// path; m (ID 2) starts just after n on a shorter same-rack path sharing
// srv[0]'s link, so m is active before a arrives. a's arrival halves m's
// rate, a leaves quietly and m gets 100 B/s back, and then n arrives on
// a's links: the redo moves n and m, and must move n first.
func TestRedoCommitsInFlowIDOrder(t *testing.T) {
	s, srv := twoRackSim()
	s.SetVerifyGlobal(true)
	a := s.StartFlow(srv[0], srv[2], 0.5, nil) // active 0.04–0.05
	var n, m *Flow
	s.Eng.Schedule(0.012, func() { n = s.StartFlow(srv[0], srv[2], 1000, nil) }) // active from 0.052
	s.Eng.Schedule(0.013, func() { m = s.StartFlow(srv[0], srv[1], 1000, nil) }) // active from 0.033
	s.RunUntilDone(a)
	epoch, updates := s.epoch, s.recomputes
	for !n.draining {
		if !s.Eng.Step() {
			t.Fatal("event queue drained before n arrived")
		}
	}
	if s.epoch != epoch || s.recomputes != updates+1 {
		t.Fatalf("n's arrival: %d fills, %d updates; want a redo (0, 1)", s.epoch-epoch, s.recomputes-updates)
	}
	if n.ID > m.ID || n.rate != 50 || m.rate != 50 {
		t.Fatalf("n (ID %d) at %v, m (ID %d) at %v; want n's ID below m's and 50 each", n.ID, n.rate, m.ID, m.rate)
	}
	var moved []int64
	for _, u := range s.undo {
		moved = append(moved, u.f.ID)
	}
	if len(moved) != 2 || moved[0] != n.ID || moved[1] != m.ID {
		t.Fatalf("the redo moved flows %v, want n then m: [%d %d]", moved, n.ID, m.ID)
	}
	s.Eng.Run()
	if err := s.VerifyError(); err != nil {
		t.Fatal(err)
	}
}

// randomPair draws two distinct servers from srv.
func randomPair(rng *rand.Rand, srv []int) (int, int) {
	i := rng.Intn(len(srv))
	return srv[i], srv[(i+1+rng.Intn(len(srv)-1))%len(srv)]
}

// SKaMPI-style pingpongs under Poisson background load: the bulk probe
// usually arrives on its latency probe's links right after that probe's
// quiet departure, so its arrival is redone without a fill. The
// reference fill is armed over every update, redoes included, and the
// test counts the redone bulk arrivals to prove they happened.
func TestPingpongBulkProbesRedoUnderLoad(t *testing.T) {
	tr := topo.NewTree(topo.TreeConfig{Racks: 4, ServersPerRack: 4, IntraRackBps: 1e9 / 8, InterRackBps: 2e9 / 8, HopLatency: 5e-5})
	srv := tr.Servers()
	s := New(tr)
	s.SetVerifyGlobal(true)
	rng := rand.New(rand.NewSource(5))
	var bgs []*Background
	for k := 0; k < 6; k++ {
		a, b := randomPair(rng, srv)
		bgs = append(bgs, s.AddBackground(rand.New(rand.NewSource(int64(k))), a, b, 8<<20, 0.05))
	}
	const bulk = 1 << 20
	probes, redone := 0, 0
	for k := 0; k < 60; k++ {
		a, b := randomPair(rng, srv)
		s.Transfer(a, b, 1)
		f := s.StartFlow(a, b, bulk, nil)
		var epoch, updates int64
		for !f.draining {
			epoch, updates = s.epoch, s.recomputes
			if !s.Eng.Step() {
				t.Fatal("event queue drained before the bulk probe arrived")
			}
		}
		probes++
		if s.epoch == epoch && s.recomputes == updates+1 {
			redone++
		}
		s.RunUntilDone(f)
	}
	for _, b := range bgs {
		b.Stop()
	}
	s.Eng.Run()
	if err := s.VerifyError(); err != nil {
		t.Fatal(err)
	}
	if redone == 0 || redone == probes {
		t.Fatalf("%d of %d bulk probes redone; want some, and some filled under background load", redone, probes)
	}
	t.Logf("%d of %d bulk probes redone", redone, probes)
}

// The armed oracle checks the invariant commitDirty tests rates by: an
// active flow's timer is queued exactly when its rate is positive. A
// cancelled timer on a flow with a positive rate must be reported at the
// next update.
func TestVerifyCatchesIdleTimerAtPositiveRate(t *testing.T) {
	s, srv := twoRackSim()
	s.SetVerifyGlobal(true)
	f := s.StartFlow(srv[0], srv[1], 1000, nil)
	s.Eng.RunUntil(0.1)
	if err := s.VerifyError(); err != nil {
		t.Fatal(err)
	}
	f.timer.Cancel()
	s.RefillAll()
	if s.VerifyError() == nil {
		t.Fatal("an active flow at a positive rate with an idle timer passed the armed oracle")
	}
}

// A folded single-flow link and a shared link tie at one share, and the
// smaller link ID must win as it does in the reference fill. f crosses
// its own link (capacity 1/3) and a link of capacity 1 shared with g and
// h, whose share is 1/3 as well. Fixing f first leaves g and h
// (1-1/3)/2, one ulp above 1/3; fixing the shared link first gives all
// three 1/3. Both link orders are checked.
func TestFoldedLinkTieGoesToSmallerLinkID(t *testing.T) {
	for _, foldedFirst := range []bool{true, false} {
		g := topo.New()
		x := g.AddNode(topo.Server, 0)
		a := g.AddNode(topo.Server, 0)
		b := g.AddNode(topo.Server, 0)
		if foldedFirst {
			g.AddLink(x, a, 1.0/3, 0)
			g.AddLink(a, b, 1, 0)
		} else {
			g.AddLink(a, b, 1, 0)
			g.AddLink(x, a, 1.0/3, 0)
		}
		s := New(g)
		s.SetVerifyGlobal(true)
		fl := []*Flow{s.StartFlow(x, b, 1e9, nil), s.StartFlow(a, b, 1e9, nil), s.StartFlow(a, b, 1e9, nil)}
		s.Eng.RunUntil(1)
		if err := s.VerifyError(); err != nil {
			t.Fatalf("folded first %v: %v", foldedFirst, err)
		}
		third := 1.0 / 3
		want := third
		if foldedFirst {
			want = (1 - third) / 2
		}
		if fl[0].rate != third || fl[1].rate != want || fl[2].rate != want {
			t.Fatalf("folded first %v: rates %v %v %v, want %v %v %v",
				foldedFirst, fl[0].rate, fl[1].rate, fl[2].rate, third, want, want)
		}
	}
}

// loadedTree is Fig 13's link rates on a 4×4-rack tree with six Poisson
// background sources sending 8 MB messages at λ = 0.05 s, seeded.
func loadedTree(seed int64) (*Sim, []int, []*Background) {
	tr := topo.NewTree(topo.TreeConfig{Racks: 4, ServersPerRack: 4, IntraRackBps: 1e9 / 8, InterRackBps: 2e9 / 8, HopLatency: 5e-5})
	srv := tr.Servers()
	s := New(tr)
	rng := rand.New(rand.NewSource(seed))
	var bgs []*Background
	for k := 0; k < 6; k++ {
		a, b := randomPair(rng, srv)
		bgs = append(bgs, s.AddBackground(rand.New(rand.NewSource(seed*10+int64(k))), a, b, 8<<20, 0.05))
	}
	return s, srv, bgs
}

// After warm-up a pingpong allocates nothing, although background
// messages start and complete while it runs: each probe and each message
// starts in a completed flow from the simulator's free list, keeping that
// flow's timer and the closure bound to it, and every scratch slice, the
// event heap and the small s.active map have reached the size this load
// needs. A background source has at most one message in flight, so six
// sources and one probe never need more than seven flows.
func TestPingpongSteadyStateAllocationFree(t *testing.T) {
	s, srv, _ := loadedTree(5)
	a, b := srv[0], srv[len(srv)-1]
	const bulk = 1 << 20
	for k := 0; k < 50; k++ {
		s.Pingpong(a, b, bulk)
	}
	const runs = 200
	started := s.nextID
	if allocs := testing.AllocsPerRun(runs, func() { s.Pingpong(a, b, bulk) }); allocs != 0 {
		t.Fatalf("a warm pingpong under background load made %v allocations, want 0", allocs)
	}
	// AllocsPerRun makes one more call than runs.
	if bg := s.nextID - started - 2*(runs+1); bg == 0 {
		t.Fatal("no background message started during the measured pingpongs")
	}
	if len(s.free) > 7 {
		t.Fatalf("%d flows on the free list; six sources and one probe need at most 7", len(s.free))
	}
}

// StartFlow's handles stay their callers': the simulator never starts
// another flow in one, while the flows of Transfer and of background
// messages go back to the free list and are started again. Handles,
// transfers and background messages interleave under the armed reference
// fill; after every handle has completed and more transfers have run,
// each handle still reports its own ID, start time and completion, its
// done callback ran once, no handle ever sat on the free list, the list
// never held one flow twice or a live flow, and the allocator matched the
// reference at every update.
func TestStartFlowHandlesAreNeverReused(t *testing.T) {
	s, srv, bgs := loadedTree(9)
	s.SetVerifyGlobal(true)
	rng := rand.New(rand.NewSource(9))
	type handle struct {
		f        *Flow
		id       int64
		start    float64
		doneAt   float64
		doneRuns int
	}
	hs := make([]*handle, 0, 40)
	handles := map[*Flow]bool{}
	recycled := map[*Flow]bool{}
	checkFree := func(when string) {
		t.Helper()
		seen := map[*Flow]bool{}
		for _, f := range s.free {
			if seen[f] {
				t.Fatalf("%s: flow struct %p is on the free list twice", when, f)
			}
			seen[f] = true
			if s.active[f.ID] == f || !f.finished {
				t.Fatalf("%s: live flow %d is on the free list", when, f.ID)
			}
			recycled[f] = true
		}
	}
	for k := 0; k < 40; k++ {
		a, b := randomPair(rng, srv)
		h := &handle{start: s.Now()}
		h.f = s.StartFlow(a, b, float64(1+rng.Intn(4<<20)), func(at float64) { h.doneAt, h.doneRuns = at, h.doneRuns+1 })
		h.id = h.f.ID
		hs = append(hs, h)
		handles[h.f] = true
		a, b = randomPair(rng, srv)
		s.Transfer(a, b, float64(1+rng.Intn(1<<20)))
		checkFree("after a transfer")
	}
	for _, h := range hs {
		s.RunUntilDone(h.f)
		checkFree("after a handle completed")
	}
	for k := 0; k < 40; k++ {
		a, b := randomPair(rng, srv)
		s.Pingpong(a, b, 1<<20)
		checkFree("after a later pingpong")
	}
	for _, bg := range bgs {
		bg.Stop()
	}
	s.Eng.Run()
	checkFree("after the drain")
	if len(recycled) == 0 {
		t.Fatal("no flow was recycled")
	}
	for f := range recycled {
		if handles[f] {
			t.Fatalf("handle of flow %d was recycled", f.ID)
		}
	}
	for _, h := range hs {
		if h.f.ID != h.id || h.f.Start() != h.start || !h.f.Finished() || h.doneRuns != 1 {
			t.Fatalf("handle of flow %d reads ID %d, start %v (want %v), finished %v, done ran %d times",
				h.id, h.f.ID, h.f.Start(), h.start, h.f.Finished(), h.doneRuns)
		}
	}
	if err := s.VerifyError(); err != nil {
		t.Fatal(err)
	}
}
