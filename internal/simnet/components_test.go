package simnet

import (
	"math"
	"math/rand"
	"testing"

	"netconstant/internal/topo"
)

// Kept components merge on a bridging arrival, stay coarse after the
// bridge leaves, and are re-derived once they may have split more times
// than they have flows. On a 2×4 tree, a1 and a2 share srv0's and srv1's
// links and b runs alone from srv2 to srv3, so there are two components.
// A bridge from srv0 to srv2 merges them; its departure leaves other
// flows on two of its links, which may split the component, and counts a
// split, while a flow that leaves others on one link only (w) or on none
// (o) never counts. The coarse component's fills must match the reference
// fill bit for bit (the oracle is armed over every update), and the
// departure that brings the splits above the component's three flows
// must leave the two components it holds.
func TestComponentsMergeSplitRederive(t *testing.T) {
	tr := topo.NewTree(topo.TreeConfig{Racks: 2, ServersPerRack: 4, IntraRackBps: 100, InterRackBps: 1000, HopLatency: 0.01})
	srv := tr.Servers()
	s := New(tr)
	s.SetVerifyGlobal(true)
	a1 := s.StartFlow(srv[0], srv[1], 1e30, nil)
	a2 := s.StartFlow(srv[0], srv[1], 1e30, nil)
	b := s.StartFlow(srv[2], srv[3], 1e30, nil)
	s.Eng.RunUntil(0.1)
	check := func(when string) {
		t.Helper()
		if err := s.VerifyError(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("start")
	if a1.comp != a2.comp || a1.comp == b.comp || len(a1.comp.flows) != 2 || len(b.comp.flows) != 1 {
		t.Fatalf("start: components of sizes %d and %d, a1 and b apart %v; want {a1, a2} and {b}",
			len(a1.comp.flows), len(b.comp.flows), a1.comp != b.comp)
	}
	// run steps the engine until f has arrived.
	arrive := func(f *Flow) {
		t.Helper()
		for !f.draining {
			if !s.Eng.Step() {
				t.Fatal("event queue drained before a flow arrived")
			}
		}
	}
	// unquiet starts a one-byte flow on rack 1's last two servers, which
	// no other flow crosses; its arrival is an update, so the flow that
	// arrived before it departs unquietly, and its own departure leaves
	// no flow on its links.
	unquiet := func() {
		t.Helper()
		o := s.StartFlow(srv[6], srv[7], 1, nil)
		arrive(o)
		c, splits := a1.comp, a1.comp.splits
		s.RunUntilDone(o)
		if a1.comp != c || c.splits != splits {
			t.Fatal("a departure that left no flow on its links changed the component or counted a split")
		}
	}
	// bridge runs one flow from srv0 to srv2, which merges the components,
	// and returns the departure's split count and whether it refilled.
	bridge := func(quiet bool) (splits int, filled bool) {
		t.Helper()
		x := s.StartFlow(srv[0], srv[2], 10, nil)
		arrive(x)
		if x.comp != a1.comp || x.comp != b.comp || len(x.comp.flows) != 4 {
			t.Fatalf("a bridging arrival left components of a1, b and x apart (%d flows with x)", len(x.comp.flows))
		}
		if !quiet {
			unquiet()
		}
		epoch := s.epoch
		s.RunUntilDone(x)
		return a1.comp.splits, s.epoch != epoch
	}

	// The first bridge's departure is not quiet: it fills the coarse
	// component, {a1, a2, b}, and counts a split.
	splits, filled := bridge(false)
	check("first bridge")
	if !filled || a1.comp != b.comp || splits != 1 {
		t.Fatalf("first bridge: filled %v, a1 and b together %v, %d splits; want a fill, one component, 1 split", filled, a1.comp == b.comp, splits)
	}
	// A departure that leaves other flows on one of its links only (w
	// shares srv1's link with a1 and a2; its other links are its own)
	// cannot split the component and does not count, quiet or not. w's
	// arrivals fill the coarse component, or redo after a quiet
	// departure, and the oracle checks both against the reference.
	for _, quiet := range []bool{true, false} {
		w := s.StartFlow(srv[1], srv[5], 10, nil)
		arrive(w)
		if !quiet {
			unquiet()
		}
		before := a1.comp.splits
		s.RunUntilDone(w)
		if a1.comp.splits != before {
			t.Fatalf("w's departure (quiet %v), which leaves flows on one link, counted a split", quiet)
		}
	}
	check("one-link departures")
	// A quiet bridge departure restores instead of filling, and counts.
	if splits, filled = bridge(true); filled || splits != 2 {
		t.Fatalf("quiet bridge: filled %v, %d splits; want a restore and 2 splits", filled, splits)
	}
	if splits, _ = bridge(false); splits != 3 || a1.comp != b.comp {
		t.Fatalf("third bridge: %d splits, a1 and b together %v; want 3 splits and one component", splits, a1.comp == b.comp)
	}
	// The fourth split exceeds the component's three flows: the
	// departure's fill re-derives it into {a1, a2} and {b}.
	epoch := s.epoch
	if splits, filled = bridge(false); !filled || a1.comp == b.comp {
		t.Fatalf("fourth bridge: filled %v, a1 and b together %v; want a re-derived fill and two components", filled, a1.comp == b.comp)
	}
	if a1.comp.splits != 0 || b.comp.splits != 0 || len(a1.comp.flows) != 2 || len(b.comp.flows) != 1 || a1.comp != a2.comp {
		t.Fatalf("re-derived components of sizes %d and %d with %d and %d splits; want {a1, a2} and {b} with none",
			len(a1.comp.flows), len(b.comp.flows), a1.comp.splits, b.comp.splits)
	}
	if s.epoch-epoch != 3 {
		t.Fatalf("the fourth bridge ran %d fills, want 3 (its arrival, the unquiet arrival, its departure)", s.epoch-epoch)
	}
	check("re-derivation")
}

// keptFillRatio bounds the flows a kept component's fills cover against
// the flows fills restricted to the changed flow's exact connected
// components (what a breadth-first search from its path reaches) would
// cover, summed over every fill of an armed churn run. This workload
// measured 1.083 (2,211 fills: kept 5,271 flows, exact 4,866); with
// re-derivation switched off it read 8.4.
const keptFillRatio = 1.25

// A kept component is always a union of connected components, so a fill
// of it may cover flows an exact fill would not touch; re-deriving after
// more possible splits than flows keeps that surplus small. On a 32-leaf
// Clos fabric, a long flow and a Poisson source on one pair per leaf form
// many small components that never empty, and 80 cross-leaf flows at
// random times bridge them, merging components that their departures
// split again. Every fill's flows are counted by marking each
// active flow's newRate NaN before an event (a fill writes the newRate
// of every flow it covers), and compared with the flows reachable from
// the changed flow's path. The reference fill is armed throughout.
func TestKeptComponentsStayNearExact(t *testing.T) {
	tr := topo.NewClos(topo.ClosConfig{Leaves: 32, ServersPerLeaf: 4, Spines: 2, ServerBps: 1e6, HopLatency: 1e-4})
	srv := tr.Servers()
	s := New(tr)
	s.SetVerifyGlobal(true)
	rng := rand.New(rand.NewSource(11))
	var bgs []*Background
	for leaf := 0; leaf < 32; leaf++ {
		i := rng.Intn(4)
		j := (i + 1 + rng.Intn(3)) % 4
		a, b := srv[leaf*4+i], srv[leaf*4+j]
		s.StartFlow(a, b, 1e30, nil)
		bgs = append(bgs, s.AddBackground(rand.New(rand.NewSource(int64(100+leaf))), a, b, 2e5, 0.2))
	}
	for k := 0; k < 80; k++ {
		a, b := randomPair(rng, srv)
		bytes, at := 1e5+9e5*rng.Float64(), 20*rng.Float64()
		s.Eng.Schedule(at, func() { s.StartFlow(a, b, bytes, nil) })
	}
	var kept, exact, fills int
	before := map[int64]*Flow{}
	for s.Now() < 20 {
		clear(before)
		for id, f := range s.active {
			before[id] = f
			f.newRate = math.NaN()
		}
		epoch := s.epoch
		if !s.Eng.Step() {
			t.Fatal("event queue drained")
		}
		if s.epoch == epoch {
			continue // no fill: a restore, a redo, or no update
		}
		var changed *Flow
		for id, f := range s.active {
			if before[id] == nil {
				changed = f
			}
			if !math.IsNaN(f.newRate) {
				kept++
			}
		}
		for id, f := range before {
			if s.active[id] == nil {
				changed = f
			}
		}
		if changed == nil {
			t.Fatal("a fill ran with no flow arriving or departing")
		}
		exact += reachable(s, changed.path)
		fills++
	}
	for _, b := range bgs {
		b.Stop()
	}
	if err := s.VerifyError(); err != nil {
		t.Fatal(err)
	}
	ratio := float64(kept) / float64(exact)
	t.Logf("%d fills: kept components filled %d flows, exact components %d (×%.3f)", fills, kept, exact, ratio)
	if fills < 1000 {
		t.Fatalf("only %d fills ran; the churn is too light to measure", fills)
	}
	if ratio > keptFillRatio {
		t.Fatalf("kept components filled %d flows, %.3f× the %d exact components hold; want at most %v×", kept, ratio, exact, keptFillRatio)
	}
}

// reachable counts the active flows connected to the links of path in
// the flow↔link sharing graph, by a search of its own.
func reachable(s *Sim, path []topo.LinkID) int {
	seen := map[*Flow]bool{}
	queue := append([]topo.LinkID(nil), path...)
	for len(queue) > 0 {
		l := queue[0]
		queue = queue[1:]
		for _, f := range s.linkFlows[l] {
			if !seen[f] {
				seen[f] = true
				queue = append(queue, f.path...)
			}
		}
	}
	return len(seen)
}
