package simnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"netconstant/internal/topo"
)

// randomFabric builds a small random Clos or fat-tree from the seed rng —
// multi-path fabrics that exercise ECMP routing and component sharding.
func randomFabric(rng *rand.Rand) *topo.Topology {
	switch rng.Intn(3) {
	case 0:
		return topo.NewClos(topo.ClosConfig{
			Leaves:         2 + rng.Intn(3),
			ServersPerLeaf: 2 + rng.Intn(2),
			Spines:         2 + rng.Intn(2),
			ServerBps:      1e6,
		})
	case 1:
		return topo.NewClos(topo.ClosConfig{
			Stages:         3,
			Pods:           2,
			Leaves:         2,
			ServersPerLeaf: 2,
			Spines:         2,
			SuperSpines:    2,
			ServerBps:      1e6,
		})
	default:
		return topo.NewFatTree(topo.FatTreeConfig{K: 4, LinkBps: 1e6, HopLatency: 1e-4})
	}
}

// loadFabric drives a seeded workload — staggered random pair flows plus
// background churn — to simulated time 3 and returns the simulator with
// flows still in flight.
func loadFabric(tr *topo.Topology, seed int64, verify bool) *Sim {
	s := New(tr)
	s.SetVerifyGlobal(verify)
	rng := rand.New(rand.NewSource(seed))
	srv := tr.Servers()
	for k := 0; k < 50; k++ {
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
	for k := 0; k < 4; k++ {
		a := srv[rng.Intn(len(srv))]
		b := srv[(a+1+rng.Intn(len(srv)-1))%len(srv)]
		if a == b {
			continue
		}
		s.AddBackground(rand.New(rand.NewSource(seed*100+int64(k))), a, b, 5e5, 0.05)
	}
	s.Eng.RunUntil(3)
	return s
}

// Property test: on random Clos and fat-tree fabrics with random
// placements and background flows, the component-sharded fill must match
// the whole-network reference fill (verifyGlobal runs it side by side
// after every event), and a whole-network refill must see at least one
// component when flows are active.
func TestPropertyShardedByteIdenticalAcrossWorkers(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		tr := randomFabric(rand.New(rand.NewSource(seed)))
		s := loadFabric(tr, seed, true)
		comps, flows := s.RefillAll()
		if err := s.VerifyError(); err != nil {
			t.Fatalf("seed %d: sharded fill diverged from global: %v", seed, err)
		}
		if comps < 1 && flows > 0 {
			t.Fatalf("seed %d: refill saw %d components for %d flows", seed, comps, flows)
		}
	}
}

// Many disjoint same-leaf pairs form many independent components, and a
// RefillAll seeds them all at once: the refill must find each leaf's
// component and match the whole-network reference fill.
func TestManyComponentParallelRefill(t *testing.T) {
	tr := topo.NewClos(topo.ClosConfig{Leaves: 32, ServersPerLeaf: 4, Spines: 2, ServerBps: 1e6})
	srv := tr.Servers()
	s := New(tr)
	s.SetVerifyGlobal(true)
	// Three flows per leaf, strictly leaf-local: each leaf is its own
	// connected component of the sharing graph.
	for leaf := 0; leaf < 32; leaf++ {
		base := leaf * 4
		s.StartFlow(srv[base], srv[base+1], 1e9, nil)
		s.StartFlow(srv[base+1], srv[base+2], 1e9, nil)
		s.StartFlow(srv[base+2], srv[base+3], 1e9, nil)
	}
	s.Eng.RunUntil(1)
	comps, flows := s.RefillAll()
	if err := s.VerifyError(); err != nil {
		t.Fatal(err)
	}
	if comps != 32 || flows != 96 {
		t.Fatalf("refill shape (%d comps, %d flows), want (32, 96)", comps, flows)
	}
}

// The bottleneck-structure fill must agree with progressive-filling
// max-min within floating-point tolerance on random fabrics.
func TestBottleneckBackendAgreesWithMaxMin(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		tr := randomFabric(rand.New(rand.NewSource(seed + 80)))
		s := loadFabric(tr, seed, false)
		if rel := s.AllocatorAgreement(); rel > 1e-9 {
			t.Fatalf("seed %d: fills disagree by %g relative", seed, rel)
		}
	}
}

// RefillAll recomputes the standing allocation bit for bit: the fingerprint must not move and unchanged flows must
// keep their completion timers (the event count stays put).
func TestRefillAllIsANoOp(t *testing.T) {
	tr := randomFabric(rand.New(rand.NewSource(3)))
	s := loadFabric(tr, 3, true)
	before := s.RateFingerprint()
	for i := 0; i < 3; i++ {
		if _, flows := s.RefillAll(); flows != s.ActiveFlows() {
			t.Fatalf("refill %d visited %d flows, %d active", i, flows, s.ActiveFlows())
		}
	}
	if after := s.RateFingerprint(); after != before {
		t.Fatalf("RefillAll changed rates: %#x -> %#x", before, after)
	}
	if err := s.VerifyError(); err != nil {
		t.Fatal(err)
	}
}

// ECMP routing: cached pair paths must be valid shortest paths, stable
// across simulators, independent of flow order, and must match
// topo.Route exactly on unique-path topologies.
func TestECMPRouting(t *testing.T) {
	g := topo.NewClos(topo.ClosConfig{Leaves: 4, ServersPerLeaf: 2, Spines: 4, ServerBps: 1e6})
	srv := g.Servers()
	s1, s2 := New(g), New(g)
	seen := map[topo.LinkID]bool{}
	for i := 0; i < len(srv); i++ {
		for j := 0; j < len(srv); j++ {
			if i == j {
				continue
			}
			p1, m1, err := s1.routeFor(srv[i], srv[j])
			if err != nil {
				t.Fatalf("route %d->%d: %v", srv[i], srv[j], err)
			}
			p2, m2, _ := s2.routeFor(srv[i], srv[j])
			if len(p1) != len(p2) || m1 != m2 {
				t.Fatalf("route %d->%d not reproducible", srv[i], srv[j])
			}
			for k := range p1 {
				if p1[k] != p2[k] {
					t.Fatalf("route %d->%d differs across simulators", srv[i], srv[j])
				}
			}
			// Validate the walk: consecutive links share nodes, src to dst.
			cur := srv[i]
			for _, id := range p1 {
				l := g.Link(id)
				switch cur {
				case l.A:
					cur = l.B
				case l.B:
					cur = l.A
				default:
					t.Fatalf("route %d->%d: disconnected walk", srv[i], srv[j])
				}
				seen[id] = true
			}
			if cur != srv[j] {
				t.Fatalf("route %d->%d ends at %d", srv[i], srv[j], cur)
			}
			// Same-leaf pairs are unique-path (2 hops); cross-leaf pairs
			// have one path per spine and must be flagged multipath.
			if g.SameRack(srv[i], srv[j]) {
				if m1 || len(p1) != 2 {
					t.Fatalf("same-leaf route %d->%d: multi=%v len=%d", srv[i], srv[j], m1, len(p1))
				}
			} else {
				if !m1 || len(p1) != 4 {
					t.Fatalf("cross-leaf route %d->%d: multi=%v len=%d", srv[i], srv[j], m1, len(p1))
				}
			}
		}
	}
	// The pair hash must actually spread load: with 4 spines and 56
	// cross-leaf pairs, several distinct uplinks must be exercised.
	uplinks := 0
	for id := range seen {
		l := g.Link(id)
		if g.Node(l.A).Kind == topo.Switch && g.Node(l.B).Kind == topo.Switch {
			uplinks++
		}
	}
	if uplinks < 8 {
		t.Errorf("ECMP used only %d distinct uplinks", uplinks)
	}

	// Unique-path topologies: ECMP resolves to exactly topo.Route's path.
	tr := topo.NewTree(topo.TreeConfig{Racks: 3, ServersPerRack: 3})
	st := New(tr)
	tsrv := tr.Servers()
	for i := 0; i < len(tsrv); i++ {
		for j := 0; j < len(tsrv); j++ {
			if i == j {
				continue
			}
			want, werr := tr.RouteE(tsrv[i], tsrv[j])
			got, multi, err := st.routeFor(tsrv[i], tsrv[j])
			if werr != nil || err != nil || multi || len(got) != len(want) {
				t.Fatalf("tree route %d->%d: multi=%v err=%v reference err=%v", tsrv[i], tsrv[j], multi, err, werr)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("tree route %d->%d deviates from topo.Route", tsrv[i], tsrv[j])
				}
			}
		}
	}
	total, multi := st.ECMPPairs()
	if total != 0 || multi != 0 {
		t.Errorf("routeFor must not populate the pair cache (%d, %d)", total, multi)
	}
	st.StartFlow(tsrv[0], tsrv[1], 10, nil)
	if total, multi = st.ECMPPairs(); total != 1 || multi != 0 {
		t.Errorf("pair stats after one tree flow: (%d, %d)", total, multi)
	}
}

// Flows on a multipath fabric must actually traverse ECMP-chosen paths:
// StartFlow panics would surface here if routing refused multi-path
// pairs the way topo.Route does.
func TestStartFlowAcrossMultipathFabric(t *testing.T) {
	g := topo.NewClos(topo.ClosConfig{Leaves: 2, ServersPerLeaf: 2, Spines: 2, ServerBps: 100})
	s := New(g)
	srv := g.Servers()
	elapsed := s.Transfer(srv[0], srv[2], 100) // cross-leaf
	if elapsed <= 0 {
		t.Fatalf("elapsed %v", elapsed)
	}
	if _, multi := s.ECMPPairs(); multi != 1 {
		t.Errorf("cross-leaf pair not counted as multipath")
	}
}

// scaledCopy rebuilds t with every link capacity multiplied by c: the same
// nodes and links in the same order, so link IDs and ECMP routes match.
func scaledCopy(t *topo.Topology, c float64) *topo.Topology {
	g := topo.New()
	for i := 0; i < t.NumNodes(); i++ {
		n := t.Node(i)
		g.AddNode(n.Kind, n.Rack)
	}
	for i := 0; i < t.NumLinks(); i++ {
		l := t.Link(topo.LinkID(i))
		g.AddLink(l.A, l.B, l.Capacity*c, l.Latency)
	}
	return g
}

// rateLog runs the metamorphic script on tr and returns every active
// flow's rate, in flow-ID order, after each event, plus the number of
// bulk probes whose arrival was redone. Twelve long flows on seeded pairs
// start and run until all are active; then twenty pingpongs run on top,
// one at a time. The long flows never complete, so the event sequence is
// the same at any capacity scale: fills, restores and redoes alike. The
// armed oracle stops the script at its first mismatch.
func rateLog(tr *topo.Topology, seed int64) (log [][]float64, redone int, err error) {
	s := New(tr)
	s.SetVerifyGlobal(true)
	rng := rand.New(rand.NewSource(seed))
	srv := tr.Servers()
	// until steps the engine until done reports true, logging the rates
	// after every event.
	until := func(done func() bool) error {
		for !done() {
			if !s.Eng.Step() {
				return errors.New("event queue drained")
			}
			if err := s.VerifyError(); err != nil {
				return err
			}
			rates := make([]float64, 0, len(s.active))
			for id := int64(0); id < s.nextID; id++ {
				if f, ok := s.active[id]; ok {
					rates = append(rates, f.rate)
				}
			}
			log = append(log, rates)
		}
		return nil
	}
	var long []*Flow
	for k := 0; k < 12; k++ {
		a, b := randomPair(rng, srv)
		long = append(long, s.StartFlow(a, b, 1e30, nil))
	}
	for _, f := range long {
		if err := until(func() bool { return f.draining }); err != nil {
			return nil, 0, err
		}
	}
	for k := 0; k < 20; k++ {
		a, b := randomPair(rng, srv)
		probe := s.StartFlow(a, b, 1, nil)
		if err := until(func() bool { return probe.finished }); err != nil {
			return nil, 0, err
		}
		// Only the long flows' distant completions are queued besides
		// bulk's activation, so that is the next event.
		bulk := s.StartFlow(a, b, 1<<20, nil)
		epoch, updates := s.epoch, s.recomputes
		if err := until(func() bool { return bulk.draining }); err != nil {
			return nil, 0, err
		}
		if s.epoch == epoch && s.recomputes == updates+1 {
			redone++
		}
		if err := until(func() bool { return bulk.finished }); err != nil {
			return nil, 0, err
		}
	}
	return log, redone, nil
}

// Metamorphic max-min relation: scaling every link capacity by a power of
// two scales every flow's rate by exactly that factor, bit for bit. Every
// operation of the fill is a comparison, a subtraction or a division by a
// flow count, and each commutes exactly with a power-of-two scale, so a
// fill, a restore and a redo must all honour it after every event. Run on
// a tree whose single-flow server links fold into per-flow caps and on an
// oversubscribed Clos fabric with ECMP routes.
func TestMaxMinScalesWithCapacity(t *testing.T) {
	tree := topo.NewTree(topo.TreeConfig{Racks: 4, ServersPerRack: 4, IntraRackBps: 1e9 / 8, InterRackBps: 2e9 / 8, HopLatency: 5e-5})
	clos := topo.NewClos(topo.ClosConfig{Leaves: 4, ServersPerLeaf: 4, Spines: 2, ServerBps: 1e6, Oversubscription: 4, HopLatency: 1e-4})
	cases := []struct {
		name    string
		tr      *topo.Topology
		seeds   []int64
		factors []float64
	}{
		{"tree", tree, []int64{1, 2, 3, 4, 5}, []float64{0.25, 4, 1024}},
		{"clos", clos, []int64{1, 2}, []float64{0.5, 8}},
	}
	for _, tc := range cases {
		for _, seed := range tc.seeds {
			base, redone, err := rateLog(tc.tr, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			if redone == 0 {
				t.Fatalf("%s seed %d: no bulk probe was redone", tc.name, seed)
			}
			for _, c := range tc.factors {
				got, _, err := rateLog(scaledCopy(tc.tr, c), seed)
				if err != nil {
					t.Fatalf("%s seed %d ×%v: %v", tc.name, seed, c, err)
				}
				if len(got) != len(base) {
					t.Fatalf("%s seed %d ×%v: %d events, want %d", tc.name, seed, c, len(got), len(base))
				}
				for e := range base {
					if len(got[e]) != len(base[e]) {
						t.Fatalf("%s seed %d ×%v event %d: %d active flows, want %d", tc.name, seed, c, e, len(got[e]), len(base[e]))
					}
					for i, r := range base[e] {
						//netlint:allow floatsafe the metamorphic relation is exact: a power-of-two scale commutes with every rounding the fill makes
						if got[e][i] != r*c {
							t.Fatalf("%s seed %d ×%v event %d flow %d: rate %v, want %v×%v = %v", tc.name, seed, c, e, i, got[e][i], r, c, r*c)
						}
					}
				}
			}
		}
	}
}

// TestFillPanicsOnDuplicateListing: a flow listed twice on a shared link
// leaves that link's unfixed count one above the flows a fix can take
// off it. When another flow is still unfixed after the link's own, the
// link keeps winning fill rounds that fix nothing; the fill must panic
// naming the link instead of hanging. When the link carries every flow
// the fill ends, and the armed oracle must reject the listing instead.
// Three flows on a 2×2 tree; every duplication of a flow on a shared
// link of its path is checked.
func TestFillPanicsOnDuplicateListing(t *testing.T) {
	stuck, caught := 0, 0
	for victim := 0; victim < 3; victim++ {
		for hop := 0; ; hop++ {
			tr := topo.NewTree(topo.TreeConfig{Racks: 2, ServersPerRack: 2})
			srv := tr.Servers()
			s := New(tr)
			flows := []*Flow{
				s.StartFlow(srv[0], srv[2], 1e9, nil),
				s.StartFlow(srv[1], srv[2], 1e9, nil),
				s.StartFlow(srv[0], srv[3], 1e9, nil),
			}
			for s.ActiveFlows() < len(flows) {
				if !s.Eng.Step() {
					t.Fatal("engine drained before every flow arrived")
				}
			}
			f := flows[victim]
			if hop == len(f.path) {
				break
			}
			l := f.path[hop]
			n := len(s.linkFlows[l])
			if n < 2 {
				continue // a folded single-flow link never enters the fill
			}
			s.linkFlows[l] = append(s.linkFlows[l], f)
			if n == len(flows) {
				caught++
				s.SetVerifyGlobal(true)
				s.RefillAll()
				if err := s.VerifyError(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("listed twice on link %d", l)) {
					t.Errorf("flow %d listed twice on link %d: oracle error %v, want the listing named", f.ID, l, err)
				}
				continue
			}
			stuck++
			want := fmt.Sprintf("max-min fill stuck on link %d", l)
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, want) {
						t.Errorf("flow %d listed twice on link %d: recovered %q, want a panic naming the link", f.ID, l, msg)
					}
				}()
				s.RefillAll()
			}()
		}
	}
	if stuck != 4 || caught != 6 {
		t.Fatalf("checked %d stuck and %d oracle duplications, want 4 and 6", stuck, caught)
	}
}
