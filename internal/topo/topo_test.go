package topo

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddNodesAndLinks(t *testing.T) {
	g := New()
	a := g.AddNode(Server, 0)
	b := g.AddNode(Switch, 0)
	id := g.AddLink(a, b, 100, 0.001)
	if g.NumNodes() != 2 || g.NumLinks() != 1 {
		t.Fatal("counts")
	}
	l := g.Link(id)
	if l.A != a || l.B != b || l.Capacity != 100 || l.Latency != 0.001 {
		t.Error("link metadata")
	}
	if g.Node(a).Kind != Server || g.Node(b).Kind != Switch {
		t.Error("node kinds")
	}
}

func TestAddLinkPanics(t *testing.T) {
	g := New()
	a := g.AddNode(Server, 0)
	b := g.AddNode(Server, 0)
	mustPanic(t, func() { g.AddLink(a, 99, 1, 0) })
	mustPanic(t, func() { g.AddLink(a, a, 1, 0) })
	mustPanic(t, func() { g.AddLink(a, b, 0, 0) })
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

func TestRouteSameNode(t *testing.T) {
	g := New()
	a := g.AddNode(Server, 0)
	if g.Route(a, a) != nil {
		t.Error("route to self should be nil")
	}
}

func TestRouteNoPath(t *testing.T) {
	g := New()
	a := g.AddNode(Server, 0)
	b := g.AddNode(Server, 1)
	mustPanic(t, func() { g.Route(a, b) })
	mustPanic(t, func() { g.Route(-1, a) })
	_ = b
}

func TestTreeDefaults(t *testing.T) {
	tr := NewTree(TreeConfig{})
	// 1 core + 32 rack switches + 1024 servers.
	if tr.NumNodes() != 1+32+1024 {
		t.Fatalf("nodes %d", tr.NumNodes())
	}
	if len(tr.Servers()) != 1024 {
		t.Fatalf("servers %d", len(tr.Servers()))
	}
	// 32 uplinks + 1024 server links.
	if tr.NumLinks() != 32+1024 {
		t.Fatalf("links %d", tr.NumLinks())
	}
}

func TestTreeRouting(t *testing.T) {
	tr := NewTree(TreeConfig{Racks: 2, ServersPerRack: 2, IntraRackBps: 100, InterRackBps: 1000, HopLatency: 0.01})
	srv := tr.Servers()
	// Same-rack path: server -> rack switch -> server = 2 links.
	p := tr.Route(srv[0], srv[1])
	if len(p) != 2 {
		t.Errorf("same-rack path length %d", len(p))
	}
	if !tr.SameRack(srv[0], srv[1]) {
		t.Error("same rack")
	}
	// Cross-rack: server -> rack -> core -> rack -> server = 4 links.
	p2 := tr.Route(srv[0], srv[2])
	if len(p2) != 4 {
		t.Errorf("cross-rack path length %d", len(p2))
	}
	if tr.SameRack(srv[0], srv[2]) {
		t.Error("cross rack")
	}
	// Latency: 4 hops × 0.01.
	if got := tr.PathLatency(p2); got != 0.04 {
		t.Errorf("path latency %v", got)
	}
	// Bottleneck: server links are 100, and the empty path to self has
	// none.
	bott, err := tr.BottlenecksFrom(srv[0], []int{srv[2], srv[0]})
	if err != nil || bott[0] != 100 {
		t.Errorf("bottleneck %v, err %v", bott, err)
	}
	if !math.IsInf(bott[1], 1) {
		t.Errorf("empty path bottleneck %v, want +Inf", bott[1])
	}
}

// BottlenecksFrom answers every destination from one search, exactly as
// the minimum capacity along Route would, and refuses the pairs Route
// refuses with the same typed errors.
func TestBottlenecksFromMatchesRoute(t *testing.T) {
	tr := NewTree(TreeConfig{Racks: 3, ServersPerRack: 3, IntraRackBps: 100, InterRackBps: 250})
	srv := tr.Servers()
	for _, a := range srv {
		got, err := tr.BottlenecksFrom(a, srv)
		if err != nil {
			t.Fatal(err)
		}
		for k, b := range srv {
			want := math.Inf(1)
			for _, id := range tr.Route(a, b) {
				want = min(want, tr.Link(id).Capacity)
			}
			if got[k] != want {
				t.Errorf("bottleneck %d->%d = %v, want %v", a, b, got[k], want)
			}
		}
	}
	ft := NewFatTree(FatTreeConfig{K: 4})
	fsrv := ft.Servers()
	if _, err := ft.BottlenecksFrom(fsrv[0], []int{fsrv[1], fsrv[15]}); !errors.Is(err, ErrMultiPath) {
		t.Errorf("cross-pod bottleneck err = %v, want ErrMultiPath", err)
	}
	if got, err := ft.BottlenecksFrom(fsrv[0], []int{fsrv[1]}); err != nil || len(got) != 1 {
		t.Errorf("same-edge bottleneck %v, err %v", got, err)
	}
	g := New()
	a := g.AddNode(Server, 0)
	b := g.AddNode(Server, 1)
	if _, err := g.BottlenecksFrom(a, []int{b}); !errors.Is(err, ErrNoPath) {
		t.Errorf("disconnected err = %v, want ErrNoPath", err)
	}
	if _, err := g.BottlenecksFrom(a, []int{42}); !errors.Is(err, ErrNodeRange) {
		t.Errorf("destination range err = %v, want ErrNodeRange", err)
	}
	if _, err := g.BottlenecksFrom(-1, nil); !errors.Is(err, ErrNodeRange) {
		t.Errorf("source range err = %v, want ErrNodeRange", err)
	}
}

func TestRoutePathValidity(t *testing.T) {
	// Every consecutive pair of links on a route must share a node and the
	// route must start at src and end at dst.
	tr := NewTree(TreeConfig{Racks: 4, ServersPerRack: 4})
	srv := tr.Servers()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := srv[rng.Intn(len(srv))]
		b := srv[rng.Intn(len(srv))]
		if a == b {
			return true
		}
		path := tr.Route(a, b)
		cur := a
		for _, id := range path {
			l := tr.Link(id)
			switch cur {
			case l.A:
				cur = l.B
			case l.B:
				cur = l.A
			default:
				return false
			}
		}
		return cur == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFatTree(t *testing.T) {
	ft := NewFatTree(FatTreeConfig{K: 4})
	// k=4: 16 servers, 4 cores, 8 agg, 8 edge.
	if len(ft.Servers()) != 16 {
		t.Fatalf("servers %d", len(ft.Servers()))
	}
	srv := ft.Servers()
	// Cross-pod pairs have (k/2)² equal-cost shortest paths; the
	// single-route API must refuse them with the typed error instead of
	// silently picking one.
	if _, err := ft.RouteE(srv[0], srv[15]); !errors.Is(err, ErrMultiPath) {
		t.Errorf("cross-pod route err = %v, want ErrMultiPath", err)
	}
	// Same-edge servers: a unique 2-hop path.
	if got := len(ft.Route(srv[0], srv[1])); got != 2 {
		t.Errorf("same-edge path %d", got)
	}
	mustPanic(t, func() { NewFatTree(FatTreeConfig{K: 3}) })
	mustPanic(t, func() { NewFatTree(FatTreeConfig{K: 0}) })
	if _, err := NewFatTreeE(FatTreeConfig{K: 5}); !errors.Is(err, ErrBadShape) {
		t.Errorf("odd arity err = %v, want ErrBadShape", err)
	}
}

func TestTreeRackAssignment(t *testing.T) {
	tr := NewTree(TreeConfig{Racks: 3, ServersPerRack: 2})
	counts := map[int]int{}
	for _, s := range tr.Servers() {
		counts[tr.Node(s).Rack]++
	}
	for r := 0; r < 3; r++ {
		if counts[r] != 2 {
			t.Errorf("rack %d has %d servers", r, counts[r])
		}
	}
}

func TestAddLinkETypedErrors(t *testing.T) {
	g := New()
	a := g.AddNode(Server, 0)
	b := g.AddNode(Server, 0)
	if _, err := g.AddLinkE(a, 99, 100, 0.001); !errors.Is(err, ErrNodeRange) {
		t.Errorf("out-of-range err = %v", err)
	}
	if _, err := g.AddLinkE(a, a, 100, 0.001); !errors.Is(err, ErrSelfLink) {
		t.Errorf("self-link err = %v", err)
	}
	if _, err := g.AddLinkE(a, b, 0, 0.001); !errors.Is(err, ErrBadCapacity) {
		t.Errorf("capacity err = %v", err)
	}
	if _, err := g.AddLinkE(a, b, 100, 0.001); err != nil {
		t.Errorf("valid link err = %v", err)
	}
	// The panicking wrapper carries the same typed error.
	defer func() {
		if r := recover(); r == nil {
			t.Error("AddLink should panic on self link")
		} else if err, ok := r.(error); !ok || !errors.Is(err, ErrSelfLink) {
			t.Errorf("panic value %v", r)
		}
	}()
	g.AddLink(a, a, 100, 0.001)
}

// TestAddLinkERejectsBadNumbers: a capacity must be finite and
// positive and a latency finite and non-negative; NaN and ±Inf are
// refused with the typed error instead of reaching the simulator.
func TestAddLinkERejectsBadNumbers(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name              string
		capacity, latency float64
		want              error
	}{
		{"zero capacity", 0, 0.001, ErrBadCapacity},
		{"negative capacity", -1, 0.001, ErrBadCapacity},
		{"NaN capacity", nan, 0.001, ErrBadCapacity},
		{"+Inf capacity", inf, 0.001, ErrBadCapacity},
		{"-Inf capacity", -inf, 0.001, ErrBadCapacity},
		{"negative latency", 100, -1e-6, ErrBadLatency},
		{"NaN latency", 100, nan, ErrBadLatency},
		{"+Inf latency", 100, inf, ErrBadLatency},
		{"-Inf latency", 100, -inf, ErrBadLatency},
		{"zero latency", 100, 0, nil},
		{"valid", 100, 0.001, nil},
	} {
		g := New()
		a := g.AddNode(Server, 0)
		b := g.AddNode(Server, 0)
		_, err := g.AddLinkE(a, b, tc.capacity, tc.latency)
		if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		wantLinks := 0
		if tc.want == nil {
			wantLinks = 1
		}
		if g.NumLinks() != wantLinks {
			t.Errorf("%s: %d links added, want %d", tc.name, g.NumLinks(), wantLinks)
		}
	}
}

func TestRouteETypedErrors(t *testing.T) {
	g := New()
	a := g.AddNode(Server, 0)
	b := g.AddNode(Server, 0)
	c := g.AddNode(Server, 1)
	g.AddLink(a, b, 100, 0.001)

	if path, err := g.RouteE(a, a); err != nil || path != nil {
		t.Errorf("self route: %v %v", path, err)
	}
	if _, err := g.RouteE(a, 42); !errors.Is(err, ErrNodeRange) {
		t.Errorf("range err = %v", err)
	}
	if _, err := g.RouteE(a, c); !errors.Is(err, ErrNoPath) {
		t.Errorf("disconnected err = %v", err)
	}
	path, err := g.RouteE(a, b)
	if err != nil || len(path) != 1 {
		t.Errorf("connected route: %v %v", path, err)
	}
}
