package topo

import (
	"errors"
	"testing"
)

func TestClosTwoStage(t *testing.T) {
	g := NewClos(ClosConfig{Leaves: 4, ServersPerLeaf: 3, Spines: 2, Oversubscription: 2, ServerBps: 120})
	if got := len(g.Servers()); got != 12 {
		t.Fatalf("servers %d", got)
	}
	// 2 spines + 4 leaves + 12 servers.
	if g.NumNodes() != 2+4+12 {
		t.Fatalf("nodes %d", g.NumNodes())
	}
	// 4 leaves × 2 uplinks + 12 server links.
	if g.NumLinks() != 8+12 {
		t.Fatalf("links %d", g.NumLinks())
	}
	srv := g.Servers()
	// Same-leaf pair: unique 2-hop path through the leaf.
	if p := g.Route(srv[0], srv[1]); len(p) != 2 {
		t.Errorf("same-leaf path %d", len(p))
	}
	if !g.SameRack(srv[0], srv[2]) || g.SameRack(srv[0], srv[3]) {
		t.Error("leaf-as-rack assignment")
	}
	// Cross-leaf pair: one shortest path per spine.
	if _, err := g.RouteE(srv[0], srv[3]); !errors.Is(err, ErrMultiPath) {
		t.Errorf("cross-leaf route err = %v, want ErrMultiPath", err)
	}
	// Oversubscription 2 with 3 servers × 120 B/s: total uplink capacity
	// 180 over 2 spines = 90 per uplink.
	var uplinks int
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(LinkID(i))
		if g.Node(l.A).Kind == Switch && g.Node(l.B).Kind == Switch {
			uplinks++
			if l.Capacity != 90 {
				t.Fatalf("uplink capacity %v, want 90", l.Capacity)
			}
		}
	}
	if uplinks != 8 {
		t.Fatalf("uplinks %d", uplinks)
	}
}

func TestClosThreeStage(t *testing.T) {
	cfg := ClosConfig{Stages: 3, Pods: 2, Leaves: 2, ServersPerLeaf: 2, Spines: 2, SuperSpines: 2}
	g := NewClos(cfg)
	if got := cfg.Machines(); got != 8 {
		t.Fatalf("Machines() = %d", got)
	}
	if got := len(g.Servers()); got != 8 {
		t.Fatalf("servers %d", got)
	}
	// 2 super + 2 pods × (2 spines + 2 leaves + 4 servers).
	if g.NumNodes() != 2+2*(2+2+4) {
		t.Fatalf("nodes %d", g.NumNodes())
	}
	// Per pod: 2 spines × 2 super links + 2 leaves × 2 uplinks + 4 server links.
	if g.NumLinks() != 2*(4+4+4) {
		t.Fatalf("links %d", g.NumLinks())
	}
	srv := g.Servers()
	// Cross-pod pairs are multipath (through any spine×super×spine combo).
	if _, err := g.RouteE(srv[0], srv[7]); !errors.Is(err, ErrMultiPath) {
		t.Errorf("cross-pod route err = %v, want ErrMultiPath", err)
	}
	// Every rack index is a distinct leaf across pods.
	racks := map[int]int{}
	for _, s := range srv {
		racks[g.Node(s).Rack]++
	}
	if len(racks) != 4 {
		t.Errorf("distinct leaf racks %d, want 4", len(racks))
	}
}

func TestClosTypedValidation(t *testing.T) {
	cases := []ClosConfig{
		{Stages: 4},
		{Leaves: -1},
		{Spines: -2},
		{Oversubscription: -1},
		{ServerBps: -5},
		{Stages: 3, Pods: -1},
	}
	for i, cfg := range cases {
		if _, err := NewClosE(cfg); !errors.Is(err, ErrBadShape) {
			t.Errorf("case %d: err = %v, want ErrBadShape", i, err)
		}
	}
	mustPanic(t, func() { NewClos(ClosConfig{Stages: 7}) })
}

func TestClosShape(t *testing.T) {
	for _, machines := range []int{1, 64, 512, 4096, 32768, 131072} {
		cfg := ClosShape(machines)
		if got := cfg.Machines(); got < machines {
			t.Errorf("ClosShape(%d).Machines() = %d", machines, got)
		}
		if _, err := NewClosE(cfg); err != nil {
			t.Errorf("ClosShape(%d) invalid: %v", machines, err)
		}
	}
	// The two benchmark scales must hit their exact machine counts.
	if got := ClosShape(32768).Machines(); got != 32768 {
		t.Errorf("32k shape builds %d machines", got)
	}
	if got := ClosShape(131072).Machines(); got != 131072 {
		t.Errorf("131k shape builds %d machines", got)
	}
}

func TestServersCached(t *testing.T) {
	g := NewTree(TreeConfig{Racks: 2, ServersPerRack: 2})
	a := g.Servers()
	b := g.Servers()
	if len(a) != 4 || &a[0] != &b[0] {
		t.Error("Servers() should return the cached slice without rescanning")
	}
	// The cache must track post-construction growth.
	g.AddNode(Switch, -1)
	g.AddNode(Server, 0)
	if got := len(g.Servers()); got != 5 {
		t.Errorf("servers after growth %d", got)
	}
}

func TestIncidentExposesAdjacency(t *testing.T) {
	g := New()
	a := g.AddNode(Server, 0)
	b := g.AddNode(Switch, 0)
	c := g.AddNode(Server, 0)
	l1 := g.AddLink(a, b, 100, 0)
	l2 := g.AddLink(b, c, 100, 0)
	inc := g.Incident(b)
	if len(inc) != 2 || inc[0].Link != l1 || inc[0].Peer != a || inc[1].Link != l2 || inc[1].Peer != c {
		t.Errorf("incident(b) = %+v", inc)
	}
	if len(g.Incident(a)) != 1 {
		t.Errorf("incident(a) = %+v", g.Incident(a))
	}
}

// Machines returns the server count the configuration builds.
func (c ClosConfig) Machines() int {
	c.applyDefaults()
	n := c.Leaves * c.ServersPerLeaf
	if c.Stages == 3 {
		n *= c.Pods
	}
	return n
}
