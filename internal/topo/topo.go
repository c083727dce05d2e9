// Package topo models data-center network topologies: servers, switches,
// capacitated links, and shortest-path routing. The paper's simulations
// (§V-A) use a two-level tree — servers grouped into racks, rack switches
// connected by a core switch — which NewTree builds; a k-ary fat tree is
// provided as an extension for ablation studies.
package topo

import (
	"fmt"
	"math"
)

// NodeKind distinguishes servers from switches.
type NodeKind int

const (
	// Server nodes host virtual machines and terminate flows.
	Server NodeKind = iota
	// Switch nodes only forward traffic.
	Switch
)

// Node is a vertex of the data-center graph.
type Node struct {
	ID   int
	Kind NodeKind
	Rack int // rack index for servers and rack switches; -1 for core
}

// LinkID identifies a (bidirectional) physical link.
type LinkID int

// Link is a capacitated bidirectional edge.
type Link struct {
	ID       LinkID
	A, B     int     // endpoint node IDs
	Capacity float64 // bytes per second, per direction
	Latency  float64 // seconds, per traversal
}

// Topology is an undirected graph of nodes and capacitated links.
type Topology struct {
	nodes   []Node
	links   []Link
	adj     [][]IncidentLink // node -> incident links
	servers []int            // server node IDs, maintained by AddNode
}

// IncidentLink is one adjacency entry: a link and the neighbor it leads
// to. Incident exposes these for external traversals (ECMP routing in
// simnet walks the shortest-path DAG through them).
type IncidentLink struct {
	Link LinkID
	Peer int
}

// New creates an empty topology.
func New() *Topology { return &Topology{} }

// AddNode appends a node and returns its ID.
func (t *Topology) AddNode(kind NodeKind, rack int) int {
	id := len(t.nodes)
	t.nodes = append(t.nodes, Node{ID: id, Kind: kind, Rack: rack})
	t.adj = append(t.adj, nil)
	if kind == Server {
		t.servers = append(t.servers, id)
	}
	return id
}

// AddLink connects nodes a and b with the given capacity (bytes/s) and
// latency (s), returning the link ID. It panics on invalid input; use
// AddLinkE when building from untrusted data.
func (t *Topology) AddLink(a, b int, capacity, latency float64) LinkID {
	id, err := t.AddLinkE(a, b, capacity, latency)
	if err != nil {
		panic(err)
	}
	return id
}

// AddLinkE is the fallible variant of AddLink. Errors wrap ErrNodeRange,
// ErrSelfLink, ErrBadCapacity (capacity not finite and positive) or
// ErrBadLatency (latency not finite and non-negative).
func (t *Topology) AddLinkE(a, b int, capacity, latency float64) (LinkID, error) {
	if a < 0 || a >= len(t.nodes) || b < 0 || b >= len(t.nodes) {
		return 0, fmt.Errorf("%w: link endpoints (%d,%d), %d nodes", ErrNodeRange, a, b, len(t.nodes))
	}
	if a == b {
		return 0, fmt.Errorf("%w: node %d", ErrSelfLink, a)
	}
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return 0, fmt.Errorf("%w: %g", ErrBadCapacity, capacity)
	}
	if !(latency >= 0) || math.IsInf(latency, 1) {
		return 0, fmt.Errorf("%w: %g", ErrBadLatency, latency)
	}
	id := LinkID(len(t.links))
	t.links = append(t.links, Link{ID: id, A: a, B: b, Capacity: capacity, Latency: latency})
	t.adj[a] = append(t.adj[a], IncidentLink{Link: id, Peer: b})
	t.adj[b] = append(t.adj[b], IncidentLink{Link: id, Peer: a})
	return id, nil
}

// NumNodes returns the node count.
//
//netlint:hotpath
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumLinks returns the link count.
func (t *Topology) NumLinks() int { return len(t.links) }

// Node returns node metadata.
func (t *Topology) Node(id int) Node { return t.nodes[id] }

// Link returns link metadata.
//
//netlint:hotpath
func (t *Topology) Link(id LinkID) Link { return t.links[id] }

// Servers returns the IDs of all server nodes in creation order. The
// slice is the topology's own cached list — maintained by AddNode, so no
// per-call node scan — and must not be modified by the caller. (At 131k
// nodes the old rescan-per-call implementation was a measurable hot spot
// in placement and benchmark loops.)
func (t *Topology) Servers() []int { return t.servers }

// Incident returns the links incident to node id in creation order. The
// slice is the topology's own adjacency list; callers must not modify it.
//
//netlint:hotpath
func (t *Topology) Incident(id int) []IncidentLink { return t.adj[id] }

// Route returns the sequence of link IDs of THE shortest (hop-count) path
// from a to b, found by breadth-first search. It is only defined where
// that path is unique (trees, and same-switch pairs of richer fabrics);
// on a pair with several equal-cost shortest paths it panics with
// ErrMultiPath instead of silently picking one — multi-path fabrics must
// be routed by an ECMP-aware router (see simnet). It returns nil for
// a == b and also panics on bad endpoints or a disconnected pair; use
// RouteE when any of those can come from external input.
func (t *Topology) Route(a, b int) []LinkID {
	path, err := t.RouteE(a, b)
	if err != nil {
		panic(err)
	}
	return path
}

// RouteE is the fallible variant of Route. Errors wrap ErrNodeRange,
// ErrNoPath, or — when the pair has more than one equal-cost shortest
// path, so "the" route is ill-defined — ErrMultiPath.
func (t *Topology) RouteE(a, b int) ([]LinkID, error) {
	if a == b {
		return nil, nil
	}
	if !t.hasNode(a) || !t.hasNode(b) {
		return nil, fmt.Errorf("%w: route endpoints (%d,%d), %d nodes", ErrNodeRange, a, b, len(t.nodes))
	}
	sp := t.shortestPaths(a, b)
	if err := sp.unique(a, b); err != nil {
		return nil, err
	}
	var rev []LinkID
	for cur := b; cur != a; cur = sp.prev[cur].Peer {
		rev = append(rev, sp.prev[cur].Link)
	}
	// Reverse into forward order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// BottlenecksFrom returns, for each destination in dsts, the minimum link
// capacity on the path Route(a, dst) takes, or +Inf for dst == a. One
// breadth-first search from a serves every destination: each node's
// bottleneck is read off its predecessor in the search tree, which is the
// hop Route's path arrives by. Errors wrap ErrNodeRange, ErrNoPath or
// ErrMultiPath for the first destination Route would refuse.
func (t *Topology) BottlenecksFrom(a int, dsts []int) ([]float64, error) {
	if !t.hasNode(a) {
		return nil, fmt.Errorf("%w: route source %d, %d nodes", ErrNodeRange, a, len(t.nodes))
	}
	sp := t.shortestPaths(a, -1)
	for _, b := range dsts {
		if !t.hasNode(b) {
			return nil, fmt.Errorf("%w: route endpoints (%d,%d), %d nodes", ErrNodeRange, a, b, len(t.nodes))
		}
		if b == a {
			continue
		}
		if err := sp.unique(a, b); err != nil {
			return nil, err
		}
	}
	// The queue holds every reached node after its predecessor.
	bott := make([]float64, len(t.nodes))
	bott[a] = math.Inf(1)
	for _, v := range sp.queue[1:] {
		e := sp.prev[v]
		bott[v] = min(bott[e.Peer], t.links[e.Link].Capacity)
	}
	out := make([]float64, len(dsts))
	for k, b := range dsts {
		out[k] = bott[b]
	}
	return out, nil
}

// hasNode reports whether v is a node ID of t.
func (t *Topology) hasNode(v int) bool { return v >= 0 && v < len(t.nodes) }

// shortestPathTree is one breadth-first search: per node its hop
// distance (-1 if unreached), its shortest-path count saturated at 2, and
// the link and neighbor it was first reached by, plus the nodes in the
// order they were reached.
type shortestPathTree struct {
	prev   []IncidentLink
	dist   []int32
	npaths []uint8
	queue  []int
}

// shortestPaths runs a breadth-first search from a with shortest-path
// counting: nodes leave the queue in nondecreasing distance, so by the
// time cur is dequeued all its shortest-path predecessors have added
// their counts. With stop >= 0 the search ends once dist[cur] reaches
// dist[stop], where the count at stop is final; with stop < 0 it reaches
// every node.
func (t *Topology) shortestPaths(a, stop int) shortestPathTree {
	sp := shortestPathTree{
		prev:   make([]IncidentLink, len(t.nodes)),
		dist:   make([]int32, len(t.nodes)),
		npaths: make([]uint8, len(t.nodes)),
		queue:  []int{a},
	}
	for i := range sp.dist {
		sp.dist[i] = -1
	}
	sp.dist[a] = 0
	sp.npaths[a] = 1
	for head := 0; head < len(sp.queue); head++ {
		cur := sp.queue[head]
		if stop >= 0 && sp.dist[stop] >= 0 && sp.dist[cur] >= sp.dist[stop] {
			break
		}
		for _, e := range t.adj[cur] {
			switch {
			case sp.dist[e.Peer] < 0:
				sp.dist[e.Peer] = sp.dist[cur] + 1
				sp.npaths[e.Peer] = sp.npaths[cur]
				sp.prev[e.Peer] = IncidentLink{Link: e.Link, Peer: cur}
				sp.queue = append(sp.queue, e.Peer)
			case sp.dist[e.Peer] == sp.dist[cur]+1:
				// Another shortest-path predecessor of e.Peer.
				if sp.npaths[e.Peer] += sp.npaths[cur]; sp.npaths[e.Peer] > 2 {
					sp.npaths[e.Peer] = 2
				}
			}
		}
	}
	return sp
}

// unique reports why Route(a, b) is undefined on this tree from a, or nil.
func (sp *shortestPathTree) unique(a, b int) error {
	if sp.dist[b] < 0 {
		return fmt.Errorf("%w: from %d to %d", ErrNoPath, a, b)
	}
	if sp.npaths[b] > 1 {
		return fmt.Errorf("%w: from %d to %d (%d hops)", ErrMultiPath, a, b, sp.dist[b])
	}
	return nil
}

// PathLatency sums the per-hop latency of a path.
func (t *Topology) PathLatency(path []LinkID) float64 {
	var s float64
	for _, id := range path {
		s += t.links[id].Latency
	}
	return s
}

// SameRack reports whether two server nodes live in the same rack.
func (t *Topology) SameRack(a, b int) bool {
	return t.nodes[a].Rack >= 0 && t.nodes[a].Rack == t.nodes[b].Rack
}

// TreeConfig parameterizes NewTree. The zero value selects the paper's
// simulation setup: 32 racks × 32 servers, 1 Gb/s intra-rack links and
// 10 Gb/s rack-to-core links (§V-A), 50 µs per-hop latency.
type TreeConfig struct {
	Racks          int
	ServersPerRack int
	IntraRackBps   float64 // server <-> rack-switch capacity, bytes/s
	InterRackBps   float64 // rack-switch <-> core capacity, bytes/s
	HopLatency     float64 // seconds per link traversal
}

func (c *TreeConfig) applyDefaults() {
	if c.Racks == 0 {
		c.Racks = 32
	}
	if c.ServersPerRack == 0 {
		c.ServersPerRack = 32
	}
	if c.IntraRackBps == 0 {
		c.IntraRackBps = 1e9 / 8 // 1 Gb/s
	}
	if c.InterRackBps == 0 {
		c.InterRackBps = 10e9 / 8 // 10 Gb/s
	}
	if c.HopLatency == 0 {
		c.HopLatency = 50e-6
	}
}

// NewTree builds the paper's two-level tree: each rack has a switch with
// its servers attached; all rack switches attach to one core switch.
func NewTree(cfg TreeConfig) *Topology {
	cfg.applyDefaults()
	t := New()
	core := t.AddNode(Switch, -1)
	for r := 0; r < cfg.Racks; r++ {
		sw := t.AddNode(Switch, r)
		t.AddLink(sw, core, cfg.InterRackBps, cfg.HopLatency)
		for s := 0; s < cfg.ServersPerRack; s++ {
			srv := t.AddNode(Server, r)
			t.AddLink(srv, sw, cfg.IntraRackBps, cfg.HopLatency)
		}
	}
	return t
}

// FatTreeConfig parameterizes NewFatTree. K must be even; the resulting
// fabric has K pods, (K/2)² core switches, and K²·K/4 servers.
type FatTreeConfig struct {
	K          int     // pod arity (even)
	LinkBps    float64 // uniform link capacity, bytes/s
	HopLatency float64
}

// NewFatTree builds a k-ary fat-tree (Al-Fares et al. style). Inter-pod
// (and some intra-pod) pairs have many equal-cost shortest paths, so
// Route/RouteE fail with ErrMultiPath on them; route such fabrics through
// simnet's ECMP resolver. It panics on an invalid arity; use NewFatTreeE
// when the shape comes from external input.
func NewFatTree(cfg FatTreeConfig) *Topology {
	t, err := NewFatTreeE(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// NewFatTreeE is the fallible variant of NewFatTree. Errors wrap
// ErrBadShape.
func NewFatTreeE(cfg FatTreeConfig) (*Topology, error) {
	if cfg.K < 2 || cfg.K%2 != 0 {
		return nil, fmt.Errorf("%w: fat-tree arity must be even and >= 2, got %d", ErrBadShape, cfg.K)
	}
	if cfg.LinkBps == 0 {
		cfg.LinkBps = 1e9 / 8
	}
	if cfg.HopLatency == 0 {
		cfg.HopLatency = 50e-6
	}
	k := cfg.K
	half := k / 2
	t := New()

	// Core switches: half*half of them.
	cores := make([]int, half*half)
	for i := range cores {
		cores[i] = t.AddNode(Switch, -1)
	}
	for pod := 0; pod < k; pod++ {
		aggs := make([]int, half)
		edges := make([]int, half)
		for i := 0; i < half; i++ {
			aggs[i] = t.AddNode(Switch, pod)
		}
		for i := 0; i < half; i++ {
			edges[i] = t.AddNode(Switch, pod)
		}
		// Aggregation i connects to cores [i*half, (i+1)*half).
		for i, agg := range aggs {
			for j := 0; j < half; j++ {
				t.AddLink(agg, cores[i*half+j], cfg.LinkBps, cfg.HopLatency)
			}
			for _, e := range edges {
				t.AddLink(agg, e, cfg.LinkBps, cfg.HopLatency)
			}
		}
		// Each edge switch hosts half servers.
		for _, e := range edges {
			for s := 0; s < half; s++ {
				srv := t.AddNode(Server, pod)
				t.AddLink(srv, e, cfg.LinkBps, cfg.HopLatency)
			}
		}
	}
	return t, nil
}
