package topo

import "errors"

// Sentinel errors for the fallible topology APIs (AddLinkE, RouteE). The
// historical AddLink/Route panic wrappers remain for construction-time
// code where a malformed topology is a programming bug, but callers that
// build topologies from external input should use the E variants and test
// with errors.Is.
var (
	// ErrNodeRange: a node index is outside [0, NumNodes).
	ErrNodeRange = errors.New("topo: node index out of range")
	// ErrSelfLink: both link endpoints name the same node.
	ErrSelfLink = errors.New("topo: self link")
	// ErrBadCapacity: a link capacity is zero, negative, NaN or infinite.
	ErrBadCapacity = errors.New("topo: non-positive capacity")
	// ErrBadLatency: a link latency is negative, NaN or infinite.
	ErrBadLatency = errors.New("topo: invalid latency")
	// ErrNoPath: the endpoints are disconnected.
	ErrNoPath = errors.New("topo: no path between nodes")
	// ErrMultiPath: Route/RouteE was asked for "the" shortest path between
	// a pair that has several equal-cost shortest paths (Clos and fat-tree
	// fabrics). The single-route assumption does not hold there; use an
	// ECMP-aware router (simnet resolves multi-path pairs with a pure hash
	// over the pair ID) instead of silently picking an arbitrary path.
	ErrMultiPath = errors.New("topo: multiple equal-cost shortest paths")
	// ErrBadShape: a topology builder (NewClosE, NewFatTreeE) was given an
	// invalid shape parameter.
	ErrBadShape = errors.New("topo: invalid topology shape")
)
