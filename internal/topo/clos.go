package topo

// Multi-stage Clos fabrics. The paper's simulations stop at a 1024-machine
// two-level tree (§V-A); these builders construct the leaf–spine (2-stage)
// and pod/super-spine (3-stage) Clos networks of real IaaS data centers so
// the simulator can be driven at 32k–131k machines. Both are multi-path
// fabrics: any cross-leaf pair has one equal-cost shortest path per spine
// (per spine×super-spine pair in the 3-stage form), so Route/RouteE refuse
// them with ErrMultiPath and flows must be placed by simnet's ECMP
// resolver.

import "fmt"

// ClosConfig parameterizes NewClos. The zero value of every field selects
// a default (2 stages, 16 leaves × 32 servers, 4 spines, 1 Gb/s server
// links, 4:1 oversubscription, 50 µs hops).
type ClosConfig struct {
	// Stages selects the fabric depth: 2 (leaf–spine) or 3 (pods of
	// leaf–spine fabrics joined by super-spines).
	Stages int
	// Leaves is the leaf-switch count (per pod when Stages == 3).
	Leaves int
	// ServersPerLeaf is the server count attached to each leaf.
	ServersPerLeaf int
	// Spines is the spine-switch count (per pod when Stages == 3); every
	// leaf connects to every (pod-local) spine.
	Spines int
	// Pods and SuperSpines shape the third stage; ignored when Stages == 2.
	// Every pod spine connects to every super-spine.
	Pods        int
	SuperSpines int
	// ServerBps is the server↔leaf link capacity, bytes/s.
	ServerBps float64
	// Oversubscription is the ratio of a switch tier's total downlink
	// capacity to its total uplink capacity (the standard data-center
	// knob): 1 is non-blocking, 4 means uplinks carry a quarter of the
	// downlink capacity. Applied at the leaf tier and, for 3-stage
	// fabrics, again at the pod-spine tier.
	Oversubscription float64
	// HopLatency is seconds per link traversal.
	HopLatency float64
}

func (c *ClosConfig) applyDefaults() {
	if c.Stages == 0 {
		c.Stages = 2
	}
	if c.Leaves == 0 {
		c.Leaves = 16
	}
	if c.ServersPerLeaf == 0 {
		c.ServersPerLeaf = 32
	}
	if c.Spines == 0 {
		c.Spines = 4
	}
	if c.Pods == 0 {
		c.Pods = 4
	}
	if c.SuperSpines == 0 {
		c.SuperSpines = c.Spines
	}
	if c.ServerBps == 0 {
		c.ServerBps = 1e9 / 8
	}
	if c.Oversubscription == 0 {
		c.Oversubscription = 4
	}
	if c.HopLatency == 0 {
		c.HopLatency = 50e-6
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

// NewClos builds the fabric, panicking on an invalid shape; use NewClosE
// when the configuration comes from external input.
func NewClos(cfg ClosConfig) *Topology {
	t, err := NewClosE(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// NewClosE builds a 2- or 3-stage Clos fabric. Servers are created leaf by
// leaf (so Servers() groups by leaf) and each server's Rack is its global
// leaf index, which keeps rack-oriented consumers (SameRack, hot-rack
// background placement) meaningful. Errors wrap ErrBadShape.
func NewClosE(cfg ClosConfig) (*Topology, error) {
	cfg.applyDefaults()
	switch {
	case cfg.Stages != 2 && cfg.Stages != 3:
		return nil, fmt.Errorf("%w: Clos stages must be 2 or 3, got %d", ErrBadShape, cfg.Stages)
	case cfg.Leaves < 1 || cfg.ServersPerLeaf < 1 || cfg.Spines < 1:
		return nil, fmt.Errorf("%w: Clos needs >=1 leaves (%d), servers per leaf (%d), spines (%d)",
			ErrBadShape, cfg.Leaves, cfg.ServersPerLeaf, cfg.Spines)
	case cfg.Stages == 3 && (cfg.Pods < 1 || cfg.SuperSpines < 1):
		return nil, fmt.Errorf("%w: 3-stage Clos needs >=1 pods (%d) and super-spines (%d)",
			ErrBadShape, cfg.Pods, cfg.SuperSpines)
	case !(cfg.Oversubscription > 0) || cfg.Oversubscription > 1e6:
		return nil, fmt.Errorf("%w: oversubscription must be in (0, 1e6], got %g", ErrBadShape, cfg.Oversubscription)
	case !(cfg.ServerBps > 0):
		return nil, fmt.Errorf("%w: server link capacity must be positive, got %g", ErrBadShape, cfg.ServerBps)
	}
	pods := 1
	if cfg.Stages == 3 {
		pods = cfg.Pods
	}
	// Tier capacities from the oversubscription ratio: each tier's total
	// uplink capacity is its total downlink capacity divided by the ratio,
	// spread evenly over its uplinks.
	leafDown := float64(cfg.ServersPerLeaf) * cfg.ServerBps
	leafUpBps := leafDown / (cfg.Oversubscription * float64(cfg.Spines))
	spineDown := float64(cfg.Leaves) * leafUpBps * float64(cfg.Spines)
	spineUpBps := 0.0
	if cfg.Stages == 3 {
		spineUpBps = spineDown / (cfg.Oversubscription * float64(cfg.Spines) * float64(cfg.SuperSpines))
	}

	t := New()
	var super []int
	if cfg.Stages == 3 {
		super = make([]int, cfg.SuperSpines)
		for i := range super {
			super[i] = t.AddNode(Switch, -1)
		}
	}
	for p := 0; p < pods; p++ {
		spines := make([]int, cfg.Spines)
		for i := range spines {
			spines[i] = t.AddNode(Switch, -1)
			for _, ss := range super {
				if _, err := t.AddLinkE(spines[i], ss, spineUpBps, cfg.HopLatency); err != nil {
					return nil, err
				}
			}
		}
		for l := 0; l < cfg.Leaves; l++ {
			rack := p*cfg.Leaves + l
			leaf := t.AddNode(Switch, rack)
			for _, sp := range spines {
				if _, err := t.AddLinkE(leaf, sp, leafUpBps, cfg.HopLatency); err != nil {
					return nil, err
				}
			}
			for s := 0; s < cfg.ServersPerLeaf; s++ {
				srv := t.AddNode(Server, rack)
				if _, err := t.AddLinkE(srv, leaf, cfg.ServerBps, cfg.HopLatency); err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}

// ClosShape picks a reasonable 2-stage leaf–spine shape for the requested
// machine count; the ext-clos figure and the Clos refill test share it.
// Leaf width grows with scale (8, 32, then 64 servers per leaf) and the
// spine tier is sized at one spine per 16 leaves, clamped to [2, 32], with
// the default 4:1 oversubscription. The returned configuration builds
// ceil(machines/serversPerLeaf) full leaves, so Machines() can slightly
// exceed the request when it is not a multiple of the leaf width.
func ClosShape(machines int) ClosConfig {
	if machines < 1 {
		machines = 1
	}
	spl := 8
	switch {
	case machines > 8192:
		spl = 64
	case machines > 512:
		spl = 32
	}
	leaves := (machines + spl - 1) / spl
	spines := leaves / 16
	if spines < 2 {
		spines = 2
	}
	if spines > 32 {
		spines = 32
	}
	return ClosConfig{
		Stages:         2,
		Leaves:         leaves,
		ServersPerLeaf: spl,
		Spines:         spines,
	}
}
