package mpi

import (
	"fmt"
	"math"
	"testing"

	"netconstant/internal/mat"
	"netconstant/internal/netmodel"
)

// The paper assumes one process per machine and notes that "the extension
// to multiple processes per machine is straightforward" (§II-C). This file
// sketches that extension — rank-level performance matrices expanded from
// machine-level ones, with co-located ranks connected by a fast loopback
// link — and tests it. No figure or command runs it, so it lives with its
// tests rather than in the package.

// Placement maps ranks to machines: MachineOf[rank] = machine index.
type Placement struct {
	MachineOf []int
	machines  int
}

// NewPlacement validates and wraps a rank→machine assignment over
// `machines` machines.
func NewPlacement(machineOf []int, machines int) (*Placement, error) {
	if len(machineOf) == 0 {
		return nil, fmt.Errorf("mpi: empty placement")
	}
	for r, m := range machineOf {
		if m < 0 || m >= machines {
			return nil, fmt.Errorf("mpi: rank %d on machine %d out of range [0,%d)", r, m, machines)
		}
	}
	return &Placement{MachineOf: machineOf, machines: machines}, nil
}

// RoundRobinPlacement assigns rank r to machine r mod machines — the
// interleaved layout MPI launchers often default to.
func RoundRobinPlacement(machines, perMachine int) *Placement {
	mo := make([]int, machines*perMachine)
	for r := range mo {
		mo[r] = r % machines
	}
	return &Placement{MachineOf: mo, machines: machines}
}

// BlockPlacement assigns ranks to machines in contiguous blocks of
// perMachine ranks (machine 0 gets ranks 0..p−1, etc.).
func BlockPlacement(machines, perMachine int) *Placement {
	mo := make([]int, machines*perMachine)
	for r := range mo {
		mo[r] = r / perMachine
	}
	return &Placement{MachineOf: mo, machines: machines}
}

// Ranks returns the number of ranks.
func (p *Placement) Ranks() int { return len(p.MachineOf) }

// Machines returns the number of machines.
func (p *Placement) Machines() int { return p.machines }

// Colocated reports whether two ranks share a machine.
func (p *Placement) Colocated(a, b int) bool {
	return p.MachineOf[a] == p.MachineOf[b]
}

// ExpandPerf lifts a machine-level performance matrix to rank level:
// ranks on different machines inherit their machines' link, co-located
// ranks get the loopback link `local` (shared-memory transfer: very high
// bandwidth, very low latency).
func ExpandPerf(machine *netmodel.PerfMatrix, p *Placement, local netmodel.Link) *netmodel.PerfMatrix {
	if p.machines != machine.N {
		panic(fmt.Sprintf("mpi: placement spans %d machines, perf matrix has %d", p.machines, machine.N))
	}
	n := p.Ranks()
	out := netmodel.NewPerfMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if p.Colocated(i, j) {
				out.SetLink(i, j, local)
				continue
			}
			out.SetLink(i, j, machine.Link(p.MachineOf[i], p.MachineOf[j]))
		}
	}
	return out
}

// ExpandWeights lifts a machine-level weight matrix to rank level with
// localWeight for co-located pairs, for tree algorithms that take weights
// directly.
func ExpandWeights(machineW *mat.Dense, p *Placement, localWeight float64) *mat.Dense {
	if p.machines != machineW.Rows() {
		panic("mpi: placement/weight size mismatch")
	}
	n := p.Ranks()
	out := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if p.Colocated(i, j) {
				out.Set(i, j, localWeight)
				continue
			}
			out.Set(i, j, machineW.At(p.MachineOf[i], p.MachineOf[j]))
		}
	}
	return out
}

// FNFTreeMultiProcess builds a rank-level broadcast tree for a
// multi-process placement hierarchically: an FNF tree over machines
// (network-aware link selection where it matters) with one representative
// rank per machine, and a binomial tree among the co-located ranks under
// each representative (shared-memory fanout). The result pays exactly
// machines−1 network edges.
//
// Running FNF directly on loopback-expanded rank weights does NOT achieve
// this: FNF's doubling forces every selected rank to grab a receiver each
// iteration, so once a machine's local ranks are exhausted its senders
// are pushed onto network links prematurely. The hierarchical composition
// is the natural "multiple processes per machine" extension the paper
// alludes to in §II-C.
func FNFTreeMultiProcess(machineW *mat.Dense, p *Placement, root int) *Tree {
	machines := p.Machines()
	if machineW.Rows() != machines {
		panic("mpi: placement/weight size mismatch")
	}
	rootMachine := p.MachineOf[root]
	mt := FNFTree(machineW, rootMachine)

	// Group ranks by machine; the root leads its own machine, otherwise
	// the lowest rank does.
	members := make([][]int, machines)
	for r, m := range p.MachineOf {
		members[m] = append(members[m], r)
	}
	rep := make([]int, machines)
	for m := range rep {
		if len(members[m]) == 0 {
			rep[m] = -1
			continue
		}
		rep[m] = members[m][0]
	}
	rep[rootMachine] = root

	tree := newEmptyTree(p.Ranks(), root)
	// Machine-level edges between representatives, in FNF order.
	var walk func(m int)
	walk = func(m int) {
		for _, child := range mt.Children[m] {
			if rep[child] >= 0 && rep[m] >= 0 {
				tree.addEdge(rep[m], rep[child])
			}
			walk(child)
		}
	}
	walk(rootMachine)

	// Intra-machine binomial fanout below each representative.
	for m := 0; m < machines; m++ {
		locals := members[m]
		if len(locals) < 2 {
			continue
		}
		// Order locals with the representative first.
		ordered := make([]int, 0, len(locals))
		ordered = append(ordered, rep[m])
		for _, r := range locals {
			if r != rep[m] {
				ordered = append(ordered, r)
			}
		}
		for mask := 1; mask < len(ordered); mask <<= 1 {
			for rel := 0; rel < mask && rel+mask < len(ordered); rel++ {
				tree.addEdge(ordered[rel], ordered[rel+mask])
			}
		}
	}
	return tree
}

// CrossMachineEdges counts tree edges that cross machines — the network
// transfers a schedule will actually pay for.
func CrossMachineEdges(t *Tree, p *Placement) int {
	n := t.NumRanks()
	count := 0
	for v := 0; v < n; v++ {
		if t.Parent[v] >= 0 && !p.Colocated(v, t.Parent[v]) {
			count++
		}
	}
	return count
}

func TestRoundRobinPlacement(t *testing.T) {
	p := RoundRobinPlacement(3, 2)
	if p.MachineOf[0] != 0 || p.MachineOf[1] != 1 || p.MachineOf[3] != 0 {
		t.Errorf("round robin assignment %v", p.MachineOf)
	}
}

func TestFNFTreeMultiProcessValidAndRooted(t *testing.T) {
	machineW := uniformPerf(3, 0, 1).Weights(10)
	p := RoundRobinPlacement(3, 3)
	// Root on a non-zero machine.
	tree := FNFTreeMultiProcess(machineW, p, 4)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.Root != 4 {
		t.Error("root rank")
	}
	if got := CrossMachineEdges(tree, p); got != 2 {
		t.Errorf("cross edges %d want 2", got)
	}
	mustPanic(t, func() { FNFTreeMultiProcess(machineW, BlockPlacement(4, 1), 0) })
}

func TestPlacementBasics(t *testing.T) {
	p := BlockPlacement(3, 2)
	if p.Ranks() != 6 || p.Machines() != 3 {
		t.Fatal("block placement shape")
	}
	if !p.Colocated(0, 1) || p.Colocated(1, 2) {
		t.Error("colocated")
	}
	if _, err := NewPlacement([]int{0, 1, 5}, 3); err == nil {
		t.Error("out-of-range machine should error")
	}
	if _, err := NewPlacement(nil, 3); err == nil {
		t.Error("empty placement should error")
	}
	if pl, err := NewPlacement([]int{0, 2, 1}, 3); err != nil || pl.Ranks() != 3 {
		t.Error("valid placement rejected")
	}
}

func TestExpandPerf(t *testing.T) {
	machine := uniformPerf(2, 1e-3, 1e6)
	p := BlockPlacement(2, 2)
	local := netmodel.Link{Alpha: 1e-6, Beta: 1e10}
	rank := ExpandPerf(machine, p, local)
	if rank.N != 4 {
		t.Fatal("expanded size")
	}
	// Co-located ranks 0,1 get the loopback.
	if rank.Link(0, 1) != local {
		t.Error("loopback link")
	}
	// Cross-machine ranks inherit the machine link.
	if rank.Link(0, 2).Beta != 1e6 {
		t.Error("network link")
	}
	mustPanic(t, func() { ExpandPerf(machine, BlockPlacement(3, 1), local) })
}

func TestExpandWeights(t *testing.T) {
	machine := uniformPerf(2, 0, 1).Weights(10)
	p := BlockPlacement(2, 3)
	w := ExpandWeights(machine, p, 0.001)
	if w.Rows() != 6 {
		t.Fatal("size")
	}
	if w.At(0, 1) != 0.001 || w.At(0, 3) != 10 {
		t.Errorf("weights: local %v network %v", w.At(0, 1), w.At(0, 3))
	}
	mustPanic(t, func() { ExpandWeights(machine, BlockPlacement(3, 1), 1) })
}

func TestFNFTreeMultiProcessPrefersLocalFanout(t *testing.T) {
	// 4 machines × 4 ranks: the FNF tree should pay for far fewer network
	// edges than machines-1 × per-machine ranks would naively suggest —
	// ideally machines−1 cross edges (one network hop per machine).
	machines, per := 4, 4
	machineW := uniformPerf(machines, 0, 1).Weights(100)
	p := BlockPlacement(machines, per)
	tree := FNFTreeMultiProcess(machineW, p, 0)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	cross := CrossMachineEdges(tree, p)
	if cross != machines-1 {
		t.Errorf("cross-machine edges %d, want %d (local fanout first)", cross, machines-1)
	}
}

func TestMultiProcessBroadcastBeatsNaive(t *testing.T) {
	// Broadcast over 16 ranks on 4 machines with *heterogeneous* machine
	// links: the placement-aware tree pays machines−1 network transfers
	// over the best links; a placement-blind binomial tree under
	// round-robin placement crosses machines on arbitrary (possibly slow)
	// links many more times.
	machines, per := 4, 4
	machinePerf := uniformPerf(machines, 1e-3, 1e6)
	// Links touching machine 3 are 10× slower, except the decent path in
	// from machine 1.
	for m := 0; m < machines-1; m++ {
		machinePerf.SetLink(m, 3, netmodel.Link{Alpha: 1e-3, Beta: 1e5})
		machinePerf.SetLink(3, m, netmodel.Link{Alpha: 1e-3, Beta: 1e5})
	}
	machinePerf.SetLink(1, 3, netmodel.Link{Alpha: 1e-3, Beta: 8e5})
	// A shuffled placement: rank-order neighbours land on arbitrary
	// machines, so the blind binomial tree crosses machines on whatever
	// links rank order happens to hit (including the slow ones).
	p, err := NewPlacement([]int{0, 1, 2, 3, 3, 2, 1, 0, 0, 1, 2, 3, 3, 2, 1, 0}, machines)
	if err != nil {
		t.Fatal(err)
	}
	_ = per
	local := netmodel.Link{Alpha: 1e-6, Beta: 1e10}
	rankPerf := ExpandPerf(machinePerf, p, local)

	msg := 1e6
	aware := FNFTreeMultiProcess(machinePerf.Weights(msg), p, 0)
	blind := BinomialTree(p.Ranks(), 0)

	if ca, cb := CrossMachineEdges(aware, p), CrossMachineEdges(blind, p); ca >= cb {
		t.Errorf("aware tree should cross machines less: %d vs %d", ca, cb)
	}
	tAware := RunCollective(NewAnalyticNet(rankPerf), aware, Broadcast, msg)
	tBlind := RunCollective(NewAnalyticNet(rankPerf), blind, Broadcast, msg)
	if tAware >= tBlind {
		t.Errorf("placement-aware %v should beat blind %v", tAware, tBlind)
	}
	// Lower bound sanity: at least one full network transfer.
	if tAware < msg/1e6 {
		t.Errorf("aware time %v below a single transfer", tAware)
	}
}

func TestMultiProcessScatterConsistency(t *testing.T) {
	// Scatter over the multi-process tree distributes one chunk per rank;
	// elapsed must exceed the pure network volume lower bound.
	machines, per := 2, 4
	machinePerf := uniformPerf(machines, 0, 1e6)
	p := BlockPlacement(machines, per)
	local := netmodel.Link{Alpha: 0, Beta: 1e12}
	rankPerf := ExpandPerf(machinePerf, p, local)
	chunk := 1e5
	tree := FNFTreeMultiProcess(machinePerf.Weights(chunk), p, 0)
	el := RunCollective(NewAnalyticNet(rankPerf), tree, Scatter, chunk)
	// Root's machine must push 4 chunks (the other machine's subtree)
	// across the network at 1e6 B/s → ≥ 0.4 s.
	if el < 4*chunk/1e6-1e-9 {
		t.Errorf("scatter %v below network lower bound", el)
	}
	if math.IsInf(el, 0) || math.IsNaN(el) {
		t.Error("degenerate elapsed")
	}
}
