package mpi

import (
	"fmt"
	"math"

	"netconstant/internal/mat"
	"netconstant/internal/topo"
)

// Tree is a rooted communication tree over n ranks. Children are stored in
// send order: a parent transmits to Children[node][0] first, and a child
// picked earlier relays to a larger subtree.
type Tree struct {
	Root     int
	Parent   []int // Parent[Root] == -1
	Children [][]int
}

// NumRanks returns the number of ranks spanned by the tree.
func (t *Tree) NumRanks() int { return len(t.Parent) }

// Validate checks structural invariants: exactly one root, every non-root
// has a parent consistent with the children lists, and the tree is
// connected and acyclic.
//
//netlint:allow testonly perfbench, a module of its own, validates every tree it plans
func (t *Tree) Validate() error {
	n := len(t.Parent)
	if t.Root < 0 || t.Root >= n {
		return fmt.Errorf("mpi: root %d out of range", t.Root)
	}
	if t.Parent[t.Root] != -1 {
		return fmt.Errorf("mpi: root has parent %d", t.Parent[t.Root])
	}
	childCount := 0
	for node, kids := range t.Children {
		for _, c := range kids {
			if c < 0 || c >= n {
				return fmt.Errorf("mpi: child %d out of range", c)
			}
			if t.Parent[c] != node {
				return fmt.Errorf("mpi: child %d of %d has parent %d", c, node, t.Parent[c])
			}
			childCount++
		}
	}
	if childCount != n-1 {
		return fmt.Errorf("mpi: %d edges for %d ranks", childCount, n)
	}
	// Reachability from the root.
	seen := make([]bool, n)
	stack := []int{t.Root}
	seen[t.Root] = true
	count := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, c := range t.Children[v] {
			if seen[c] {
				return fmt.Errorf("mpi: node %d reached twice", c)
			}
			seen[c] = true
			stack = append(stack, c)
		}
	}
	if count != n {
		return fmt.Errorf("mpi: only %d of %d ranks reachable", count, n)
	}
	return nil
}

// SubtreeSizes returns, for every node, the number of ranks in its subtree
// (including itself) — the chunk multiplier for tree-based scatter/gather.
func (t *Tree) SubtreeSizes() []int {
	n := len(t.Parent)
	sizes := make([]int, n)
	var walk func(v int) int
	walk = func(v int) int {
		s := 1
		for _, c := range t.Children[v] {
			s += walk(c)
		}
		sizes[v] = s
		return s
	}
	walk(t.Root)
	return sizes
}

// Depth returns the maximum number of edges from the root to any node.
func (t *Tree) Depth() int {
	var walk func(v int) int
	walk = func(v int) int {
		d := 0
		for _, c := range t.Children[v] {
			if cd := walk(c) + 1; cd > d {
				d = cd
			}
		}
		return d
	}
	return walk(t.Root)
}

func newEmptyTree(n, root int) *Tree {
	if root < 0 || root >= n {
		panic(fmt.Sprintf("mpi: root %d out of range for %d ranks", root, n))
	}
	t := &Tree{Root: root, Parent: make([]int, n), Children: make([][]int, n)}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	return t
}

func (t *Tree) addEdge(parent, child int) {
	t.Parent[child] = parent
	t.Children[parent] = append(t.Children[parent], child)
}

// BinomialTree builds the MPICH2 baseline binomial tree: in round k the
// 2^k ranks that already hold the data each transmit to the rank 2^k
// positions away (mod n, relative to the root). It ignores network
// performance entirely — the paper's Baseline.
func BinomialTree(n, root int) *Tree {
	t := newEmptyTree(n, root)
	for mask := 1; mask < n; mask <<= 1 {
		for rel := 0; rel < mask && rel+mask < n; rel++ {
			src := (root + rel) % n
			dst := (root + rel + mask) % n
			t.addEdge(src, dst)
		}
	}
	return t
}

// FNFTree builds the Fastest-Node-First binomial tree of Banikazemi et
// al., the paper's network-performance-aware tree (§II-C): in each
// iteration every already-selected machine, in selection order, grabs the
// unselected machine with the best (smallest) weight to it.
func FNFTree(w *mat.Dense, root int) *Tree {
	n := w.Rows()
	if w.Cols() != n {
		panic("mpi: FNF weight matrix must be square")
	}
	t := newEmptyTree(n, root)
	selected := []int{root}
	inU := make([]bool, n)
	for i := 0; i < n; i++ {
		inU[i] = i != root
	}
	remaining := n - 1
	for remaining > 0 {
		// One iteration: each sender (in selection order) picks at most one
		// receiver; receivers join `selected` only after the iteration.
		var joined []int
		for _, s := range selected {
			if remaining == 0 {
				break
			}
			// Pick the best receiver. Unmeasured pairs carry +Inf (or NaN)
			// weights; they are only ever picked when a sender has no
			// finite-weight candidate left, smallest index first, so a
			// degraded weight matrix still yields a complete tree instead
			// of looping forever with no receiver joining.
			best := -1
			bestW := math.Inf(1)
			for u := 0; u < n; u++ {
				if !inU[u] {
					continue
				}
				wu := w.At(s, u)
				if math.IsNaN(wu) {
					wu = math.Inf(1)
				}
				if best < 0 || wu < bestW {
					bestW = wu
					best = u
				}
			}
			if best < 0 {
				break
			}
			inU[best] = false
			remaining--
			t.addEdge(s, best)
			joined = append(joined, best)
		}
		selected = append(selected, joined...)
	}
	return t
}

// TopologyAwareTree builds a two-level tree from static topology
// knowledge, in the spirit of Kandalla et al. and Subramoni et al.: one
// representative per rack forms an inter-rack binomial tree rooted at the
// root's rack, and each representative runs an intra-rack binomial tree.
// It uses rack membership only (no measured performance) — the "Topology"
// comparison of the paper's simulations (§V-E).
func TopologyAwareTree(t *topo.Topology, hosts []int, root int) *Tree {
	n := len(hosts)
	tree := newEmptyTree(n, root)

	// Group ranks by rack, the root's rack first.
	rackOf := func(rank int) int { return t.Node(hosts[rank]).Rack }
	rackMembers := map[int][]int{}
	var rackOrder []int
	seen := map[int]bool{}
	// Root's rack first, then others in rank order for determinism.
	order := make([]int, 0, n)
	order = append(order, root)
	for r := 0; r < n; r++ {
		if r != root {
			order = append(order, r)
		}
	}
	for _, rank := range order {
		rk := rackOf(rank)
		if !seen[rk] {
			seen[rk] = true
			rackOrder = append(rackOrder, rk)
		}
		rackMembers[rk] = append(rackMembers[rk], rank)
	}

	// Representatives: the first member of each rack (the root for its own
	// rack).
	reps := make([]int, len(rackOrder))
	for i, rk := range rackOrder {
		reps[i] = rackMembers[rk][0]
	}

	// Binomial tree among representatives (rep 0 is the root).
	nr := len(reps)
	for mask := 1; mask < nr; mask <<= 1 {
		for rel := 0; rel < mask && rel+mask < nr; rel++ {
			tree.addEdge(reps[rel], reps[rel+mask])
		}
	}

	// Intra-rack binomial trees below each representative.
	for _, rk := range rackOrder {
		members := rackMembers[rk]
		nm := len(members)
		for mask := 1; mask < nm; mask <<= 1 {
			for rel := 0; rel < mask && rel+mask < nm; rel++ {
				tree.addEdge(members[rel], members[rel+mask])
			}
		}
	}
	return tree
}
