package mpi

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"netconstant/internal/mat"
	"netconstant/internal/netmodel"
	"netconstant/internal/simnet"
	"netconstant/internal/topo"
)

// uniformPerf builds an N-rank performance matrix where every link has the
// same α and β.
func uniformPerf(n int, alpha, beta float64) *netmodel.PerfMatrix {
	pm := netmodel.NewPerfMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				pm.SetLink(i, j, netmodel.Link{Alpha: alpha, Beta: beta})
			}
		}
	}
	return pm
}

func TestBinomialTreeStructure(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16, 25} {
		for _, root := range []int{0, n / 2, n - 1} {
			tr := BinomialTree(n, root)
			if err := tr.Validate(); err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
			// Binomial tree depth is ⌊log₂ n⌋ (the round count is
			// ⌈log₂ n⌉, but the deepest chain has ⌊log₂ n⌋ edges).
			wantDepth := 0
			for 1<<(wantDepth+1) <= n {
				wantDepth++
			}
			if d := tr.Depth(); d != wantDepth {
				t.Errorf("n=%d: depth %d want %d", n, d, wantDepth)
			}
		}
	}
}

func TestBinomialSubtreeSizes(t *testing.T) {
	tr := BinomialTree(4, 0)
	sizes := tr.SubtreeSizes()
	if sizes[0] != 4 {
		t.Errorf("root subtree %d", sizes[0])
	}
	// First child of the root has the larger subtree (send order).
	kids := tr.Children[0]
	if len(kids) != 2 || sizes[kids[0]] < sizes[kids[1]] {
		t.Errorf("children %v sizes %v: first child should have the larger subtree", kids, sizes)
	}
}

func TestTreeValidateErrors(t *testing.T) {
	tr := BinomialTree(4, 0)
	tr.Root = 9
	if tr.Validate() == nil {
		t.Error("bad root")
	}
	tr = BinomialTree(4, 0)
	tr.Parent[0] = 2
	if tr.Validate() == nil {
		t.Error("root with parent")
	}
	tr = BinomialTree(4, 0)
	tr.Parent[3] = 0 // inconsistent with children lists
	if tr.Validate() == nil {
		t.Error("inconsistent parent")
	}
	mustPanic(t, func() { newEmptyTree(3, 5) })
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

// TestFNFPaperExample mirrors the running example of the paper's Fig 1:
// six machines, machine 0 as root (the paper's Machine 1), a weight matrix
// under which FNF picks machine 2 first, then machines 1 and 5, giving a
// longest path of total weight 5; raising the weight of the first-picked
// link restructures the tree and lengthens the critical path (Fig 1b /
// §III's motivation for individual link accuracy).
func TestFNFPaperExample(t *testing.T) {
	inf := 1e9
	w := mat.FromRows([][]float64{
		// to:  0    1    2    3    4    5
		{0, 3, 2, 4, 5, 6}, // from 0 (root)
		{3, 0, 4, 2, 5, 6}, // from 1
		{2, 4, 0, 5, 6, 2}, // from 2
		{4, 2, 5, 0, 6, 5}, // from 3
		{5, 5, 6, 6, 0, 4}, // from 4
		{6, 6, 2, 5, 4, 0}, // from 5
	})
	_ = inf
	tr := FNFTree(w, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Iteration 1: 0 picks 2 (weight 2).
	if tr.Parent[2] != 0 {
		t.Errorf("first pick should be machine 2, parents %v", tr.Parent)
	}
	// Iteration 2: 0 picks 1 (weight 3), 2 picks 5 (weight 2).
	if tr.Parent[1] != 0 || tr.Parent[5] != 2 {
		t.Errorf("second iteration parents %v", tr.Parent)
	}
	// Iteration 3: 0 picks 3 (weight 4)? 0's best remaining is 3 (4) vs 4
	// (5) → 3; then 2 picks 4 (6) vs 1 picks 4 (5) — order is selection
	// order: 0, 2, 1 → 0 takes 3, 2 takes 4 (weight 6)... check tree is
	// fully valid and longest path matches the hand computation.
	got := tr.LongestPathWeight(w)
	want := 8.0 // 0->2 (2) + 2->4 (6)
	if tr.Parent[4] == 1 {
		want = 8 // 1 path 0->1(3)+1->4(5)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("longest path %v want %v (parents %v)", got, want, tr.Parent)
	}

	// The paper's second point: changing one link weight restructures the
	// tree and can lengthen the critical path.
	w2 := w.Clone()
	w2.Set(0, 2, 4.5)
	tr2 := FNFTree(w2, 0)
	if tr2.Parent[2] == 0 && tr2.Parent[1] == 0 && tr2.Parent[5] == 2 {
		t.Error("perturbed weights should change the FNF structure")
	}
	if err := tr2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFNFPrefersGoodLinks(t *testing.T) {
	// FNF always doubles the sender set each iteration (binomial shape),
	// but within each iteration every sender grabs its cheapest remaining
	// link. With the root's links far cheaper than everyone else's, the
	// root must pick greedily in index order: 1, then 2, then 4 (three
	// iterations → root has 3 children).
	n := 6
	w := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if i == 0 {
				w.Set(i, j, float64(j)) // root prefers low indices
			} else {
				w.Set(i, j, 100+float64(j))
			}
		}
	}
	tr := FNFTree(w, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	kids := tr.Children[0]
	if len(kids) != 3 || kids[0] != 1 || kids[1] != 2 {
		t.Errorf("root children %v: greedy order violated", kids)
	}
	// Every non-root sender also picked its cheapest available link
	// (weights 100+j prefer low j).
	for v := 1; v < n; v++ {
		if tr.Parent[v] == -1 {
			t.Errorf("node %d unattached", v)
		}
	}
	mustPanic(t, func() { FNFTree(mat.NewDense(2, 3), 0) })
}

func TestTopologyAwareTree(t *testing.T) {
	dc := topo.NewTree(topo.TreeConfig{Racks: 3, ServersPerRack: 4})
	srv := dc.Servers()
	// 9 ranks over 3 racks.
	hosts := []int{srv[0], srv[1], srv[2], srv[4], srv[5], srv[6], srv[8], srv[9], srv[10]}
	tr := TopologyAwareTree(dc, hosts, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each rank's first member relays for its rack: members of rack 1
	// (ranks 3,4,5) must be reachable without leaving {3,4,5} except via
	// the representative 3.
	for _, rank := range []int{4, 5} {
		if p := tr.Parent[rank]; p != 3 && p != 4 {
			t.Errorf("rank %d should have an intra-rack parent, got %d", rank, p)
		}
	}
	// Representative of rack 1 hangs off an inter-rack edge.
	if tr.Parent[3] != 0 && tr.Parent[3] != 6 {
		t.Errorf("rack-1 representative parent %d", tr.Parent[3])
	}
}

func TestRingOrder(t *testing.T) {
	r := RingOrder(4, 2)
	want := []int{2, 3, 0, 1}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ring %v", r)
		}
	}
}

func TestBroadcastTimingUniform(t *testing.T) {
	// Uniform α=0, β=1 network: binomial broadcast of m bytes over
	// 2^k ranks takes exactly k·m.
	for _, k := range []int{1, 2, 3} {
		n := 1 << k
		net := NewAnalyticNet(uniformPerf(n, 0, 1))
		el := RunCollective(net, BinomialTree(n, 0), Broadcast, 10)
		want := float64(k) * 10
		if math.Abs(el-want) > 1e-9 {
			t.Errorf("n=%d broadcast elapsed %v want %v", n, el, want)
		}
	}
}

func TestScatterTimingUniform(t *testing.T) {
	// Uniform α=0, β=1: single-port binomial scatter of per-rank chunk m
	// takes (n−1)·m.
	n := 8
	net := NewAnalyticNet(uniformPerf(n, 0, 1))
	el := RunCollective(net, BinomialTree(n, 0), Scatter, 5)
	want := float64(n-1) * 5
	if math.Abs(el-want) > 1e-9 {
		t.Errorf("scatter elapsed %v want %v", el, want)
	}
}

func TestGatherReduceDuality(t *testing.T) {
	// On a symmetric uniform network, gather mirrors scatter and reduce
	// mirrors broadcast (the paper observes matching results for duals).
	n := 8
	tr := BinomialTree(n, 0)
	scatter := RunCollective(NewAnalyticNet(uniformPerf(n, 0.001, 2)), tr, Scatter, 7)
	gather := RunCollective(NewAnalyticNet(uniformPerf(n, 0.001, 2)), tr, Gather, 7)
	if math.Abs(scatter-gather) > 1e-9 {
		t.Errorf("gather %v vs scatter %v", gather, scatter)
	}
	bcast := RunCollective(NewAnalyticNet(uniformPerf(n, 0.001, 2)), tr, Broadcast, 7)
	reduce := RunCollective(NewAnalyticNet(uniformPerf(n, 0.001, 2)), tr, Reduce, 7)
	if math.Abs(bcast-reduce) > 1e-9 {
		t.Errorf("reduce %v vs broadcast %v", reduce, bcast)
	}
}

func TestBroadcastSingleRank(t *testing.T) {
	net := NewAnalyticNet(uniformPerf(1, 0, 1))
	if el := RunCollective(net, BinomialTree(1, 0), Broadcast, 100); el != 0 {
		t.Errorf("single-rank broadcast %v", el)
	}
}

func TestAllToAll(t *testing.T) {
	n := 4
	tr := BinomialTree(n, 0)
	net := NewAnalyticNet(uniformPerf(n, 0, 1))
	el := RunAllToAll(net, tr, tr, 3)
	g := RunCollective(NewAnalyticNet(uniformPerf(n, 0, 1)), tr, Gather, 3)
	b := RunCollective(NewAnalyticNet(uniformPerf(n, 0, 1)), tr, Broadcast, float64(n)*3)
	if math.Abs(el-(g+b)) > 1e-9 {
		t.Errorf("alltoall %v want %v", el, g+b)
	}
}

func TestCollectiveString(t *testing.T) {
	names := map[Collective]string{Broadcast: "broadcast", Scatter: "scatter", Gather: "gather", Reduce: "reduce"}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%v", c)
		}
	}
	if Collective(99).String() == "" {
		t.Error("unknown collective string")
	}
}

func TestAnalyticNetPanics(t *testing.T) {
	net := NewAnalyticNet(uniformPerf(3, 0, 1))
	mustPanic(t, func() { net.Send(1, 1, 5, nil) })
	mustPanic(t, func() { net.Send(0, 9, 5, nil) })
	mustPanic(t, func() { RunCollective(net, BinomialTree(3, 0), Collective(42), 1) })
}

func TestFNFBeatsBinomialOnHeterogeneousNetwork(t *testing.T) {
	// The core premise: with uneven pair-wise performance, FNF broadcast
	// beats the blind binomial tree on average.
	rng := rand.New(rand.NewSource(11))
	n := 16
	var fnfSum, binSum float64
	trials := 20
	for tr := 0; tr < trials; tr++ {
		pm := netmodel.NewPerfMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				// Bandwidth spans two orders of magnitude.
				beta := math.Pow(10, 6+2*rng.Float64())
				pm.SetLink(i, j, netmodel.Link{Alpha: 1e-4, Beta: beta})
			}
		}
		msg := 1e6
		w := pm.Weights(msg)
		fnfSum += RunCollective(NewAnalyticNet(pm), FNFTree(w, 0), Broadcast, msg)
		binSum += RunCollective(NewAnalyticNet(pm), BinomialTree(n, 0), Broadcast, msg)
	}
	if fnfSum >= binSum {
		t.Errorf("FNF total %v should beat binomial %v", fnfSum, binSum)
	}
	improvement := (binSum - fnfSum) / binSum
	if improvement < 0.2 {
		t.Errorf("FNF improvement %.2f lower than expected on a heterogeneous net", improvement)
	}
}

func TestSimNetworkBroadcast(t *testing.T) {
	dc := topo.NewTree(topo.TreeConfig{Racks: 2, ServersPerRack: 4, IntraRackBps: 1e6, InterRackBps: 8e6, HopLatency: 1e-5})
	sim := simnet.New(dc)
	srv := dc.Servers()
	hosts := srv[:8]
	net := NewSimNetwork(sim, hosts)
	el := RunCollective(net, BinomialTree(8, 0), Broadcast, 1e5)
	if el <= 0 {
		t.Fatalf("elapsed %v", el)
	}
	// Lower bound: 3 sequential rounds of 0.1s each at full bandwidth.
	if el < 0.3 {
		t.Errorf("broadcast too fast: %v", el)
	}
	mustPanic(t, func() { net.Send(0, 0, 1, nil) })
}

func TestSimVsAnalyticAgreementWithoutContention(t *testing.T) {
	// With one flow at a time and matching α-β parameters, the simulator
	// and the analytic model should agree closely on broadcast time.
	dc := topo.NewTree(topo.TreeConfig{Racks: 1, ServersPerRack: 4, IntraRackBps: 1e6, HopLatency: 5e-5})
	sim := simnet.New(dc)
	hosts := dc.Servers()
	n := 4
	net := NewSimNetwork(sim, hosts)
	tr := BinomialTree(n, 0)
	msg := 1e5
	simTime := RunCollective(net, tr, Broadcast, msg)

	pm := netmodel.NewPerfMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				pm.SetLink(i, j, netmodel.Link{Alpha: 1e-4, Beta: 1e6})
			}
		}
	}
	anaTime := RunCollective(NewAnalyticNet(pm), tr, Broadcast, msg)
	if math.Abs(simTime-anaTime)/anaTime > 0.05 {
		t.Errorf("sim %v vs analytic %v", simTime, anaTime)
	}
}

func TestFNFTreeDegradedWeightsTerminates(t *testing.T) {
	// A fully degraded calibration leaves +Inf (unmeasured) and NaN
	// weights. FNF must still terminate with a complete tree — picking
	// unmeasured receivers smallest-index-first as a last resort —
	// instead of spinning with no receiver ever joining (the advise CLI
	// used to hang here under heavy probe loss).
	inf := math.Inf(1)
	cases := map[string]*mat.Dense{
		"all-inf": mat.FromRows([][]float64{
			{0, inf, inf, inf},
			{inf, 0, inf, inf},
			{inf, inf, 0, inf},
			{inf, inf, inf, 0},
		}),
		"nan-mixed": mat.FromRows([][]float64{
			{0, math.NaN(), inf, inf},
			{inf, 0, math.NaN(), inf},
			{inf, inf, 0, inf},
			{math.NaN(), inf, inf, 0},
		}),
		"one-finite-row": mat.FromRows([][]float64{
			{0, 2, inf, inf},
			{inf, 0, inf, inf},
			{inf, inf, 0, inf},
			{inf, inf, inf, 0},
		}),
	}
	for name, w := range cases {
		done := make(chan *Tree, 1)
		go func() { done <- FNFTree(w, 0) }()
		select {
		case tr := <-done:
			if err := tr.Validate(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: FNFTree did not terminate", name)
		}
	}
}

// The helpers below serve only these tests.

// LongestPathWeight returns the maximum root-to-leaf sum of edge weights —
// the "total weight of the longest path" of the paper's Fig 1 example.
func (t *Tree) LongestPathWeight(w *mat.Dense) float64 {
	var walk func(v int) float64
	walk = func(v int) float64 {
		best := 0.0
		for _, c := range t.Children[v] {
			if d := w.At(v, c) + walk(c); d > best {
				best = d
			}
		}
		return best
	}
	return walk(t.Root)
}

// RingOrder returns ranks in a ring starting at root.
func RingOrder(n, root int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = (root + i) % n
	}
	return out
}
