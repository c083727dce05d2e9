package mpi

import (
	"math"
	"testing"

	"netconstant/internal/mat"
	"netconstant/internal/netmodel"
)

func ringOrderN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestRingAllgatherTiming(t *testing.T) {
	// Uniform α=0, β=1: n−1 synchronized rounds of one chunk each.
	n := 8
	net := NewAnalyticNet(uniformPerf(n, 0, 1))
	el := RingAllgather(net, ringOrderN(n), 10)
	want := float64(n-1) * 10
	if math.Abs(el-want) > 1e-9 {
		t.Errorf("ring allgather %v want %v", el, want)
	}
	if RingAllgather(NewAnalyticNet(uniformPerf(1, 0, 1)), []int{0}, 5) != 0 {
		t.Error("single rank should be free")
	}
}

func TestRecursiveDoublingAllgatherTiming(t *testing.T) {
	// Uniform α=0, β=1, power-of-two ranks: rounds carry 1,2,4,... chunks,
	// total (n−1) chunk-times — same bandwidth term as ring, fewer rounds.
	n := 8
	net := NewAnalyticNet(uniformPerf(n, 0, 1))
	el := RecursiveDoublingAllgather(net, ringOrderN(n), 10)
	want := float64(n-1) * 10 // 1+2+4 = 7 chunks
	if math.Abs(el-want) > 1e-9 {
		t.Errorf("recursive doubling %v want %v", el, want)
	}
}

func TestRecursiveDoublingLatencyAdvantage(t *testing.T) {
	// With latency-dominated messages, recursive doubling (log n rounds)
	// beats the ring (n−1 rounds).
	n := 16
	alpha := 1.0
	tiny := 1e-6
	ring := RingAllgather(NewAnalyticNet(uniformPerf(n, alpha, 1e9)), ringOrderN(n), tiny)
	rd := RecursiveDoublingAllgather(NewAnalyticNet(uniformPerf(n, alpha, 1e9)), ringOrderN(n), tiny)
	if rd >= ring {
		t.Errorf("recursive doubling %v should beat ring %v on latency", rd, ring)
	}
	if math.Abs(ring-float64(n-1)*alpha) > 1e-3 {
		t.Errorf("ring latency rounds: %v", ring)
	}
	if math.Abs(rd-4*alpha) > 1e-3 {
		t.Errorf("recursive doubling rounds: %v", rd)
	}
}

func TestRecursiveDoublingFallback(t *testing.T) {
	// Non-power-of-two falls back to ring.
	n := 6
	rd := RecursiveDoublingAllgather(NewAnalyticNet(uniformPerf(n, 0, 1)), ringOrderN(n), 10)
	ring := RingAllgather(NewAnalyticNet(uniformPerf(n, 0, 1)), ringOrderN(n), 10)
	if rd != ring {
		t.Errorf("fallback mismatch: %v vs %v", rd, ring)
	}
}

func TestRingAllreduceTiming(t *testing.T) {
	// 2(n−1) rounds of total/n bytes each.
	n := 4
	net := NewAnalyticNet(uniformPerf(n, 0, 1))
	el := RingAllreduce(net, ringOrderN(n), 100)
	want := float64(2*(n-1)) * 100 / float64(n)
	if math.Abs(el-want) > 1e-9 {
		t.Errorf("ring allreduce %v want %v", el, want)
	}
	if RingAllreduce(NewAnalyticNet(uniformPerf(1, 0, 1)), []int{0}, 5) != 0 {
		t.Error("single rank")
	}
}

func TestPairwiseAlltoallTiming(t *testing.T) {
	n := 5
	net := NewAnalyticNet(uniformPerf(n, 0, 1))
	el := PairwiseAlltoall(net, ringOrderN(n), 10)
	want := float64(n-1) * 10
	if math.Abs(el-want) > 1e-9 {
		t.Errorf("pairwise alltoall %v want %v", el, want)
	}
}

func TestPipelinedBroadcastTiming(t *testing.T) {
	// Chain of L=3 links, S=4 segments, α=0, β=1, msg 120 → segment 30:
	// time = (S + L − 1)·30 = 180.
	n := 4
	net := NewAnalyticNet(uniformPerf(n, 0, 1))
	el := PipelinedBroadcast(net, ringOrderN(n), 120, 4)
	want := (4.0 + 3 - 1) * 30
	if math.Abs(el-want) > 1e-9 {
		t.Errorf("pipelined broadcast %v want %v", el, want)
	}
	if PipelinedBroadcast(NewAnalyticNet(uniformPerf(1, 0, 1)), []int{0}, 100, 4) != 0 {
		t.Error("single rank")
	}
	if PipelinedBroadcast(NewAnalyticNet(uniformPerf(2, 0, 1)), []int{0, 1}, 0, 4) != 0 {
		t.Error("empty message")
	}
	// segments < 1 is clamped to 1 (plain chain forwarding).
	el1 := PipelinedBroadcast(NewAnalyticNet(uniformPerf(n, 0, 1)), ringOrderN(n), 120, 0)
	if math.Abs(el1-3*120) > 1e-9 {
		t.Errorf("unsegmented chain %v", el1)
	}
}

func TestPipelinedBeatsBinomialForLargeMessages(t *testing.T) {
	// Bandwidth-bound regime: pipelining approaches 1× the transfer time,
	// the binomial tree needs log n of them.
	n := 8
	msg := 1e6
	pm := uniformPerf(n, 1e-5, 1e6)
	binom := RunCollective(NewAnalyticNet(pm), BinomialTree(n, 0), Broadcast, msg)
	pipe := PipelinedBroadcast(NewAnalyticNet(pm), ringOrderN(n), msg, 32)
	if pipe >= binom {
		t.Errorf("pipelined %v should beat binomial %v for big messages", pipe, binom)
	}
}

func TestBinomialBeatsPipelinedForSmallMessages(t *testing.T) {
	n := 16
	msg := 10.0
	pm := uniformPerf(n, 0.1, 1e9)
	binom := RunCollective(NewAnalyticNet(pm), BinomialTree(n, 0), Broadcast, msg)
	pipe := PipelinedBroadcast(NewAnalyticNet(pm), ringOrderN(n), msg, 4)
	if binom >= pipe {
		t.Errorf("binomial %v should beat pipelined %v for tiny messages", binom, pipe)
	}
}

func TestChainFromWeights(t *testing.T) {
	pm := uniformPerf(4, 0, 1)
	// Make 0->2 cheap, 2->3 cheap, 3->1 cheap.
	pm.SetLink(0, 2, netmodel.Link{Alpha: 0, Beta: 100})
	pm.SetLink(2, 3, netmodel.Link{Alpha: 0, Beta: 100})
	w := pm.Weights(100)
	chain := ChainFromWeights(w, 0)
	if chain[0] != 0 || chain[1] != 2 || chain[2] != 3 {
		t.Errorf("greedy chain %v", chain)
	}
	seen := map[int]bool{}
	for _, v := range chain {
		if seen[v] {
			t.Fatal("duplicate in chain")
		}
		seen[v] = true
	}
	mustPanic(t, func() { ChainFromWeights(w, 9) })
}

func TestAutoBroadcastSwitchesByMessageSize(t *testing.T) {
	n := 8
	pm := uniformPerf(n, 1e-2, 1e6)
	w := pm.Weights(1 << 20)
	estimate := func() Network { return NewAnalyticNet(pm) }

	_, small := AutoBroadcast(estimate, NewAnalyticNet(pm), w, 0, 100, 16)
	if small != "binomial" {
		t.Errorf("small message picked %s", small)
	}
	_, large := AutoBroadcast(estimate, NewAnalyticNet(pm), w, 0, 64<<20, 16)
	if large != "pipelined" {
		t.Errorf("large message picked %s", large)
	}
}

func TestRunRoundsEmptyRound(t *testing.T) {
	net := NewAnalyticNet(uniformPerf(2, 0, 1))
	el := runRounds(net, [][]transfer{{}, {{src: 0, dst: 1, bytes: 10}}})
	if math.Abs(el-10) > 1e-9 {
		t.Errorf("empty round handling: %v", el)
	}
}

// The collectives below run only under these tests: no figure or command
// selects them, so they stay out of the package.

// RingAllgather implements the bandwidth-optimal ring allgather: in each
// of n−1 rounds, every rank forwards the newest block it holds to its
// right neighbour. order gives the ring permutation (ranks in ring
// positions); chunkBytes is the per-rank contribution. Returns elapsed
// time.
func RingAllgather(net Network, order []int, chunkBytes float64) float64 {
	n := len(order)
	if n < 2 {
		return 0
	}
	rounds := make([][]transfer, n-1)
	for r := 0; r < n-1; r++ {
		round := make([]transfer, 0, n)
		for i := 0; i < n; i++ {
			round = append(round, transfer{src: order[i], dst: order[(i+1)%n], bytes: chunkBytes})
		}
		rounds[r] = round
	}
	return runRounds(net, rounds)
}

// RecursiveDoublingAllgather implements the latency-optimal
// recursive-doubling allgather for a power-of-two number of ranks: in
// round k, rank i exchanges all data gathered so far with rank i XOR 2^k,
// so the payload doubles every round. For non-power-of-two rank counts it
// falls back to the ring algorithm. order maps algorithm positions to
// ranks.
func RecursiveDoublingAllgather(net Network, order []int, chunkBytes float64) float64 {
	n := len(order)
	if n < 2 {
		return 0
	}
	if n&(n-1) != 0 {
		return RingAllgather(net, order, chunkBytes)
	}
	var rounds [][]transfer
	for k := 1; k < n; k <<= 1 {
		round := make([]transfer, 0, n)
		for i := 0; i < n; i++ {
			peer := i ^ k
			// Both directions of the exchange.
			round = append(round, transfer{src: order[i], dst: order[peer], bytes: float64(k) * chunkBytes})
		}
		rounds = append(rounds, round)
	}
	return runRounds(net, rounds)
}

// PipelinedBroadcast streams the message down a chain in `segments`
// equal pieces: the head holds the data and each node forwards a segment
// to its successor as soon as it has received it (and has finished
// forwarding the previous segment). With S segments over a chain of
// length L, the analytic time is (S + L − 1) segment-transfer times —
// far better than a binomial tree for large messages on uniform networks.
// chain lists the ranks in order, chain[0] being the root.
func PipelinedBroadcast(net Network, chain []int, msgBytes float64, segments int) float64 {
	n := len(chain)
	if n < 2 || msgBytes <= 0 {
		return 0
	}
	if segments < 1 {
		segments = 1
	}
	segBytes := msgBytes / float64(segments)
	start := net.Now()
	finish := start

	// sendSeg(i, s) forwards segment s from chain[i] to chain[i+1] once
	// both the segment has arrived at i and link i->i+1 is free.
	// arrived[i] = number of segments fully received by node i;
	// busy[i] = whether link i->i+1 is currently transmitting;
	// sent[i] = segments already forwarded on link i.
	arrived := make([]int, n)
	arrived[0] = segments
	busy := make([]bool, n)
	sent := make([]int, n)

	var pump func(i int)
	pump = func(i int) {
		if i >= n-1 || busy[i] || sent[i] >= segments || sent[i] >= arrived[i] {
			return
		}
		busy[i] = true
		net.Send(chain[i], chain[i+1], segBytes, func(at float64) {
			busy[i] = false
			sent[i]++
			arrived[i+1]++
			if i+1 == n-1 && arrived[i+1] == segments && at > finish {
				finish = at
			}
			pump(i)     // next segment on this link
			pump(i + 1) // wake the downstream link
		})
	}
	pump(0)
	net.Run()
	return finish - start
}

// AutoBroadcast picks between the binomial tree and a pipelined chain the
// way an MPI library switches algorithms by message size: small messages
// are latency-bound (binomial, log n rounds), large messages are
// bandwidth-bound (pipelined chain). It plans both from the weight matrix
// and returns the better schedule's elapsed time together with the name of
// the winner. The estimate network supplies planning costs; the exec
// network is charged for the chosen schedule.
func AutoBroadcast(estimate func() Network, exec Network, w *mat.Dense, root int, msgBytes float64, segments int) (float64, string) {
	tree := FNFTree(w, root)
	chain := ChainFromWeights(w, root)

	treeTime := RunCollective(estimate(), tree, Broadcast, msgBytes)
	chainTime := PipelinedBroadcast(estimate(), chain, msgBytes, segments)
	if treeTime <= chainTime {
		return RunCollective(exec, tree, Broadcast, msgBytes), "binomial"
	}
	return PipelinedBroadcast(exec, chain, msgBytes, segments), "pipelined"
}
