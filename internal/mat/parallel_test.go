package mat

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// bitsEqual reports exact (bitwise) equality of the two matrices — the
// determinism contract of the parallel kernels, stronger than ApproxEqual.
func bitsEqual(a, b *Dense) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if a.data[i] != b.data[i] {
			return false
		}
	}
	return true
}

func vecBitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// withParallelism runs f with GOMAXPROCS (and so the pool's worker
// count) pinned to n, then restores the previous setting.
func withParallelism(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

// TestParallelKernelsByteIdentical checks every pooled kernel at sizes
// above the dispatch gate: the parallel result must match the sequential
// result bit for bit.
func TestParallelKernelsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][2]int{{64, 1024}, {37, 513}, {129, 130}}
	for _, sh := range shapes {
		r, c := sh[0], sh[1]
		a := RandomNormal(rng, r, c, 0, 1)
		b := RandomNormal(rng, r, c, 1, 2)
		bt := b.T()
		k := RandomNormal(rng, c, 9, 0, 1)
		k2 := RandomNormal(rng, r, 9, 0, 1)
		x := make([]float64, c)
		y := make([]float64, r)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}

		type result struct {
			mul, gram, atb, lc3, soft *Dense
			mv, mtv                   []float64
			svd                       *SVDResult
		}
		compute := func() result {
			var res result
			res.mul = a.Mul(k)
			res.gram = a.Gram()
			res.atb = NewDense(c, 9)
			mulATBInto(res.atb, a, k2) // aᵀ·k2
			res.lc3 = NewDense(r, c)
			LinComb3Into(res.lc3, 1.5, a, -0.25, b, 0.5, a)
			res.soft = a.SoftThreshold(0.4)
			res.mv = a.MulVec(x)
			res.mtv = a.MulTVec(y)
			res.svd = bt.SVDJacobi() // tall matrix exercises the pair rounds
			return res
		}

		var seq, par result
		withParallelism(1, func() { seq = compute() })
		withParallelism(8, func() { par = compute() })

		if !bitsEqual(seq.mul, par.mul) {
			t.Errorf("%dx%d: Mul differs between 1 and 8 workers", r, c)
		}
		if !bitsEqual(seq.gram, par.gram) {
			t.Errorf("%dx%d: Gram differs between 1 and 8 workers", r, c)
		}
		if !bitsEqual(seq.atb, par.atb) {
			t.Errorf("%dx%d: mulATBInto differs between 1 and 8 workers", r, c)
		}
		if !bitsEqual(seq.lc3, par.lc3) {
			t.Errorf("%dx%d: LinComb3Into differs between 1 and 8 workers", r, c)
		}
		if !bitsEqual(seq.soft, par.soft) {
			t.Errorf("%dx%d: SoftThreshold differs between 1 and 8 workers", r, c)
		}
		if !vecBitsEqual(seq.mv, par.mv) || !vecBitsEqual(seq.mtv, par.mtv) {
			t.Errorf("%dx%d: MulVec/MulTVec differ between 1 and 8 workers", r, c)
		}
		if !bitsEqual(seq.svd.U, par.svd.U) || !bitsEqual(seq.svd.V, par.svd.V) ||
			!vecBitsEqual(seq.svd.S, par.svd.S) {
			t.Errorf("%dx%d: Jacobi SVD differs between 1 and 8 workers", r, c)
		}
	}
}

// TestParallelKernelsMatchNaive pins the pooled kernels to straight
// reference loops (sequential order), independent of the chunked
// implementations.
func TestParallelKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := RandomNormal(rng, 23, 310, 0, 1)
	b := RandomNormal(rng, 310, 17, 0, 1)

	naiveMul := NewDense(23, 17)
	for i := 0; i < 23; i++ {
		for j := 0; j < 17; j++ {
			var s float64
			for k2 := 0; k2 < 310; k2++ {
				s += a.At(i, k2) * b.At(k2, j)
			}
			naiveMul.Set(i, j, s)
		}
	}
	withParallelism(4, func() {
		if got := a.Mul(b); !got.ApproxEqual(naiveMul, 1e-12) {
			t.Error("Mul deviates from naive triple loop")
		}
		atb := NewDense(310, 310)
		mulATBInto(atb, a, a)
		gramT := a.T().Gram()
		if !atb.ApproxEqual(gramT, 1e-12) {
			t.Error("mulATBInto(aᵀa) deviates from T().Gram()")
		}
	})
}

// TestRoundRobinCoverage verifies the tournament schedule pairs every
// unordered column pair exactly once per sweep, for even and odd counts.
func TestRoundRobinCoverage(t *testing.T) {
	for _, c := range []int{2, 3, 4, 5, 8, 9, 17} {
		n := c
		if n%2 == 1 {
			n++
		}
		seen := make(map[[2]int]int)
		pairs := make([][2]int, n/2)
		for k := 0; k < n-1; k++ {
			roundRobinPairs(pairs, k, n, c)
			inRound := make(map[int]bool)
			for _, pq := range pairs {
				if pq[0] < 0 {
					continue
				}
				if pq[0] >= pq[1] || pq[1] >= c {
					t.Fatalf("c=%d round %d: bad pair %v", c, k, pq)
				}
				if inRound[pq[0]] || inRound[pq[1]] {
					t.Fatalf("c=%d round %d: column reused within round", c, k)
				}
				inRound[pq[0]], inRound[pq[1]] = true, true
				seen[pq]++
			}
		}
		want := c * (c - 1) / 2
		if len(seen) != want {
			t.Fatalf("c=%d: schedule covered %d pairs, want %d", c, len(seen), want)
		}
		for pq, n := range seen {
			if n != 1 {
				t.Fatalf("c=%d: pair %v visited %d times", c, pq, n)
			}
		}
	}
}

// TestNestedParallelFallsBack drives parallelFor from inside a pooled
// task; the inner call must run inline (TryLock fails) with an identical
// result rather than deadlocking.
func TestNestedParallelFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandomNormal(rng, 80, 600, 0, 1)
	withParallelism(4, func() {
		var ref *Dense
		withParallelism(1, func() { ref = a.Gram() })
		outer := nestedTask{a: a, out: make([]*Dense, 80)}
		parallelFor(80, 1, &outer)
		for _, g := range outer.out {
			if !bitsEqual(g, ref) {
				t.Fatal("nested parallel Gram differs from sequential")
			}
		}
	})
}

type nestedTask struct {
	a   *Dense
	out []*Dense
}

func (t *nestedTask) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		t.out[i] = t.a.Gram() // inner parallel attempt while pool is busy
	}
}

// TestParallelShards checks the exported shard runner: every shard runs
// exactly once at any worker count, per-shard slot writes land intact,
// and a nested invocation from inside a pooled task degrades to the
// inline loop instead of deadlocking.
func TestParallelShards(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		withParallelism(workers, func() {
			const n = 237
			hits := make([]int32, n)
			ParallelShards(n, func(shard int) {
				atomic.AddInt32(&hits[shard], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d: shard %d ran %d times", workers, i, h)
				}
			}
		})
	}
	// Zero and negative shard counts are no-ops.
	ParallelShards(0, func(int) { t.Fatal("shard ran for n=0") })
	ParallelShards(-3, func(int) { t.Fatal("shard ran for n<0") })
	// Nested: the inner ParallelShards runs while the pool is held.
	withParallelism(4, func() {
		outer := make([][]int, 16)
		ParallelShards(16, func(i int) {
			inner := make([]int, 32)
			ParallelShards(32, func(j int) { inner[j] = i*32 + j })
			outer[i] = inner
		})
		for i, row := range outer {
			for j, v := range row {
				if v != i*32+j {
					t.Fatalf("nested shard (%d,%d) = %d", i, j, v)
				}
			}
		}
	})
}
