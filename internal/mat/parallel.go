package mat

// Size-gated worker pool behind the hot kernels (Mul, Gram, MulVec,
// MulTVec, the elementwise linear combinations, and the one-sided Jacobi
// sweeps).
//
// Determinism contract: every parallel kernel in this package partitions
// its *output* into disjoint index ranges, and each output element is
// computed with exactly the same floating-point operation order as the
// plain sequential loop. Chunk geometry therefore never influences a
// single bit of the result: running with GOMAXPROCS=1, with the pool
// saturated, or with any worker count produces byte-identical matrices.
// Reductions that would need cross-chunk accumulation (the norms)
// deliberately stay sequential.
//
// Dispatch never blocks on pool availability: if the pool is busy (a
// nested or concurrent parallel call) the caller simply runs its chunks
// inline, which is always correct because of the contract above.

import (
	"runtime"
	"sync"
)

// task is one parallelizable kernel invocation; Run processes the
// half-open output range [lo, hi).
type task interface {
	Run(lo, hi int)
}

type poolJob struct {
	t      task
	lo, hi int
}

type workerPool struct {
	busy    sync.Mutex // held for the duration of one parallelFor
	mu      sync.Mutex // guards started
	started int        // worker goroutines launched so far
	jobs    chan poolJob
	wg      sync.WaitGroup
}

// poolQueueCap bounds in-flight chunks; parallelFor never submits more
// than this many jobs, so a send can only block while workers are
// actively draining.
const poolQueueCap = 256

// chunksPerWorker over-decomposes work for load balance (Gram rows and
// Jacobi pairs have uneven cost) without drowning in dispatch overhead.
const chunksPerWorker = 4

// parMinWork is the approximate scalar-op count below which dispatching
// to the pool costs more than it saves.
const parMinWork = 1 << 15

var (
	poolOnce sync.Once
	thePool  *workerPool
)

func getPool() *workerPool {
	poolOnce.Do(func() {
		thePool = &workerPool{jobs: make(chan poolJob, poolQueueCap)}
	})
	return thePool
}

func (p *workerPool) ensureWorkers(n int) {
	p.mu.Lock()
	for ; p.started < n; p.started++ {
		go p.worker()
	}
	p.mu.Unlock()
}

func (p *workerPool) worker() {
	for j := range p.jobs {
		j.t.Run(j.lo, j.hi)
		p.wg.Done()
	}
}

// Parallelism reports the worker count the mat kernels target: the
// current GOMAXPROCS. GOMAXPROCS=1 disables the pool entirely; results
// are byte-identical at every setting.
//
//netlint:hotpath
func Parallelism() int {
	return runtime.GOMAXPROCS(0)
}

// parGate reports whether a kernel with the given total scalar-op count
// should try the pool at all. Kernels use it to skip building a task in
// the (allocation-free) sequential fast path; the size check comes first
// so small kernels never pay for the GOMAXPROCS read.
func parGate(work int) bool {
	return work >= 2*parMinWork && Parallelism() > 1
}

// shardTask adapts a per-shard closure to the pool's range interface.
type shardTask struct{ f func(shard int) }

func (t shardTask) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		t.f(i)
	}
}

// ParallelShards runs f(0), …, f(n-1) — possibly concurrently on the
// package worker pool, falling back to an inline sequential loop when the
// pool is busy or Parallelism() is 1. It returns only after every shard
// has run.
//
// Callers must uphold the pool's determinism contract themselves: each
// shard may write only state owned exclusively by that shard (disjoint
// index ranges, per-shard slots), and each shard's computation must not
// depend on whether other shards have run. simnet's component-sharded
// max-min fill is the canonical user: connected components of the
// flow↔link sharing graph are arithmetically independent, so filling them
// in any interleaving is byte-identical to the sequential loop.
//
//netlint:hotpath
func ParallelShards(n int, f func(shard int)) {
	parallelFor(n, 1, shardTask{f})
}

// parallelFor runs t over [0, n) split into roughly equal chunks of at
// least grain elements. It falls back to a single inline Run when the
// split is too fine, the pool is busy, or parallelism is 1.
func parallelFor(n, grain int, t task) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	w := Parallelism()
	chunks := n / grain
	if mx := w * chunksPerWorker; chunks > mx {
		chunks = mx
	}
	if chunks > poolQueueCap {
		chunks = poolQueueCap
	}
	if w <= 1 || chunks < 2 {
		t.Run(0, n)
		return
	}
	p := getPool()
	if !p.busy.TryLock() {
		// Nested or concurrent parallel section: run inline. Identical
		// result by the determinism contract.
		t.Run(0, n)
		return
	}
	defer p.busy.Unlock()
	p.ensureWorkers(w)
	p.wg.Add(chunks - 1)
	for i := 1; i < chunks; i++ {
		p.jobs <- poolJob{t: t, lo: i * n / chunks, hi: (i + 1) * n / chunks}
	}
	t.Run(0, n/chunks) // caller takes the first chunk
	p.wg.Wait()
}
