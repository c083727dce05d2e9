package cloud

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"testing"

	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

func memoKey(n int, seed int64) CalibrationKey {
	return CalibrationKey{
		Provider: ProviderConfig{Tree: topo.TreeConfig{Racks: 4, ServersPerRack: 4}, Seed: seed},
		N:        n, ProvSeed: seed + 1, RNGSeed: seed + 2, Steps: 3, Gap: 5,
	}
}

func measureFor(t *testing.T, key CalibrationKey) *TemporalCalibration {
	t.Helper()
	p := NewProvider(key.Provider)
	vc, err := p.Provision(key.N, key.ProvSeed)
	if err != nil {
		t.Fatal(err)
	}
	return calibrateTP(t, vc, stats.NewRNG(key.RNGSeed), key.Steps, key.Gap, key.Cal)
}

// TestMemoHitReturnsEqualTrace: a hit replays the same trace (equal
// matrices and cost) through an independent deep copy.
func TestMemoHitReturnsEqualTrace(t *testing.T) {
	m := NewCalibrationMemo(4)
	key := memoKey(6, 100)
	computes := 0
	compute := func() (*TemporalCalibration, error) {
		computes++
		return measureFor(t, key), nil
	}
	a, err := m.GetOrComputeCtx(context.Background(), key, compute)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.GetOrComputeCtx(context.Background(), key, compute)
	if err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Fatalf("computed %d times, want 1", computes)
	}
	if a == b || a.Bandwidth == b.Bandwidth {
		t.Fatal("hits must return independent clones")
	}
	if a.TotalCost != b.TotalCost {
		t.Fatalf("costs differ: %v vs %v", a.TotalCost, b.TotalCost)
	}
	am, bm := a.Bandwidth.Matrix(), b.Bandwidth.Matrix()
	for i := 0; i < am.Rows(); i++ {
		for j := 0; j < am.Cols(); j++ {
			if am.At(i, j) != bm.At(i, j) {
				t.Fatalf("bandwidth differs at (%d,%d)", i, j)
			}
		}
	}
	// Mutating one clone must not leak into the cache.
	b.Bandwidth.Matrix().Set(0, 1, -1)
	c := m.Get(key)
	if c.Bandwidth.Matrix().At(0, 1) == -1 {
		t.Fatal("clone mutation leaked into the cached trace")
	}
	st := m.Stats()
	if st.Hits < 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestMemoConcurrentSingleFlight: concurrent requests for one key share a
// single computation, and every request is accounted as a hit or a miss
// — including those that joined the in-flight computation.
func TestMemoConcurrentSingleFlight(t *testing.T) {
	m := NewCalibrationMemo(4)
	key := memoKey(6, 200)
	var mu sync.Mutex
	computes := 0
	const requests = 8
	// The computation stays open until every request has been issued, so
	// most of them join it in flight instead of hitting the cache later.
	var issued sync.WaitGroup
	issued.Add(requests)
	var wg sync.WaitGroup
	for w := 0; w < requests; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			issued.Done()
			_, err := m.GetOrComputeCtx(context.Background(), key, func() (*TemporalCalibration, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				issued.Wait()
				return measureFor(t, key), nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computed %d times under concurrency, want 1", computes)
	}
	if st := m.Stats(); st.Hits+st.Misses != requests || st.Misses != 1 {
		t.Fatalf("stats %+v: want 1 miss and hits + misses = %d requests", st, requests)
	}
}

// TestMemoInvalidate: invalidation forces a fresh computation; errors are
// not cached.
func TestMemoInvalidate(t *testing.T) {
	m := NewCalibrationMemo(4)
	key := memoKey(6, 300)
	computes := 0
	compute := func() (*TemporalCalibration, error) {
		computes++
		return measureFor(t, key), nil
	}
	if _, err := m.GetOrComputeCtx(context.Background(), key, compute); err != nil {
		t.Fatal(err)
	}
	if !m.Invalidate(key) {
		t.Fatal("Invalidate should report an existing entry")
	}
	if m.Invalidate(key) {
		t.Fatal("second Invalidate should find nothing")
	}
	if _, err := m.GetOrComputeCtx(context.Background(), key, compute); err != nil {
		t.Fatal(err)
	}
	if computes != 2 {
		t.Fatalf("computed %d times, want 2 after invalidation", computes)
	}

	boom := errors.New("probe storm")
	k2 := memoKey(6, 301)
	if _, err := m.GetOrComputeCtx(context.Background(), k2, func() (*TemporalCalibration, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want compute error", err)
	}
	if _, err := m.GetOrComputeCtx(context.Background(), k2, compute); err != nil {
		t.Fatalf("error must not be cached: %v", err)
	}

	m.InvalidateAll()
	if st := m.Stats(); st.Entries != 0 {
		t.Fatalf("entries after InvalidateAll: %d", st.Entries)
	}
}

// TestMemoLRUBound: the memo never holds more than its capacity and
// evicts least-recently-used keys first.
func TestMemoLRUBound(t *testing.T) {
	m := NewCalibrationMemo(2)
	tc := measureFor(t, memoKey(4, 400))
	k1, k2, k3 := memoKey(4, 401), memoKey(4, 402), memoKey(4, 403)
	put := func(k CalibrationKey) {
		t.Helper()
		if _, err := m.GetOrComputeCtx(context.Background(), k, func() (*TemporalCalibration, error) { return tc, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put(k1)
	put(k2)
	if m.Get(k1) == nil { // touch k1 so k2 is the LRU
		t.Fatal("k1 missing")
	}
	put(k3)
	if st := m.Stats(); st.Entries != 2 {
		t.Fatalf("entries %d, want 2", st.Entries)
	}
	if m.Get(k2) != nil {
		t.Fatal("k2 should have been evicted as LRU")
	}
	if m.Get(k1) == nil || m.Get(k3) == nil {
		t.Fatal("k1 and k3 should survive")
	}
}

// TestTemporalCalibrationClone covers the deep copy itself, including the
// resilient-mode mask and per-step calibrations.
func TestTemporalCalibrationClone(t *testing.T) {
	key := memoKey(6, 500)
	key.Cal = CalibrationConfig{Resilient: true, DropProb: 0.3}
	tc := measureFor(t, key)
	if tc.Mask == nil {
		t.Fatal("resilient calibration should carry a mask")
	}
	cl := tc.Clone()
	if cl.Mask == tc.Mask || cl.Latency == tc.Latency || cl.Steps[0] == tc.Steps[0] || cl.Steps[0].Perf == tc.Steps[0].Perf {
		t.Fatal("clone shares state")
	}
	if cl.TotalCost != tc.TotalCost || len(cl.Steps) != len(tc.Steps) {
		t.Fatal("clone differs")
	}
	cl.Mask.Set(0, 0, 99)
	if tc.Mask.At(0, 0) == 99 {
		t.Fatal("mask mutation leaked")
	}
}

// TestMemoInvalidateDropsInflightInsert is the regression test for the
// invalidate-vs-inflight race: a computation that started before an
// Invalidate must not populate the cache when it finishes after it — the
// post-fault request would replay the pre-fault trace.
func TestMemoInvalidateDropsInflightInsert(t *testing.T) {
	m := NewCalibrationMemo(4)
	key := memoKey(6, 200)
	pre := measureFor(t, key)

	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tc, err := m.GetOrComputeCtx(context.Background(), key, func() (*TemporalCalibration, error) {
			close(started)
			<-release // hold the computation while Invalidate lands
			return pre, nil
		})
		if err != nil || tc == nil {
			t.Errorf("computing request: tc=%v err=%v", tc, err)
		}
	}()
	<-started
	m.Invalidate(key)
	close(release)
	<-done

	if got := m.Get(key); got != nil {
		t.Fatal("pre-invalidation compute repopulated the cache")
	}
}

// TestMemoInvalidateAllDropsInflightInsert: same fence through the global
// invalidation.
func TestMemoInvalidateAllDropsInflightInsert(t *testing.T) {
	m := NewCalibrationMemo(4)
	key := memoKey(6, 210)
	pre := measureFor(t, key)

	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := m.GetOrComputeCtx(context.Background(), key, func() (*TemporalCalibration, error) {
			close(started)
			<-release
			return pre, nil
		}); err != nil {
			t.Error(err)
		}
	}()
	<-started
	m.InvalidateAll()
	close(release)
	<-done

	if got := m.Get(key); got != nil {
		t.Fatal("pre-InvalidateAll compute repopulated the cache")
	}
}

// TestMemoInvalidateDetachesInflight: a request arriving after an
// Invalidate must start a fresh computation instead of joining (and
// receiving the result of) the stale in-flight one, and the fresh result
// is the one that ends up cached.
func TestMemoInvalidateDetachesInflight(t *testing.T) {
	m := NewCalibrationMemo(4)
	key := memoKey(6, 220)
	pre := measureFor(t, key)
	post := measureFor(t, key)
	post.TotalCost = pre.TotalCost + 1000 // distinguishable post-fault trace

	started := make(chan struct{})
	release := make(chan struct{})
	staleDone := make(chan struct{})
	go func() {
		defer close(staleDone)
		if _, err := m.GetOrComputeCtx(context.Background(), key, func() (*TemporalCalibration, error) {
			close(started)
			<-release
			return pre, nil
		}); err != nil {
			t.Error(err)
		}
	}()
	<-started
	m.Invalidate(key)

	freshRan := false
	got, err := m.GetOrComputeCtx(context.Background(), key, func() (*TemporalCalibration, error) {
		freshRan = true
		return post, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !freshRan {
		t.Fatal("post-invalidation request joined the stale in-flight computation")
	}
	if got.TotalCost != post.TotalCost {
		t.Fatalf("post-invalidation request got cost %v, want the fresh trace's %v", got.TotalCost, post.TotalCost)
	}
	close(release)
	<-staleDone

	cached := m.Get(key)
	if cached == nil {
		t.Fatal("fresh trace not cached")
	}
	if cached.TotalCost != post.TotalCost {
		t.Fatalf("cache holds cost %v, want the post-fault %v — stale insert won", cached.TotalCost, post.TotalCost)
	}
}

// TestMemoInvalidateRaceStress hammers GetOrCompute against Invalidate
// under the race detector: after every invalidation the cache must never
// serve a trace computed before it (cost stamps are monotonic per round).
func TestMemoInvalidateRaceStress(t *testing.T) {
	m := NewCalibrationMemo(8)
	key := memoKey(6, 230)
	base := measureFor(t, key)

	var mu sync.Mutex
	round := 0

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tc, err := m.GetOrComputeCtx(context.Background(), key, func() (*TemporalCalibration, error) {
					mu.Lock()
					r := round
					mu.Unlock()
					c := base.Clone()
					c.TotalCost = float64(r)
					return c, nil
				})
				if err != nil || tc == nil {
					t.Errorf("GetOrCompute: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			mu.Lock()
			round++
			mu.Unlock()
			m.Invalidate(key)
		}
	}()
	wg.Wait()

	// After the dust settles the cached round stamp must be from after the
	// final invalidation (or the key absent entirely).
	mu.Lock()
	final := round
	mu.Unlock()
	if tc := m.Get(key); tc != nil && int(tc.TotalCost) < final {
		// A cached trace older than the last invalidation is exactly the
		// replay hazard the generation stamps exist to prevent. (Equal is
		// fine: a compute that started after the final Invalidate.)
		t.Fatalf("cache serves round %d, last invalidation was %d", int(tc.TotalCost), final)
	}
}

// TestMemoOwnerFairness is the cross-tenant fairness regression: under a
// shared memo, a hot tenant's burst must evict the hot tenant's own older
// traces, never a cold tenant's lone entry.
func TestMemoOwnerFairness(t *testing.T) {
	m := NewCalibrationMemo(4)
	tc := measureFor(t, memoKey(4, 500))

	coldKey := memoKey(4, 501)
	coldComputes := 0
	if _, err := m.GetOrComputeOwned(context.Background(), "cold", coldKey, func() (*TemporalCalibration, error) {
		coldComputes++
		return tc.Clone(), nil
	}); err != nil {
		t.Fatal(err)
	}

	// The hot tenant bursts well past the whole capacity.
	for i := 0; i < 10; i++ {
		key := memoKey(4, 600+int64(i))
		if _, err := m.GetOrComputeOwned(context.Background(), "hot", key, func() (*TemporalCalibration, error) {
			return tc.Clone(), nil
		}); err != nil {
			t.Fatal(err)
		}
		if st := m.Stats(); st.Entries > 4 {
			t.Fatalf("burst step %d: %d entries exceed capacity 4", i, st.Entries)
		}
	}

	// The cold tenant's entry must still be a hit.
	if _, err := m.GetOrComputeOwned(context.Background(), "cold", coldKey, func() (*TemporalCalibration, error) {
		coldComputes++
		return tc.Clone(), nil
	}); err != nil {
		t.Fatal(err)
	}
	if coldComputes != 1 {
		t.Fatalf("cold tenant recomputed %d times — its entry was evicted by the hot burst", coldComputes)
	}

	// And the hot tenant still retains the most recent traces it can hold.
	if m.Get(memoKey(4, 609)) == nil {
		t.Fatal("hot tenant's most recent trace should survive its own burst")
	}
}

// Invalidate and InvalidateAll exercise the memo's invalidation fence;
// no production caller mutates a substrate under a memoized key.

// Invalidate drops the entry for key (e.g. after injecting a fault into
// the substrate the key describes) and fences any computation of that key
// currently in flight: its eventual result is handed to the waiters that
// already joined it but is not cached, and a request arriving after the
// invalidation starts a fresh computation instead of joining the stale
// one. It reports whether a cached entry existed.
func (m *CalibrationMemo) Invalidate(key CalibrationKey) bool {
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gens[key]++
	delete(m.inflight, key)
	el, ok := m.byK[key]
	if !ok {
		return false
	}
	m.removeElement(el)
	return true
}

// InvalidateAll empties the memo and fences every in-flight computation,
// with the same semantics per key as Invalidate.
func (m *CalibrationMemo) InvalidateAll() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.allGen++
	m.inflight = map[CalibrationKey]*memoCall{}
	m.lru.Init()
	m.byK = map[CalibrationKey]*list.Element{}
	m.ownerCost = map[string]float64{}
}
