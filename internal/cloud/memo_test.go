package cloud

import (
	"context"
	"errors"
	"hash/fnv"
	"sync"
	"testing"

	"netconstant/internal/netmodel"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

func memoKey(n int, seed int64) CalibrationKey {
	return CalibrationKey{
		Provider: ProviderConfig{Tree: topo.TreeConfig{Racks: 4, ServersPerRack: 4}, Seed: seed},
		N:        n, ProvSeed: seed + 1, RNGSeed: seed + 2, Steps: 3, Gap: 5,
	}
}

// cached returns the trace m holds for key, or nil. It reads the cache
// as it stands: no hit or miss is counted and the LRU order stays put,
// so a test's reads never move MemoStats or the next eviction.
func cached(m *CalibrationMemo, key CalibrationKey) *TemporalCalibration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.byK[key]; ok {
		return el.Value.(*memoEntry).tc
	}
	return nil
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

// traceHash hashes every value of a trace bit for bit: both TP-matrices
// with their row times, the total cost, the mask, and each step's cost
// and matrix.
func traceHash(tc *TemporalCalibration) uint64 {
	h := fnv.New64a()
	for _, tp := range []*netmodel.TPMatrix{tc.Latency, tc.Bandwidth} {
		hashFloats(h, tp.Times...)
		hashFloats(h, tp.Matrix().Data()...)
	}
	hashFloats(h, tc.TotalCost)
	if tc.Mask != nil {
		hashFloats(h, tc.Mask.Data()...)
	}
	for _, st := range tc.Steps {
		hashFloats(h, st.Cost)
		hashFloats(h, st.Perf.Latency.Data()...)
		hashFloats(h, st.Perf.Bandwth.Data()...)
	}
	return h.Sum64()
}

// TestCalibrateMeasuresTheKey: a Calibrate miss and a nil memo's
// Calibrate each return exactly the trace measured on a replica
// provisioned from the key, and a hit replays it.
func TestCalibrateMeasuresTheKey(t *testing.T) {
	for _, cal := range []CalibrationConfig{{}, {Resilient: true, DropProb: 0.3}} {
		key := memoKey(6, 700)
		key.Cal = cal
		want := traceHash(measureFor(t, key))
		m := NewCalibrationMemo(4)
		var nilMemo *CalibrationMemo
		for _, c := range []struct {
			name string
			m    *CalibrationMemo
		}{{"miss", m}, {"hit", m}, {"nil memo", nilMemo}} {
			tc, err := c.m.Calibrate(context.Background(), "", key)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got := traceHash(tc); got != want {
				t.Fatalf("resilient=%v %s: trace hash %#x, want the replica's %#x", cal.Resilient, c.name, got, want)
			}
		}
		if st := m.Stats(); st.Misses != 1 || st.Hits != 1 {
			t.Fatalf("stats %+v, want one miss and one hit", st)
		}
	}
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
	a, err := m.getOrCompute(context.Background(), "", key, compute)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.getOrCompute(context.Background(), "", key, compute)
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
	if cached(m, key).Bandwidth.Matrix().At(0, 1) == -1 {
		t.Fatal("clone mutation leaked into the cached trace")
	}
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
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
			_, err := m.getOrCompute(context.Background(), "", key, func() (*TemporalCalibration, error) {
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

// TestMemoErrorsNotCached: a failed measurement is returned to its
// request and not cached, so the next request for the key measures again.
func TestMemoErrorsNotCached(t *testing.T) {
	m := NewCalibrationMemo(4)
	key := memoKey(6, 301)
	boom := errors.New("probe storm")
	if _, err := m.getOrCompute(context.Background(), "", key, func() (*TemporalCalibration, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want compute error", err)
	}
	if st := m.Stats(); st.Entries != 0 {
		t.Fatalf("entries after a failed measurement: %d", st.Entries)
	}
	if _, err := m.getOrCompute(context.Background(), "", key, func() (*TemporalCalibration, error) { return measureFor(t, key), nil }); err != nil {
		t.Fatalf("error must not be cached: %v", err)
	}
	if cached(m, key) == nil {
		t.Fatal("the retried measurement was not cached")
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
		if _, err := m.getOrCompute(context.Background(), "", k, func() (*TemporalCalibration, error) { return tc, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put(k1)
	put(k2)
	put(k1) // a hit: touch k1 so k2 is the LRU
	put(k3)
	if st := m.Stats(); st.Entries != 2 || st.Hits != 1 {
		t.Fatalf("stats %+v, want 2 entries after 1 hit", st)
	}
	if cached(m, k2) != nil {
		t.Fatal("k2 should have been evicted as LRU")
	}
	if cached(m, k1) == nil || cached(m, k3) == nil {
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

// TestMemoOwnerFairness is the cross-tenant fairness regression: under a
// shared memo, a hot tenant's burst must evict the hot tenant's own older
// traces, never a cold tenant's lone entry.
func TestMemoOwnerFairness(t *testing.T) {
	m := NewCalibrationMemo(4)
	tc := measureFor(t, memoKey(4, 500))

	coldKey := memoKey(4, 501)
	coldComputes := 0
	if _, err := m.getOrCompute(context.Background(), "cold", coldKey, func() (*TemporalCalibration, error) {
		coldComputes++
		return tc.Clone(), nil
	}); err != nil {
		t.Fatal(err)
	}

	// The hot tenant bursts well past the whole capacity.
	for i := 0; i < 10; i++ {
		key := memoKey(4, 600+int64(i))
		if _, err := m.getOrCompute(context.Background(), "hot", key, func() (*TemporalCalibration, error) {
			return tc.Clone(), nil
		}); err != nil {
			t.Fatal(err)
		}
		if st := m.Stats(); st.Entries > 4 {
			t.Fatalf("burst step %d: %d entries exceed capacity 4", i, st.Entries)
		}
	}

	// The cold tenant's entry must still be a hit.
	if _, err := m.getOrCompute(context.Background(), "cold", coldKey, func() (*TemporalCalibration, error) {
		coldComputes++
		return tc.Clone(), nil
	}); err != nil {
		t.Fatal(err)
	}
	if coldComputes != 1 {
		t.Fatalf("cold tenant recomputed %d times — its entry was evicted by the hot burst", coldComputes)
	}

	// And the hot tenant still retains the most recent traces it can hold.
	if cached(m, memoKey(4, 609)) == nil {
		t.Fatal("hot tenant's most recent trace should survive its own burst")
	}
}
