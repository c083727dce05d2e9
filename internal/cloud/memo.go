package cloud

import (
	"container/list"
	"context"
	"math"
	"sync"

	"netconstant/internal/cancel"
)

// CalibrationKey identifies a calibration trace by its measurement
// provenance: the provider that generated the cluster, the cluster size
// and provisioning seed, the measuring rng's seed, and the full
// measurement procedure (steps, gap, CalibrationConfig). Two calibrations
// with equal keys are deterministic replicas of each other, so one
// measured trace can stand in for all of them. Parameters that do not
// affect the measurement — maintenance thresholds, extraction methods,
// solver options — deliberately stay out of the key.
type CalibrationKey struct {
	Provider ProviderConfig
	N        int
	ProvSeed int64
	RNGSeed  int64
	Steps    int
	Gap      float64
	Cal      CalibrationConfig
}

// CalibrationMemo is a size-bounded, thread-safe LRU cache of calibration
// traces. Identical (provider, size, seeds, procedure) tuples are measured
// once per driver run; later requests replay the cached trace. Get and
// GetOrComputeCtx return deep clones, so callers can hand the trace to an
// advisor (which keeps and may inspect it) without sharing state.
//
// A cached trace stands for its key's provenance, so a caller that
// mutates the substrate between calibrations must not reuse the key, or
// it would replay the pre-fault trace. No production caller does; the
// memo's tests drop keys through Invalidate and InvalidateAll (in
// memo_test.go) to exercise the fence below.
type CalibrationMemo struct {
	mu  sync.Mutex
	cap int
	lru *list.List // front = most recent; values are *memoEntry
	byK map[CalibrationKey]*list.Element

	// ownerCost tracks the total measurement cost each owner currently
	// holds in the cache. Eviction charges the costliest owner first (see
	// put), which is what keeps a cold tenant's single entry alive while a
	// hot tenant bursts: the burst evicts the burster's own older traces,
	// not everyone else's.
	ownerCost map[string]float64

	hits, misses int
	// inflight serializes concurrent computations of the same key so a
	// parallel sweep computes each trace once instead of once per worker.
	// Waiters block on the call's done channel, which keeps them
	// cancellable: a waiter whose context ends abandons the wait (the
	// computation itself keeps running on the goroutine that started it).
	inflight map[CalibrationKey]*memoCall

	// gens and allGen stamp computations against invalidations: every
	// Invalidate(key) bumps gens[key] and every InvalidateAll bumps allGen.
	// A computation records both at start and its result is cached only if
	// neither moved — otherwise a compute that was racing an invalidation
	// would re-insert the pre-fault trace, exactly the replay hazard the
	// type doc warns about. The stale result is still returned to the
	// waiters of that round (they asked before the fault); it just never
	// outlives them in the cache.
	gens   map[CalibrationKey]uint64
	allGen uint64
}

type memoEntry struct {
	key   CalibrationKey
	tc    *TemporalCalibration
	owner string
	cost  float64
}

// entryCost prices a cached trace by its measurement volume: the probe
// cost the substrate charged to produce it, floored at one so zero-cost
// traces still count against their owner's share.
func entryCost(tc *TemporalCalibration) float64 {
	if tc == nil || tc.TotalCost <= 0 {
		return 1
	}
	return tc.TotalCost
}

// memoCall is one in-flight computation; tc/err are written exactly
// once, before done is closed. gen/allGen are the invalidation stamps the
// computation started under.
type memoCall struct {
	done        chan struct{}
	tc          *TemporalCalibration
	err         error
	gen, allGen uint64
}

// MemoStats reports cache effectiveness. Every successful request counts
// once: as a miss if it ran the measurement, else as a hit (served from
// the cache or from a computation already in flight).
type MemoStats struct {
	Hits, Misses, Entries int
}

// NewCalibrationMemo creates a memo holding at most capacity traces
// (capacity <= 0 selects a default of 64).
func NewCalibrationMemo(capacity int) *CalibrationMemo {
	if capacity <= 0 {
		capacity = 64
	}
	return &CalibrationMemo{
		cap:       capacity,
		lru:       list.New(),
		byK:       map[CalibrationKey]*list.Element{},
		ownerCost: map[string]float64{},
		inflight:  map[CalibrationKey]*memoCall{},
		gens:      map[CalibrationKey]uint64{},
	}
}

// Get returns a deep clone of the cached trace for key, or nil.
func (m *CalibrationMemo) Get(key CalibrationKey) *TemporalCalibration {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.byK[key]; ok {
		m.lru.MoveToFront(el)
		m.hits++
		return el.Value.(*memoEntry).tc.Clone()
	}
	m.misses++
	return nil
}

func (m *CalibrationMemo) put(owner string, key CalibrationKey, tc *TemporalCalibration) {
	if el, ok := m.byK[key]; ok {
		e := el.Value.(*memoEntry)
		m.ownerCost[e.owner] -= e.cost
		e.tc, e.owner, e.cost = tc, owner, entryCost(tc)
		m.ownerCost[owner] += e.cost
		m.lru.MoveToFront(el)
		return
	}
	e := &memoEntry{key: key, tc: tc, owner: owner, cost: entryCost(tc)}
	m.byK[key] = m.lru.PushFront(e)
	m.ownerCost[owner] += e.cost
	for m.lru.Len() > m.cap {
		m.removeElement(m.victim())
	}
}

// victim picks the entry to evict when the memo is full: the least
// recently used entry belonging to the owner holding the greatest total
// cached cost. With a single owner this degrades to plain LRU; with many,
// a hot tenant's burst cannibalizes its own older traces while a cold
// tenant's lone entry survives. Ties on cost break toward the owner whose
// entry has been idle longest, so no owner is privileged by name.
func (m *CalibrationMemo) victim() *list.Element {
	heaviest := math.Inf(-1)
	var pick *list.Element
	for el := m.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*memoEntry)
		if c := m.ownerCost[e.owner]; c > heaviest {
			// Walking back-to-front, the first entry seen for each owner is
			// that owner's LRU entry, so pick lands on the heaviest owner's
			// coldest trace.
			heaviest = c
			pick = el
		}
	}
	return pick
}

func (m *CalibrationMemo) removeElement(el *list.Element) {
	e := el.Value.(*memoEntry)
	m.lru.Remove(el)
	delete(m.byK, e.key)
	m.ownerCost[e.owner] -= e.cost
	if m.ownerCost[e.owner] <= 0 {
		delete(m.ownerCost, e.owner)
	}
}

// GetOrComputeCtx returns a deep clone of the trace for key, calling
// compute (and caching its result) on the first request. Concurrent
// requests for the same key block on a single computation; distinct keys
// compute concurrently. A compute error is returned to every waiter and
// nothing is cached, so the next request retries. Waiting is
// cancellable: a request that finds the key's computation already in
// flight blocks until either the computation finishes or ctx ends, in
// which case it abandons the wait with a *cancel.Error (matching
// cancel.ErrCanceled).
// The computation itself is never interrupted by a *waiter's* context —
// it belongs to the request that started it, which typically passes the
// same ctx into its compute closure (so cancelling the whole sweep
// still cancels the measurement).
func (m *CalibrationMemo) GetOrComputeCtx(ctx context.Context, key CalibrationKey, compute func() (*TemporalCalibration, error)) (*TemporalCalibration, error) {
	return m.GetOrComputeOwned(ctx, "", key, compute)
}

// GetOrComputeOwned is GetOrComputeCtx with fairness accounting: the
// cached entry is charged to owner (a tenant ID, figure name, or any
// stable identity), and eviction under pressure always falls on the
// owner holding the greatest total cached cost. Multi-tenant callers
// (the advisor daemon) pass their tenant ID here so one tenant's
// calibration burst cannot flush everyone else's traces.
func (m *CalibrationMemo) GetOrComputeOwned(ctx context.Context, owner string, key CalibrationKey, compute func() (*TemporalCalibration, error)) (*TemporalCalibration, error) {
	if m == nil {
		return compute()
	}
	m.mu.Lock()
	if el, ok := m.byK[key]; ok {
		m.lru.MoveToFront(el)
		m.hits++
		tc := el.Value.(*memoEntry).tc.Clone()
		m.mu.Unlock()
		return tc, nil
	}
	if call, ok := m.inflight[key]; ok {
		m.mu.Unlock()
		select {
		case <-call.done:
			if call.err != nil {
				// The computing request's error is surfaced to every
				// waiter of this round; nothing was cached, so a later
				// request retries from scratch.
				return nil, call.err
			}
			// A coalesced wait is served without measuring, like a
			// cache hit, so hits + misses counts every request.
			m.mu.Lock()
			m.hits++
			m.mu.Unlock()
			return call.tc.Clone(), nil
		case <-ctx.Done():
			return nil, cancel.Wrap("cloud.CalibrationMemo", 0, 0, context.Cause(ctx))
		}
	}
	call := &memoCall{done: make(chan struct{}), gen: m.gens[key], allGen: m.allGen}
	m.inflight[key] = call
	m.mu.Unlock()

	tc, err := compute()

	m.mu.Lock()
	m.misses++
	// Cache only if no invalidation raced the computation: the key's and
	// the global generation must be unchanged and this call must still be
	// the registered one (Invalidate detaches stale calls so a fresh
	// computation can start while the old one is still running).
	current := m.inflight[key] == call && m.gens[key] == call.gen && m.allGen == call.allGen
	if err == nil && current {
		m.put(owner, key, tc.Clone())
	}
	call.tc, call.err = tc, err
	if m.inflight[key] == call {
		delete(m.inflight, key)
	}
	m.mu.Unlock()
	close(call.done)

	if err != nil {
		return nil, err
	}
	// The computing request owns the freshly measured trace (a clone went
	// into the cache), so no extra copy is needed.
	return tc, nil
}

// Stats returns hit/miss counters and the current entry count.
func (m *CalibrationMemo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Hits: m.hits, Misses: m.misses, Entries: m.lru.Len()}
}
