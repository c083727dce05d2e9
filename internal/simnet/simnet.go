// Package simnet is a deterministic flow-level network simulator — the
// repository's substitute for the paper's ns-2 setup (§V-A). Flows are
// routed over a topo.Topology; concurrently active flows share link
// capacity by progressive-filling max-min fairness, recomputed on every
// flow arrival and departure. Poisson background-traffic generators
// reproduce the paper's interference model (message size + expected
// waiting time λ), and measurement probes implement SKaMPI-style pingpong
// calibration on top of the simulator.
package simnet

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"netconstant/internal/des"
	"netconstant/internal/mat"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// Flow is an in-flight data transfer.
type Flow struct {
	ID       int64
	Src, Dst int // server node IDs
	Bytes    float64

	path       []topo.LinkID
	remaining  float64
	rate       float64 // bytes/s currently allocated
	lastUpdate float64
	// timer is the flow's one event for its whole life (a zero-byte
	// flow has none): it first fires when the path latency has elapsed,
	// which starts the drain, and commitDirty then moves it to each new
	// completion instant.
	timer    *des.Timer
	draining bool // the drain has started; the next firing completes the flow
	done     func(at float64)
	finished bool
	start    float64

	// Scratch used by the incremental allocator within one recompute.
	newRate float64
	unfixed bool
	visited int64 // collectDirty epoch stamp
}

// Finished reports whether the flow has completed.
func (f *Flow) Finished() bool { return f.finished }

// Start returns the simulated time the flow was submitted.
func (f *Flow) Start() float64 { return f.start }

// Sim is a flow-level network simulator over a fixed topology.
type Sim struct {
	Topo *topo.Topology
	Eng  *des.Engine

	nextID int64
	active map[int64]*Flow
	// linkFlows is indexed by LinkID (link IDs are dense, assigned in
	// creation order); each entry lists the active flows crossing that
	// link, removed by swap-with-last. The fill and its reference fills are
	// visiting-order independent, so the unordered slice is safe.
	linkFlows [][]*Flow

	// routes caches (src, dst) -> path + propagation latency. The
	// topology is immutable once the simulation starts and background
	// sources and probes reuse the same endpoint pairs over and over, so
	// routing BFS — two O(nodes) allocations per call — is paid once per
	// pair instead of once per flow. Cached paths are shared between
	// flows and never mutated.
	routes map[int64]routeEntry

	// verifyGlobal, when set, re-derives every active flow's rate with a
	// fresh whole-network fill after each incremental recompute and
	// records the first bitwise mismatch in verifyErr.
	verifyGlobal bool
	verifyErr    error

	// Reusable scratch for the incremental allocator. Marks are epoch
	// stamps (linkStamp per link, Flow.visited per flow) so no per-event
	// clearing is needed; linkSlot maps a dirty link to its index in the
	// fill slices and is always written before it is read.
	dirtyFlows []*Flow
	dirtyLinks []topo.LinkID
	changed    []*Flow    // dirty flows commitDirty reschedules
	comps      []compSpan // connected components of the dirty subgraph
	allSeeds   []topo.LinkID
	epoch      int64
	linkStamp  []int64   // per-link collectDirty epoch
	linkSlot   []int32   // dirty link -> index into fill slices
	fillCap    []float64 // residual capacity per dirty link
	fillUnfix  []int32   // unfixed-flow count per dirty link

	// ECMP routing scratch (see ecmp.go) and cached-pair statistics.
	ecmpDist   []int32
	ecmpQueue  []int32
	ecmpCands  []topo.IncidentLink
	multiPairs int
}

// compSpan addresses one connected component of the dirty subgraph as
// half-open index ranges into dirtyLinks and dirtyFlows. collectDirty
// discovers components seed by seed, so each component's links and flows
// occupy contiguous ranges; the spans are the index-addressed result
// slots the parallel fill shards write into.
type compSpan struct {
	linkLo, linkHi int
	flowLo, flowHi int
}

type routeEntry struct {
	path    []topo.LinkID
	latency float64
}

// New creates a simulator for the given topology with its own event engine.
func New(t *topo.Topology) *Sim {
	return &Sim{
		Topo:      t,
		Eng:       des.NewEngine(),
		active:    make(map[int64]*Flow),
		linkFlows: make([][]*Flow, t.NumLinks()),
		linkStamp: make([]int64, t.NumLinks()),
		linkSlot:  make([]int32, t.NumLinks()),
		routes:    make(map[int64]routeEntry),
	}
}

// Now returns the current simulated time.
func (s *Sim) Now() float64 { return s.Eng.Now() }

// StartFlow submits a transfer of the given size between two server nodes.
// done (optional) fires when the last byte is delivered. The model charges
// the path propagation latency up front, then drains the flow at its
// max-min fair share of the path bandwidth.
func (s *Sim) StartFlow(src, dst int, bytes float64, done func(at float64)) *Flow {
	if src == dst {
		panic("simnet: flow to self")
	}
	if bytes < 0 {
		panic("simnet: negative flow size")
	}
	key := int64(src)<<32 | int64(int32(dst))
	re, ok := s.routes[key]
	if !ok {
		path, multi, err := s.routeFor(src, dst)
		if err != nil {
			panic(err)
		}
		re.path = path
		re.latency = s.Topo.PathLatency(re.path)
		s.routes[key] = re
		if multi {
			s.multiPairs++
		}
	}
	f := &Flow{
		ID:    s.nextID,
		Src:   src,
		Dst:   dst,
		Bytes: bytes,
		path:  re.path,
		done:  done,
		start: s.Now(),
	}
	s.nextID++
	if bytes == 0 {
		s.Eng.After(re.latency, func() { s.finish(f) })
		return f
	}
	f.remaining = bytes
	f.timer = s.Eng.After(re.latency, func() { s.fire(f) })
	return f
}

// fire runs when a flow's timer fires: the first time the flow starts
// draining, the second time its last byte has arrived.
func (s *Sim) fire(f *Flow) {
	if f.draining {
		s.complete(f)
	} else {
		s.activate(f)
	}
}

// ensureLink grows the per-link arrays to cover l; links are normally all
// present at New, but the topology may have grown since.
func (s *Sim) ensureLink(l topo.LinkID) {
	for int(l) >= len(s.linkFlows) {
		s.linkFlows = append(s.linkFlows, nil)
		s.linkStamp = append(s.linkStamp, 0)
		s.linkSlot = append(s.linkSlot, 0)
	}
}

func (s *Sim) activate(f *Flow) {
	f.draining = true
	f.lastUpdate = s.Now()
	s.active[f.ID] = f
	for _, l := range f.path {
		s.ensureLink(l)
		s.linkFlows[l] = append(s.linkFlows[l], f)
	}
	s.recompute(f.path)
}

func (s *Sim) finish(f *Flow) {
	f.finished = true
	if f.done != nil {
		f.done(s.Now())
	}
}

func (s *Sim) complete(f *Flow) {
	delete(s.active, f.ID)
	for _, l := range f.path {
		flows := s.linkFlows[l]
		for i, g := range flows {
			if g == f {
				flows[i] = flows[len(flows)-1]
				flows[len(flows)-1] = nil
				s.linkFlows[l] = flows[:len(flows)-1]
				break
			}
		}
	}
	f.rate = 0
	f.remaining = 0
	s.finish(f)
	s.recompute(f.path)
}

// recompute restores the max-min fair allocation after a flow arrived or
// departed on the given path. The incremental allocator confines the
// progressive filling to the dirty subgraph — the links of the changed
// path plus every flow sharing them, expanded transitively — which is the
// changed flow's whole connected component in the flow↔link sharing
// graph. Max-min allocations decompose independently per component, and
// component-restricted filling performs the same floating-point
// operations as a whole-network fill does on that component, so rates
// stay byte-identical to a whole-network fill (asserted by the
// differential tests via verifyGlobal).
func (s *Sim) recompute(seeds []topo.LinkID) {
	s.collectDirty(seeds)
	s.fillDirty()
	s.commitDirty()
	if s.verifyGlobal && s.verifyErr == nil {
		s.verifyErr = s.verifyAgainstGlobal()
	}
}

// collectDirty gathers the connected component(s) of the seed links into
// s.dirtyLinks / s.dirtyFlows by breadth-first expansion over shared
// links, recording each component's index span in s.comps. Expanding one
// seed to exhaustion before starting the next keeps every component
// contiguous; a seed already absorbed by an earlier component is skipped
// by its epoch stamp. The common case — a background flow arriving on an
// otherwise quiet leaf path — visits O(path length) state.
func (s *Sim) collectDirty(seeds []topo.LinkID) {
	s.dirtyFlows = s.dirtyFlows[:0]
	s.dirtyLinks = s.dirtyLinks[:0]
	s.comps = s.comps[:0]
	s.epoch++
	ep := s.epoch
	for _, seed := range seeds {
		s.ensureLink(seed)
		if s.linkStamp[seed] == ep || len(s.linkFlows[seed]) == 0 {
			continue
		}
		sp := compSpan{linkLo: len(s.dirtyLinks), flowLo: len(s.dirtyFlows)}
		s.linkStamp[seed] = ep
		s.dirtyLinks = append(s.dirtyLinks, seed)
		for i := sp.linkLo; i < len(s.dirtyLinks); i++ {
			for _, f := range s.linkFlows[s.dirtyLinks[i]] {
				if f.visited == ep {
					continue
				}
				f.visited = ep
				s.dirtyFlows = append(s.dirtyFlows, f)
				for _, l := range f.path {
					if s.linkStamp[l] != ep {
						s.linkStamp[l] = ep
						s.dirtyLinks = append(s.dirtyLinks, l)
					}
				}
			}
		}
		sp.linkHi = len(s.dirtyLinks)
		sp.flowHi = len(s.dirtyFlows)
		s.comps = append(s.comps, sp)
	}
}

// shardParMinFlows gates parallel dispatch of component fills: below this
// many dirty flows the fill is too cheap to amortize handing shards to
// the worker pool.
const shardParMinFlows = 64

// fillDirty computes each dirty flow's share into f.newRate. The prepass
// seeds the fill state (residual capacity, unfixed count, slot index) for
// every dirty link globally; the spans in s.comps then address disjoint
// ranges of that state, so the per-component fills are independent and —
// when there are enough components and flows to pay for dispatch — run
// concurrently on the mat worker pool. Per-component filling performs
// exactly the floating-point operations a whole-network fill performs on
// that component (its selections restricted to one component occur in
// that component's local-min order and touch only its state), so the
// result is byte-identical at any worker count.
//
//netlint:hotpath
func (s *Sim) fillDirty() {
	s.fillCap = s.fillCap[:0]
	s.fillUnfix = s.fillUnfix[:0]
	for k, l := range s.dirtyLinks {
		s.linkSlot[l] = int32(k)
		s.fillCap = append(s.fillCap, s.Topo.Link(l).Capacity)
		s.fillUnfix = append(s.fillUnfix, int32(len(s.linkFlows[l])))
	}
	for _, f := range s.dirtyFlows {
		f.unfixed = true
	}
	if len(s.comps) >= 2 && len(s.dirtyFlows) >= shardParMinFlows && mat.Parallelism() > 1 {
		//netlint:allow hotalloc one closure per sharded refill dispatch, amortized over all component fills it fans out
		mat.ParallelShards(len(s.comps), func(c int) { s.fillSpan(s.comps[c]) })
		return
	}
	for _, sp := range s.comps {
		s.fillSpan(sp)
	}
}

// fillSpan runs progressive filling restricted to one component span, leaving each flow's share in f.newRate. Bottleneck ties are
// broken by the smallest link ID so the result is independent of
// discovery order. Concurrent spans are safe: a component's flows, their
// paths, and the span's fill slots are disjoint from every other span's
// by construction.
//
//netlint:hotpath
func (s *Sim) fillSpan(sp compSpan) {
	remaining := sp.flowHi - sp.flowLo
	for remaining > 0 {
		// Bottleneck: minimum fair share among the span's links that still
		// carry unfixed flows; ties go to the smallest link ID.
		best := -1
		bestLink := topo.LinkID(-1)
		minShare := math.Inf(1)
		for k := sp.linkLo; k < sp.linkHi; k++ {
			if s.fillUnfix[k] == 0 {
				continue
			}
			l := s.dirtyLinks[k]
			share := s.fillCap[k] / float64(s.fillUnfix[k])
			//netlint:allow floatsafe exact equality is the smallest-link-ID tie-break; shares of equal links are bit-identical quotients and capacities are validated finite at AddLink
			if share < minShare || (share == minShare && l < bestLink) {
				minShare = share
				best = k
				bestLink = l
			}
		}
		if best < 0 {
			// No capacitated links left (cannot happen: every flow crosses
			// at least one link), but guard against an infinite loop.
			for i := sp.flowLo; i < sp.flowHi; i++ {
				if f := s.dirtyFlows[i]; f.unfixed {
					f.newRate = math.Inf(1)
					f.unfixed = false
				}
			}
			break
		}
		// Fix every unfixed flow on the bottleneck at minShare. Every flow
		// on a dirty link is in the dirty set by construction, and each
		// link's residual decreases by the same minShare per crossing
		// flow, so visiting order cannot change a single bit.
		for _, f := range s.linkFlows[bestLink] {
			if !f.unfixed {
				continue
			}
			f.newRate = minShare
			f.unfixed = false
			remaining--
			for _, l := range f.path {
				k := s.linkSlot[l]
				s.fillCap[k] -= minShare
				if s.fillCap[k] < 0 {
					s.fillCap[k] = 0
				}
				s.fillUnfix[k]--
			}
		}
	}
}

// commitDirty applies the freshly computed shares. Only flows whose rate
// changed, or whose timer is not queued (the flow just started draining,
// or its share was zero), need work: they are drained at their old rate
// up to now and their timer moves to the new completion instant. Flows
// whose share is unchanged keep their timer (it still fires at the exact
// completion instant because the rate has been constant since it was
// set). Timers move in ascending flow-ID order so engine sequence
// numbers — the DES tie-break — are assigned deterministically.
//
//netlint:hotpath
func (s *Sim) commitDirty() {
	s.changed = s.changed[:0]
	for _, f := range s.dirtyFlows {
		//netlint:allow floatsafe skip-if-unchanged wants bit-identity: a rate recomputed to the same bits must not reschedule the completion timer
		if f.newRate != f.rate || !f.timer.Queued() {
			s.changed = append(s.changed, f)
		}
	}
	slices.SortFunc(s.changed, byID)
	now := s.Now()
	for _, f := range s.changed {
		f.remaining -= f.rate * (now - f.lastUpdate)
		if f.remaining < 0 {
			f.remaining = 0
		}
		f.lastUpdate = now
		f.rate = f.newRate
		if f.rate <= 0 {
			f.timer.Cancel()
			continue
		}
		s.Eng.Reschedule(f.timer, now+f.remaining/f.rate)
	}
}

// byID orders flows by ID.
func byID(a, b *Flow) int { return cmp.Compare(a.ID, b.ID) }

// referenceRates computes a whole-network progressive fill from scratch
// and returns the resulting per-flow rates without touching simulator
// state. It is the specification the incremental allocator is verified
// against.
func (s *Sim) referenceRates() map[int64]float64 {
	type linkState struct {
		capLeft float64
		nUnfix  int
	}
	links := make(map[topo.LinkID]*linkState, len(s.linkFlows))
	for i, flows := range s.linkFlows {
		if len(flows) == 0 {
			continue
		}
		id := topo.LinkID(i)
		links[id] = &linkState{
			capLeft: s.Topo.Link(id).Capacity,
			nUnfix:  len(flows),
		}
	}
	rates := make(map[int64]float64, len(s.active))
	unfixed := make(map[int64]*Flow, len(s.active))
	for id, f := range s.active {
		unfixed[id] = f
	}
	for len(unfixed) > 0 {
		bottleneck := topo.LinkID(-1)
		minShare := math.Inf(1)
		for id, ls := range links {
			if ls.nUnfix == 0 {
				continue
			}
			share := ls.capLeft / float64(ls.nUnfix)
			//netlint:allow floatsafe exact equality is the smallest-link-ID tie-break mirroring the incremental allocator bit for bit
			if share < minShare || (share == minShare && id < bottleneck) {
				minShare = share
				bottleneck = id
			}
		}
		if bottleneck < 0 {
			for id := range unfixed {
				rates[id] = math.Inf(1)
			}
			break
		}
		for _, f := range s.linkFlows[bottleneck] {
			if _, ok := unfixed[f.ID]; !ok {
				continue
			}
			rates[f.ID] = minShare
			delete(unfixed, f.ID)
			for _, l := range f.path {
				ls := links[l]
				ls.capLeft -= minShare
				if ls.capLeft < 0 {
					ls.capLeft = 0
				}
				ls.nUnfix--
			}
		}
	}
	return rates
}

// verifyAgainstGlobal compares every active flow's incremental rate with
// a fresh whole-network fill, bit for bit.
func (s *Sim) verifyAgainstGlobal() error {
	ref := s.referenceRates()
	for id, f := range s.active {
		//netlint:allow floatsafe this differential check is bit-for-bit by design: incremental and global fills must agree exactly, not within tolerance
		if want := ref[id]; f.rate != want {
			return fmt.Errorf("simnet: t=%v flow %d: incremental rate %v != global rate %v (diff %g)",
				s.Now(), id, f.rate, want, f.rate-want)
		}
	}
	return nil
}

// ActiveFlows returns the number of currently draining flows.
func (s *Sim) ActiveFlows() int { return len(s.active) }

// RunUntilDone advances the simulation until the given flow completes.
// It panics if the event queue drains first (a stalled flow would
// otherwise hang silently).
func (s *Sim) RunUntilDone(f *Flow) {
	for !f.finished {
		if !s.Eng.Step() {
			panic(fmt.Sprintf("simnet: event queue drained before flow %d completed", f.ID))
		}
	}
}

// Transfer synchronously sends bytes from src to dst and returns the
// elapsed simulated time. Background flows continue to progress and
// interfere during the transfer.
func (s *Sim) Transfer(src, dst int, bytes float64) float64 {
	start := s.Now()
	f := s.StartFlow(src, dst, bytes, nil)
	s.RunUntilDone(f)
	return s.Now() - start
}

// Pingpong measures round-trip style calibration like SKaMPI's
// Pingpong_Send_Recv (paper §IV-B): the latency estimate is the elapsed
// time of a 1-byte message, the bandwidth estimate is bulkBytes divided by
// the elapsed time of a bulk transfer (8 MB by default in the paper).
func (s *Sim) Pingpong(src, dst int, bulkBytes float64) (alpha, beta float64) {
	alpha = s.Transfer(src, dst, 1)
	elapsed := s.Transfer(src, dst, bulkBytes)
	data := elapsed - alpha // subtract the latency component of the α-β model
	if data <= 0 {
		data = elapsed
	}
	beta = bulkBytes / data
	return alpha, beta
}

// Background is a handle to a Poisson background-traffic source.
type Background struct {
	stopped bool
}

// Stop halts the source after its current message (if any) completes.
func (b *Background) Stop() { b.stopped = true }

// AddBackground installs a background-traffic source on a fixed (src, dst)
// pair: it repeatedly waits an exponential time with mean lambda seconds
// (the paper's "waiting time satisfies Poisson distribution with expected
// value λ") and then sends msgBytes. The source runs until stopped.
func (s *Sim) AddBackground(rng *rand.Rand, src, dst int, msgBytes, lambda float64) *Background {
	b := &Background{}
	// One timer and one message-done callback serve every message.
	var wait *des.Timer
	next := func(float64) {
		if !b.stopped {
			s.Eng.Reschedule(wait, s.Now()+stats.Exponential(rng, lambda))
		}
	}
	wait = s.Eng.NewTimer(func() {
		if !b.stopped {
			s.StartFlow(src, dst, msgBytes, next)
		}
	})
	next(0)
	return b
}

// CheckInvariants verifies the defining properties of a max-min fair
// allocation at the current instant:
//   - feasibility: on every link, the allocated rates sum to at most the
//     capacity (within tolerance);
//   - positivity: every active flow has a positive rate;
//   - work conservation: every active flow is bottlenecked somewhere — it
//     crosses at least one link whose capacity is (nearly) fully used;
//   - max-min bottleneck condition: on that saturated link the flow's
//     rate is at least as large as every other flow's (within tolerance),
//     i.e. no flow could be sped up without slowing a smaller-or-equal
//     flow — the textbook characterization of max-min fairness.
//
// It returns an error describing the first violation. Intended for tests.
func (s *Sim) CheckInvariants() error {
	const tol = 1e-6
	// Walk flows in ID order: link utilization sums then accumulate in a
	// fixed order (float addition does not commute across reorderings)
	// and the first violation reported is the same on every run.
	flows := make([]*Flow, 0, len(s.active))
	for _, f := range s.active {
		flows = append(flows, f)
	}
	slices.SortFunc(flows, byID)
	used := make(map[topo.LinkID]float64)
	maxRate := make(map[topo.LinkID]float64)
	for _, f := range flows {
		if f.rate <= 0 {
			return fmt.Errorf("simnet: active flow %d has non-positive rate %v", f.ID, f.rate)
		}
		for _, l := range f.path {
			used[l] += f.rate
			if f.rate > maxRate[l] {
				maxRate[l] = f.rate
			}
		}
	}
	links := make([]topo.LinkID, 0, len(used))
	for id := range used {
		links = append(links, id)
	}
	slices.Sort(links)
	for _, id := range links {
		u := used[id]
		capac := s.Topo.Link(id).Capacity
		if u > capac*(1+tol) {
			return fmt.Errorf("simnet: link %d oversubscribed: %v > %v", id, u, capac)
		}
	}
	for _, f := range flows {
		bottleneck := topo.LinkID(-1)
		for _, l := range f.path {
			if used[l] < s.Topo.Link(l).Capacity*(1-1e-3) {
				continue
			}
			bottleneck = l
			if f.rate*(1+tol) >= maxRate[l] {
				break // saturated link where f is (one of) the largest flows
			}
			bottleneck = -1
		}
		if bottleneck < 0 {
			return fmt.Errorf("simnet: flow %d (rate %v) has no saturated path link where its rate is maximal", f.ID, f.rate)
		}
	}
	return nil
}
