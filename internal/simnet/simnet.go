// Package simnet is a deterministic flow-level network simulator — the
// repository's substitute for the paper's ns-2 setup (§V-A). Flows are
// routed over a topo.Topology; concurrently active flows share link
// capacity by progressive-filling max-min fairness, brought up to date on
// every flow arrival and departure: by a fill of the changed flow's kept
// sharing component, or without one when the answer is rates the
// previous update overwrote (a departure with no update since its own
// arrival puts back the rates that arrival replaced, and an arrival on
// the freed links right after takes them again). Every active flow keeps
// its component between updates: an arrival merges the components on its
// links, a departure only leaves its own, and a component that may have
// split more times than it has flows is re-derived by breadth-first search
// at its next fill. Poisson background-traffic generators reproduce the
// paper's interference model (message size + expected waiting time λ),
// and measurement probes implement SKaMPI-style pingpong calibration on
// top of the simulator.
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
	done     func(at float64)
	start    float64
	draining bool // the drain has started; the next firing completes the flow
	finished bool
	// recycle marks a background message: complete hands it to s.free
	// after its last read of it. A Transfer's flow goes back from Transfer.
	recycle bool
	unfixed bool // fill scratch, packed with the flags: not yet frozen at its share

	// settled is the simulator's recompute count right after this flow's
	// arrival; complete compares it to tell a quiet departure.
	settled int64

	// comp is the kept sharing component the flow belongs to while it is
	// active, and compIdx its index in comp.flows.
	comp    *component
	compIdx int
	// capRate and capLink fold the flow's single-flow links into one
	// bottleneck candidate: the smallest (capacity, link ID) among them,
	// or (+Inf, -1) when every link on its path is shared. join and leave
	// refold it when one of its links gains or loses its second flow.
	capRate float64
	capLink topo.LinkID

	// Scratch used by the incremental allocator within one recompute.
	newRate float64
	visited int64 // collectDirty epoch stamp
}

// component is a kept sharing component: active flows and the links two
// or more of them cross, always a union of connected components of the
// flow↔link sharing graph, since every flow on a shared link is in the
// component of that link. A per-update fill covers one component. Flows
// outside it keep their rates, since max-min allocations decompose over
// connected components, and a fill of a union of connected components
// makes, per connected component, exactly the operations a fill of that
// one alone makes.
type component struct {
	flows []*Flow
	links []topo.LinkID // shared links; s.linkSlot[l] is l's index here
	// splits counts the departures since the component was derived that
	// left other flows on two or more of their links, each of which may
	// have split it. A fill re-derives the component once splits exceeds
	// its flow count.
	splits int
}

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

	// compFree holds empty components, each with its slices' capacity, for
	// join and relabel to take before they allocate one.
	compFree []*component

	// Reusable scratch for the re-deriving breadth-first search and the
	// fill. Marks are epoch stamps (linkStamp per link, Flow.visited per
	// flow) so no per-event clearing is needed. linkSlot reads -1 on a link
	// one flow crosses (join and leave keep it so) and, on a link two or
	// more cross, its index in its component's links, which is its index
	// in the fill slices during a component's fill; a breadth-first fill
	// rewrites it to the link's index in dirtyLinks, and relabel puts the
	// component index back.
	dirtyFlows []*Flow
	dirtyLinks []topo.LinkID // dirty links shared by at least two flows
	changed    []*Flow       // flows the commit reschedules
	comps      []compSpan    // connected components of the dirty subgraph
	allSeeds   []topo.LinkID
	// epoch counts fills: it advances once per fill, a kept component's
	// or a breadth-first one, and stamps the search's marks.
	epoch     int64
	linkCap   []float64 // per-link capacity, copied from the immutable topology
	linkStamp []int64   // per-link collectDirty epoch
	linkSlot  []int32   // shared link -> fill-slice index; -1 on a single-flow link
	fillCap   []float64 // residual capacity per filled shared link
	fillUnfix []int32   // unfixed-flow count per filled shared link
	// fillShare is fillCap/fillUnfix per filled shared link, rewritten whenever
	// either changes, or +Inf once the link has no unfixed flow left.
	fillShare []float64

	// recomputes counts allocation updates, fills, restores and redoes
	// alike; undo holds the rates the latest one overwrote, in flow-ID
	// order.
	recomputes int64
	undo       []rateUndo
	// The latest quiet departure: its rate and path, and the recompute
	// count right after its restore. An arrival on the same path while
	// the count still reads redoAt takes the departed flow's place (redo).
	redoRate float64
	redoPath []topo.LinkID
	redoAt   int64

	// free holds completed flows whose *Flow never left the package (a
	// Transfer's and a background message's), each with its idle timer and
	// the closure bound to it; startOwned starts the next such flow in one.
	free []*Flow

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

// rateUndo is one rate a commit overwrote.
type rateUndo struct {
	f    *Flow
	rate float64
}

type routeEntry struct {
	path    []topo.LinkID
	latency float64
}

// New creates a simulator for the given topology with its own event engine.
func New(t *topo.Topology) *Sim {
	s := &Sim{
		Topo:      t,
		Eng:       des.NewEngine(),
		active:    make(map[int64]*Flow),
		linkFlows: make([][]*Flow, t.NumLinks()),
		linkCap:   make([]float64, t.NumLinks()),
		linkStamp: make([]int64, t.NumLinks()),
		linkSlot:  make([]int32, t.NumLinks()),
		routes:    make(map[int64]routeEntry),
		redoAt:    -1,
	}
	for l := range s.linkCap {
		s.linkCap[l] = t.Link(topo.LinkID(l)).Capacity
	}
	return s
}

// Now returns the current simulated time.
func (s *Sim) Now() float64 { return s.Eng.Now() }

// StartFlow submits a transfer of the given size between two server nodes.
// done (optional) fires when the last byte is delivered. The model charges
// the path propagation latency up front, then drains the flow at its
// max-min fair share of the path bandwidth. The returned handle is the
// caller's: the simulator never starts another flow in it, so Finished and
// Start keep reading this flow's after it completes.
func (s *Sim) StartFlow(src, dst int, bytes float64, done func(at float64)) *Flow {
	re := s.route(src, dst, bytes)
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

// route checks a flow's endpoints and size and returns the pair's cached
// path and propagation latency, routing the pair on its first flow.
func (s *Sim) route(src, dst int, bytes float64) routeEntry {
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
	return re
}

// startOwned starts a flow whose *Flow never leaves the package, in a
// completed one from s.free when there is one. Every field is reset but
// the timer, whose closure is bound to the struct, and the timer is queued
// at the instant StartFlow's After would queue a new one: After is
// NewTimer + Reschedule, so the event gets the same (time, sequence) key
// and the flow the next ID, as if it were new. A zero-byte flow has no
// timer and takes StartFlow, as does a flow that finds s.free empty; that
// miss allocates, so this path carries no hotpath marker. Every flow on
// s.free has finished; one that has not was put there twice and started
// again since, and startOwned panics rather than run two flows in it.
func (s *Sim) startOwned(src, dst int, bytes float64, done func(at float64), recycle bool) *Flow {
	n := len(s.free)
	if bytes == 0 || n == 0 {
		f := s.StartFlow(src, dst, bytes, done)
		f.recycle = recycle
		return f
	}
	re := s.route(src, dst, bytes)
	f := s.free[n-1]
	if !f.finished {
		panic("simnet: a live flow on the free list")
	}
	s.free = s.free[:n-1]
	*f = Flow{
		ID:        s.nextID,
		Src:       src,
		Dst:       dst,
		Bytes:     bytes,
		path:      re.path,
		remaining: bytes,
		timer:     f.timer,
		done:      done,
		start:     s.Now(),
		recycle:   recycle,
	}
	s.nextID++
	s.Eng.Reschedule(f.timer, s.Now()+re.latency)
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
		s.linkCap = append(s.linkCap, s.Topo.Link(topo.LinkID(len(s.linkFlows))).Capacity)
		s.linkFlows = append(s.linkFlows, nil)
		s.linkStamp = append(s.linkStamp, 0)
		s.linkSlot = append(s.linkSlot, 0)
	}
}

func (s *Sim) activate(f *Flow) {
	f.draining = true
	f.lastUpdate = s.Now()
	s.active[f.ID] = f
	s.join(f)
	if s.recomputes == s.redoAt && slices.Equal(f.path, s.redoPath) {
		s.redo(f)
	} else {
		s.recompute(f.comp)
	}
	f.settled = s.recomputes
}

func (s *Sim) finish(f *Flow) {
	f.finished = true
	if f.done != nil {
		f.done(s.Now())
	}
}

// complete retires a drained flow. A max-min allocation is a function of
// the active flow set alone, so when no recompute has run since f's own
// arrival (a quiet departure) the rates without f are exactly the ones
// f's arrival overwrote, and restore puts them back without a fill. It
// then keeps what a redo of that arrival needs: f's rate, its path and
// the recompute count the restore left.
func (s *Sim) complete(f *Flow) {
	quiet := f.settled == s.recomputes
	delete(s.active, f.ID)
	c := s.leave(f)
	rate := f.rate
	f.rate = 0
	f.remaining = 0
	s.finish(f)
	if quiet {
		s.restore(f)
		s.redoRate, s.redoPath, s.redoAt = rate, f.path, s.recomputes
	} else {
		s.recompute(c)
	}
	if f.recycle {
		s.free = append(s.free, f)
	}
}

// join lists an arriving flow on its path's links and in a component: the
// components of the flows already on those links merge into the largest
// of them, which f joins (an empty one when its links carry no other
// flow). A link f is alone on folds into f's candidate and reads slot -1.
// A link f makes shared joins the component's links, and the flow that
// was alone on it refolds its candidate if that link was it.
//
//netlint:hotpath
func (s *Sim) join(f *Flow) {
	var c *component
	for _, l := range f.path {
		s.ensureLink(l)
		if fl := s.linkFlows[l]; len(fl) > 0 && (c == nil || len(fl[0].comp.flows) > len(c.flows)) {
			c = fl[0].comp
		}
	}
	if c == nil {
		c = s.newComp()
	}
	f.capRate, f.capLink = math.Inf(1), -1
	for _, l := range f.path {
		//netlint:allow hotalloc a link's flow list grows to its peak once, then swap-removes and reappends in place
		fl := append(s.linkFlows[l], f)
		s.linkFlows[l] = fl
		switch len(fl) {
		case 1:
			s.linkSlot[l] = -1
			if cp := s.linkCap[l]; precedes(cp, l, f.capRate, f.capLink) {
				f.capRate, f.capLink = cp, l
			}
		case 2:
			g := fl[0]
			s.merge(c, g.comp)
			s.linkSlot[l] = int32(len(c.links))
			//netlint:allow hotalloc a component's slices keep their capacity on the free list, so they grow only to a new peak
			c.links = append(c.links, l)
			if g.capLink == l {
				s.refold(g)
			}
		default:
			s.merge(c, fl[0].comp)
		}
	}
	f.comp, f.compIdx = c, len(c.flows)
	//netlint:allow hotalloc a component's slices keep their capacity on the free list, so they grow only to a new peak
	c.flows = append(c.flows, f)
}

// merge moves d's flows and links into c and adds its splits count: every
// split d may hold, c now holds. d goes back to the free list.
//
//netlint:hotpath
func (s *Sim) merge(c, d *component) {
	if d == c {
		return
	}
	for _, g := range d.flows {
		g.comp, g.compIdx = c, len(c.flows)
		//netlint:allow hotalloc a component's slices keep their capacity on the free list, so they grow only to a new peak
		c.flows = append(c.flows, g)
	}
	for _, l := range d.links {
		s.linkSlot[l] = int32(len(c.links))
		//netlint:allow hotalloc a component's slices keep their capacity on the free list, so they grow only to a new peak
		c.links = append(c.links, l)
	}
	c.splits += d.splits
	s.release(d)
}

// refold recomputes g's candidate from the links it is alone on.
//
//netlint:hotpath
func (s *Sim) refold(g *Flow) {
	g.capRate, g.capLink = math.Inf(1), -1
	for _, l := range g.path {
		if cp := s.linkCap[l]; len(s.linkFlows[l]) == 1 && precedes(cp, l, g.capRate, g.capLink) {
			g.capRate, g.capLink = cp, l
		}
	}
}

// leave takes a departing flow off its path's links and out of its
// component, and returns that component, or nil when f was its last flow.
// A link left with one flow leaves the component's links and reads slot
// -1, and the flow alone on it folds it into its candidate. A departure
// that leaves other flows on at most one of its links cannot split the
// component (the flows it touched still share that link); one that
// leaves them on two or more may have, and counts a split.
//
//netlint:hotpath
func (s *Sim) leave(f *Flow) *component {
	c := f.comp
	occupied := 0
	for _, l := range f.path {
		fl := s.linkFlows[l]
		last := len(fl) - 1
		for i, g := range fl {
			if g == f {
				fl[i] = fl[last]
				break
			}
		}
		fl[last] = nil
		fl = fl[:last]
		s.linkFlows[l] = fl
		switch len(fl) {
		case 0:
			continue
		case 1:
			k := s.linkSlot[l]
			moved := c.links[len(c.links)-1]
			c.links[k] = moved
			s.linkSlot[moved] = k
			c.links = c.links[:len(c.links)-1]
			s.linkSlot[l] = -1
			if g, cp := fl[0], s.linkCap[l]; precedes(cp, l, g.capRate, g.capLink) {
				g.capRate, g.capLink = cp, l
			}
		}
		occupied++
	}
	last := len(c.flows) - 1
	moved := c.flows[last]
	c.flows[f.compIdx] = moved
	moved.compIdx = f.compIdx
	c.flows[last] = nil
	c.flows = c.flows[:last]
	f.comp = nil
	if last == 0 {
		s.release(c)
		return nil
	}
	if occupied >= 2 {
		c.splits++
	}
	return c
}

// newComp takes an empty component from the free list, or allocates one
// when the list is empty.
func (s *Sim) newComp() *component {
	n := len(s.compFree)
	if n == 0 {
		return &component{}
	}
	c := s.compFree[n-1]
	s.compFree = s.compFree[:n-1]
	return c
}

// release empties c, keeping its slices' capacity, and puts it on the
// free list.
//
//netlint:hotpath
func (s *Sim) release(c *component) {
	clear(c.flows)
	c.flows, c.links, c.splits = c.flows[:0], c.links[:0], 0
	//netlint:allow hotalloc the free list grows to the peak number of components once, then is reused
	s.compFree = append(s.compFree, c)
}

// recompute restores the max-min fair allocation after a flow arrived in
// or departed from c, which is nil when the departure emptied it; a quiet
// departure and the arrival that redoes it skip it (see complete and
// redo). Max-min allocations decompose independently per connected
// component of the flow↔link sharing graph, and c is a union of such
// components that holds the changed flow's, so a fill of c alone brings
// every rate up to date: component-restricted filling performs the same
// floating-point operations as a whole-network fill does on each
// component, so rates stay byte-identical to a whole-network fill
// (asserted by the differential tests via verifyGlobal). When c may have
// split more times than it has flows, the fill re-derives it instead.
// An emptied component fills nothing, and the empty commit still closes
// the update.
func (s *Sim) recompute(c *component) {
	s.epoch++
	switch {
	case c == nil:
		s.commitDirty(nil)
	case c.splits > len(c.flows):
		s.rederive(c)
	default:
		s.fillComp(c)
		s.commitDirty(c.flows)
	}
	s.settle()
}

// rederive fills c through a breadth-first search seeded by its flows and
// makes each connected component the search finds a component of its own
// with no splits counted. Each flow seeds the search with its first link,
// which reaches it or a flow sharing that link, so the search covers c
// and, c being a union of components, nothing else. A component is
// re-derived after more splits than it has flows, each split followed by
// the flow's departure, so the search's work is O(1) amortized per
// departure.
func (s *Sim) rederive(c *component) {
	s.allSeeds = s.allSeeds[:0]
	for _, f := range c.flows {
		s.allSeeds = append(s.allSeeds, f.path[0])
	}
	s.refill(s.allSeeds)
}

// refill fills the connected components of the seed links by
// breadth-first search, commits the rates and relabels the components.
// The caller advances the epoch the search stamps with.
func (s *Sim) refill(seeds []topo.LinkID) {
	s.collectDirty(seeds)
	s.fillDirty()
	s.commitDirty(s.dirtyFlows)
	s.relabel()
}

// relabel makes each connected component collectDirty found a component
// of its own with no splits counted, after releasing the components its
// flows were in, and puts each shared link's component index back in
// linkSlot. Those components are wholly inside the search's reach, since
// each is a union of connected components.
func (s *Sim) relabel() {
	for _, f := range s.dirtyFlows {
		if c := f.comp; len(c.flows) > 0 {
			s.release(c)
		}
	}
	for _, sp := range s.comps {
		c := s.newComp()
		for _, f := range s.dirtyFlows[sp.flowLo:sp.flowHi] {
			f.comp, f.compIdx = c, len(c.flows)
			c.flows = append(c.flows, f)
		}
		for _, l := range s.dirtyLinks[sp.linkLo:sp.linkHi] {
			s.linkSlot[l] = int32(len(c.links))
			c.links = append(c.links, l)
		}
	}
}

// restore undoes the arrival of gone, whose quiet departure leaves the
// active flow set exactly as it was before that arrival. The flows the
// arrival rescheduled get their old rates back through the same
// flow-ID-ordered commit a fill would make. They are exactly the flows a
// fill would change: a flow changes when its rate moves or its timer is
// idle, and between two recomputes an active flow's timer is idle only
// at rate 0.
//
//netlint:hotpath
func (s *Sim) restore(gone *Flow) { s.replay(gone, nil) }

// redo is restore read the other way. f arrives on the links of the flow
// whose quiet departure was the latest update, so the active set is that
// flow's arrival set with f in its place. A fill depends only on the
// active flows' paths, so it would give every flow its rate under that
// arrival, which the restore's commit left in s.undo, and give f the
// departed flow's rate. It would change the flows the restore changed
// plus f, for the reason restore gives; replay commits exactly those, f
// slotted in by ID because a flow started after it may already be
// active.
//
//netlint:hotpath
func (s *Sim) redo(f *Flow) {
	f.newRate = s.redoRate
	s.replay(nil, f)
}

// replay commits the rates in s.undo again, without drop and with add
// (whose newRate is set) in flow-ID order, and closes the update.
//
//netlint:hotpath
func (s *Sim) replay(drop, add *Flow) {
	s.changed = s.changed[:0]
	for _, u := range s.undo {
		if add != nil && add.ID < u.f.ID {
			s.changed = append(s.changed, add)
			add = nil
		}
		if u.f != drop {
			u.f.newRate = u.rate
			s.changed = append(s.changed, u.f)
		}
	}
	if add != nil {
		s.changed = append(s.changed, add)
	}
	s.commitChanged()
	s.settle()
}

// settle closes an allocation update: it advances the recompute count
// that quiet departures are judged by and runs the differential oracle
// when it is armed.
func (s *Sim) settle() {
	s.recomputes++
	if s.verifyGlobal && s.verifyErr == nil {
		s.verifyErr = s.verifyAgainstGlobal()
	}
}

// collectDirty gathers the connected component(s) of the seed links into
// s.dirtyLinks / s.dirtyFlows by breadth-first expansion over shared
// links, recording each component's index span in s.comps. Expanding one
// seed to exhaustion before starting the next keeps every component
// contiguous; a seed already absorbed by an earlier component is skipped
// because its flows are marked visited. It serves the fills that
// re-derive components, RefillAll's and a kept component's after too
// many splits; a per-update fill reads its kept component instead. The
// marks are stamped with the current epoch, which the caller advanced.
func (s *Sim) collectDirty(seeds []topo.LinkID) {
	s.dirtyFlows = s.dirtyFlows[:0]
	s.dirtyLinks = s.dirtyLinks[:0]
	s.comps = s.comps[:0]
	ep := s.epoch
	for _, seed := range seeds {
		flows := s.linkFlows[seed]
		if len(flows) == 0 || flows[0].visited == ep {
			continue
		}
		sp := compSpan{linkLo: len(s.dirtyLinks), flowLo: len(s.dirtyFlows)}
		s.visit(flows[0], ep)
		for i := sp.linkLo; i < len(s.dirtyLinks); i++ {
			for _, f := range s.linkFlows[s.dirtyLinks[i]] {
				if f.visited != ep {
					s.visit(f, ep)
				}
			}
		}
		sp.linkHi = len(s.dirtyLinks)
		sp.flowHi = len(s.dirtyFlows)
		s.comps = append(s.comps, sp)
	}
}

// visit adds f to the dirty set. A link only f crosses never joins
// s.dirtyLinks: f's candidate already folds it (see Flow.capRate). A
// shared link joins s.dirtyLinks the first time it is seen, which queues
// it for expansion.
func (s *Sim) visit(f *Flow, ep int64) {
	f.visited = ep
	for _, l := range f.path {
		if len(s.linkFlows[l]) > 1 && s.linkStamp[l] != ep {
			s.linkStamp[l] = ep
			s.dirtyLinks = append(s.dirtyLinks, l)
		}
	}
	s.dirtyFlows = append(s.dirtyFlows, f)
}

// precedes orders bottleneck candidates: the smaller fair share first,
// ties to the smaller link ID, so the choice is independent of discovery
// order. Every fill compares its candidates through it.
func precedes(share float64, l topo.LinkID, minShare float64, minLink topo.LinkID) bool {
	//netlint:allow floatsafe exact equality is the smallest-link-ID tie-break: AddLinkE admits only finite positive capacities, so every share is finite and equal shares are bit-identical quotients, and the fill's bits depend on which of two tied candidates goes first
	return share < minShare || (share == minShare && l < minLink)
}

// shardParMinFlows gates parallel dispatch of component fills: below this
// many dirty flows the fill is too cheap to amortize handing shards to
// the worker pool.
const shardParMinFlows = 64

// seedFill sets the fill slices to the fill state (residual capacity,
// unfixed count, fair share) of each link, in order.
//
//netlint:hotpath
func (s *Sim) seedFill(links []topo.LinkID) {
	s.fillCap = s.fillCap[:0]
	s.fillUnfix = s.fillUnfix[:0]
	s.fillShare = s.fillShare[:0]
	for _, l := range links {
		c, n := s.linkCap[l], int32(len(s.linkFlows[l]))
		s.fillCap = append(s.fillCap, c)
		s.fillUnfix = append(s.fillUnfix, n)
		s.fillShare = append(s.fillShare, c/float64(n))
	}
}

// fillComp computes the share of each of c's flows into f.newRate. Each
// of c's shared links sits at its linkSlot index in c.links, so the fill
// slices seeded in that order are indexed by linkSlot as fix reads them.
//
//netlint:hotpath
func (s *Sim) fillComp(c *component) {
	s.seedFill(c.links)
	s.fillSpan(c.flows, c.links, s.fillShare)
}

// fillDirty computes each dirty flow's share into f.newRate. The prepass
// seeds the fill state for every dirty link globally and points each
// link's linkSlot at it; the spans in s.comps then address disjoint
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
	s.seedFill(s.dirtyLinks)
	for k, l := range s.dirtyLinks {
		s.linkSlot[l] = int32(k)
	}
	if len(s.comps) >= 2 && len(s.dirtyFlows) >= shardParMinFlows && mat.Parallelism() > 1 {
		//netlint:allow hotalloc one closure per sharded refill dispatch, amortized over all component fills it fans out
		mat.ParallelShards(len(s.comps), func(c int) { s.fillSpanAt(s.comps[c]) })
		return
	}
	for _, sp := range s.comps {
		s.fillSpanAt(sp)
	}
}

// fillSpanAt fills one span of the dirty set.
//
//netlint:hotpath
func (s *Sim) fillSpanAt(sp compSpan) {
	s.fillSpan(s.dirtyFlows[sp.flowLo:sp.flowHi], s.dirtyLinks[sp.linkLo:sp.linkHi], s.fillShare[sp.linkLo:sp.linkHi])
}

// fillSpan runs progressive filling restricted to flows, a union of
// components, and links, the links two or more of them cross, whose fair
// shares run parallel in shares; it leaves each flow's share in
// f.newRate. Each round's bottleneck is the smallest (share, link ID)
// among the shared links that still carry unfixed flows and the unfixed
// flows' folded single-flow candidates: the same minimum a scan of every
// occupied link finds, because a single-flow link's share is exactly its
// capacity until its flow is fixed. Folded candidates never change and
// only leave, so once the smallest is fixed it is a floor under the rest,
// and the flows are rescanned only in a round whose shared minimum does
// not precede that floor. A shared link's share is kept in its fill slot,
// computed from the same operands the scan would divide, so the scan only
// compares; a link with no unfixed flow reads +Inf and never wins.
// Concurrent spans are safe: their flows, the flows' paths and the
// spans' fill slots are disjoint by construction.
//
//netlint:hotpath
func (s *Sim) fillSpan(flows []*Flow, links []topo.LinkID, shares []float64) {
	for _, f := range flows {
		f.unfixed = true
	}
	remaining := len(flows)
	var capped *Flow // the unfixed flow with the smallest folded candidate, unless stale
	stale := true
	floorRate, floorLink := math.Inf(-1), topo.LinkID(-1)
	for remaining > 0 {
		bestLink := topo.LinkID(-1)
		minShare := math.Inf(1)
		for k, l := range links {
			if share := shares[k]; precedes(share, l, minShare, bestLink) {
				minShare, bestLink = share, l
			}
		}
		if stale && !precedes(minShare, bestLink, floorRate, floorLink) {
			capped, stale = nil, false
			for _, f := range flows {
				if f.unfixed && (capped == nil || precedes(f.capRate, f.capLink, capped.capRate, capped.capLink)) {
					capped = f
				}
			}
		}
		switch {
		case !stale && capped != nil && precedes(capped.capRate, capped.capLink, minShare, bestLink):
			// The bottleneck is a link only capped crosses.
			s.fix(capped, capped.capRate)
			remaining--
			floorRate, floorLink, stale = capped.capRate, capped.capLink, true
		case bestLink >= 0:
			// Every flow on a shared link is in the filled set by
			// construction, and each link's residual decreases by the same
			// minShare per crossing flow, so visiting order cannot change a
			// single bit.
			fixed := 0
			for _, f := range s.linkFlows[bestLink] {
				if f.unfixed {
					s.fix(f, minShare)
					fixed++
				}
			}
			if fixed == 0 {
				s.stuckFill(bestLink)
			}
			remaining -= fixed
			if !stale && capped != nil && !capped.unfixed {
				floorRate, floorLink, stale = capped.capRate, capped.capLink, true
			}
		default:
			// No shared link has a finite share and no unfixed flow has a
			// folded link left. That cannot happen while flows are
			// unfixed, since every flow crosses at least one link; should
			// it, the round ends the fill rather than loop.
			for _, f := range flows {
				if f.unfixed {
					f.newRate = math.Inf(1)
					f.unfixed = false
				}
			}
			remaining = 0
		}
	}
}

// stuckFill panics on a fill round whose bottleneck link fixes no flow:
// the link's unfixed count says flows still cross it, yet none listed on
// it is unfixed — a flow listed twice on the link, whose one fix
// decrements the count once — so every later round would pick the same
// link and the fill would never end.
func (s *Sim) stuckFill(l topo.LinkID) {
	panic(fmt.Sprintf("simnet: max-min fill stuck on link %d: %d unfixed flows counted, none listed unfixed (a flow listed twice?)", l, s.fillUnfix[s.linkSlot[l]]))
}

// fix freezes f at rate, takes that rate off the residual of every shared
// link on its path and rewrites the link's share; its folded single-flow
// links are never read again.
//
//netlint:hotpath
func (s *Sim) fix(f *Flow, rate float64) {
	f.newRate = rate
	f.unfixed = false
	for _, l := range f.path {
		k := s.linkSlot[l]
		if k < 0 {
			continue
		}
		c := s.fillCap[k] - rate
		if c < 0 {
			c = 0
		}
		n := s.fillUnfix[k] - 1
		s.fillCap[k], s.fillUnfix[k] = c, n
		if n > 0 {
			s.fillShare[k] = c / float64(n)
		} else {
			s.fillShare[k] = math.Inf(1)
		}
	}
}

// commitDirty applies the freshly computed shares of the filled flows.
// Only flows whose rate
// changed, or whose timer is not queued (the flow just started draining,
// or its share was zero), need work: they are drained at their old rate
// up to now and their timer moves to the new completion instant. Between
// updates an active flow's timer is queued exactly when its rate is
// positive (the armed oracle checks it), so the rate answers "not queued"
// without touching the timer. Flows whose share is unchanged keep their
// timer (it still fires at the exact completion instant because the rate
// has been constant since it was set). Timers move in ascending flow-ID
// order so engine sequence numbers — the DES tie-break — are assigned
// deterministically.
//
//netlint:hotpath
func (s *Sim) commitDirty(flows []*Flow) {
	s.changed = s.changed[:0]
	for _, f := range flows {
		//netlint:allow floatsafe skip-if-unchanged wants bit-identity: a rate recomputed to the same bits must not reschedule the completion timer
		if f.newRate != f.rate || f.rate <= 0 {
			s.changed = append(s.changed, f)
		}
	}
	sortByID(s.changed)
	s.commitChanged()
}

// insertionSortMax is the largest slice sortByID sorts by insertion. A
// commit on Fig 13's cluster moves about nine flows on average and more
// than 24 in one commit of nine; on shuffled IDs the insertion sort takes
// 0.3 µs at 32 flows and 1.4 µs at 64, against 1.0 and 2.6 µs for
// slices.SortFunc (one core of a 2-vCPU Xeon VM, go1.24).
const insertionSortMax = 64

// sortByID orders flows by ID: by insertion when there are few, as there
// usually are, and by slices.SortFunc otherwise.
//
//netlint:hotpath
func sortByID(fs []*Flow) {
	if len(fs) > insertionSortMax {
		slices.SortFunc(fs, byID)
		return
	}
	for i := 1; i < len(fs); i++ {
		f, j := fs[i], i
		for ; j > 0 && fs[j-1].ID > f.ID; j-- {
			fs[j] = fs[j-1]
		}
		fs[j] = f
	}
}

// commitChanged moves every flow in s.changed, in order, to its newRate
// and reschedules its timer, keeping each overwritten rate in s.undo.
//
//netlint:hotpath
func (s *Sim) commitChanged() {
	s.undo = s.undo[:0]
	now := s.Now()
	for _, f := range s.changed {
		s.undo = append(s.undo, rateUndo{f, f.rate})
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

// verifyAgainstGlobal checks that no flow is listed twice on a link,
// checks the kept components (verifyComponents), compares every active
// flow's incremental rate with a fresh whole-network fill, bit for bit,
// and checks the invariant commitDirty tests rates by: a flow's timer is
// queued exactly when its rate is positive.
func (s *Sim) verifyAgainstGlobal() error {
	type listing struct {
		l  int
		id int64
	}
	listed := map[listing]bool{}
	for l, fl := range s.linkFlows {
		for _, f := range fl {
			if listed[listing{l, f.ID}] {
				return fmt.Errorf("simnet: t=%v flow %d is listed twice on link %d", s.Now(), f.ID, l)
			}
			listed[listing{l, f.ID}] = true
		}
	}
	if err := s.verifyComponents(); err != nil {
		return err
	}
	ref := s.referenceRates()
	for id, f := range s.active {
		//netlint:allow floatsafe this differential check is bit-for-bit by design: incremental and global fills must agree exactly, not within tolerance
		if want := ref[id]; f.rate != want {
			return fmt.Errorf("simnet: t=%v flow %d: incremental rate %v != global rate %v (diff %g)",
				s.Now(), id, f.rate, want, f.rate-want)
		}
		if f.timer.Queued() != (f.rate > 0) {
			return fmt.Errorf("simnet: t=%v flow %d: rate %v but timer queued %v", s.Now(), id, f.rate, f.timer.Queued())
		}
	}
	return nil
}

// verifyComponents checks the state join and leave keep: every active
// flow sits at its recorded index in its component, and every listed
// flow is active and records that component and index, so each flow is
// in exactly one; flows on one link share a component; a component's
// links are exactly the links two or more of its flows cross, each at
// its linkSlot index; linkSlot reads -1 on every single-flow link; and
// each flow's folded candidate equals a fresh fold.
func (s *Sim) verifyComponents() error {
	comps := map[*component]bool{}
	for id, f := range s.active {
		c := f.comp
		if c == nil || f.compIdx < 0 || f.compIdx >= len(c.flows) || c.flows[f.compIdx] != f {
			return fmt.Errorf("simnet: t=%v flow %d is not at its recorded index %d in a component", s.Now(), id, f.compIdx)
		}
		comps[c] = true
		rate, link := math.Inf(1), topo.LinkID(-1)
		for _, l := range f.path {
			if cp := s.linkCap[l]; len(s.linkFlows[l]) == 1 && precedes(cp, l, rate, link) {
				rate, link = cp, l
			}
		}
		if link != f.capLink || math.Float64bits(rate) != math.Float64bits(f.capRate) {
			return fmt.Errorf("simnet: t=%v flow %d folds candidate (%v, link %d), a fresh fold gives (%v, link %d)",
				s.Now(), id, f.capRate, f.capLink, rate, link)
		}
	}
	for c := range comps {
		for i, f := range c.flows {
			if s.active[f.ID] != f || f.comp != c || f.compIdx != i {
				return fmt.Errorf("simnet: t=%v a component lists flow %d at index %d, which is not active there", s.Now(), f.ID, i)
			}
		}
		for k, l := range c.links {
			if fl := s.linkFlows[l]; int(s.linkSlot[l]) != k || len(fl) < 2 || fl[0].comp != c {
				return fmt.Errorf("simnet: t=%v a component lists link %d at index %d, whose slot reads %d and which %d flows cross",
					s.Now(), l, k, s.linkSlot[l], len(fl))
			}
		}
	}
	for l, fl := range s.linkFlows {
		slot := int(s.linkSlot[l])
		switch {
		case len(fl) == 1 && slot != -1:
			return fmt.Errorf("simnet: t=%v single-flow link %d has slot %d, want -1", s.Now(), l, slot)
		case len(fl) >= 2:
			c := fl[0].comp
			for _, g := range fl[1:] {
				if g.comp != c {
					return fmt.Errorf("simnet: t=%v flows %d and %d share link %d but not a component", s.Now(), fl[0].ID, g.ID, l)
				}
			}
			if slot < 0 || slot >= len(c.links) || int(c.links[slot]) != l {
				return fmt.Errorf("simnet: t=%v shared link %d is not at its slot %d in its component's links", s.Now(), l, slot)
			}
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
// interfere during the transfer. The flow never leaves Transfer, so once
// it has completed it goes back to s.free for the next owned flow, unless
// it had no bytes and so no timer to keep.
func (s *Sim) Transfer(src, dst int, bytes float64) float64 {
	start := s.Now()
	f := s.startOwned(src, dst, bytes, nil, false)
	s.RunUntilDone(f)
	if f.timer != nil {
		s.free = append(s.free, f)
	}
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
	// One timer and one message-done callback serve every message, and
	// each message starts in a completed owned flow when one is free.
	var wait *des.Timer
	next := func(float64) {
		if !b.stopped {
			s.Eng.Reschedule(wait, s.Now()+stats.Exponential(rng, lambda))
		}
	}
	wait = s.Eng.NewTimer(func() {
		if !b.stopped {
			s.startOwned(src, dst, msgBytes, next, true)
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
