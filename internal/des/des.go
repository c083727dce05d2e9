// Package des provides a minimal deterministic discrete-event simulation
// engine: a virtual clock and a time-ordered event queue with cancellable,
// reschedulable timers. It is shared by the flow-level network simulator
// (the ns-2 substitute) and the analytic α-β network executor.
//
// Determinism: ties in event time are broken by scheduling order, so a
// simulation driven by seeded randomness replays identically.
package des

import (
	"container/heap"
	"math"
)

// Timer is a handle to an event. A timer is queued from the moment it is
// scheduled until it fires or is cancelled; Reschedule queues it again.
type Timer struct {
	at    float64
	seq   int64
	fn    func()
	index int // heap index; -1 while not queued
	eng   *Engine
}

// Cancel removes the timer from its engine's queue at once, so its
// callback does not fire. Cancelling a timer that is not queued (already
// fired, already cancelled, or cancelled from inside its own callback) is
// a no-op.
//
//netlint:hotpath
func (t *Timer) Cancel() {
	if t.eng == nil || t.index < 0 {
		return
	}
	heap.Remove(&t.eng.q, t.index)
}

// Queued reports whether the timer is waiting to fire.
//
//netlint:hotpath
func (t *Timer) Queued() bool { return t.index >= 0 }

// Engine is a discrete-event scheduler with a virtual clock.
type Engine struct {
	now float64
	seq int64
	q   timerHeap
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// NewTimer returns a timer that runs fn when it fires. The timer is not
// queued until Reschedule is called on it, so a caller that fires the same
// callback many times allocates the timer and its closure once.
func (e *Engine) NewTimer(fn func()) *Timer {
	return &Timer{fn: fn, index: -1, eng: e}
}

// Schedule registers fn to run at simulated time `at` and returns a
// cancellable handle. Scheduling in the past (at < Now) panics: it would
// silently corrupt causality.
func (e *Engine) Schedule(at float64, fn func()) *Timer {
	t := e.NewTimer(fn)
	e.Reschedule(t, at)
	return t
}

// After schedules fn to run delay seconds from now.
func (e *Engine) After(delay float64, fn func()) *Timer {
	return e.Schedule(e.now+delay, fn)
}

// Reschedule moves t to fire at simulated time `at`, queueing it again if
// it already fired or was cancelled. It takes a fresh sequence number, so
// the timer fires exactly where Cancel followed by Schedule(at, fn) would
// have put a new one, without allocating. It panics on a past or NaN time,
// as Schedule does, and on a timer made by another engine.
//
//netlint:hotpath
func (e *Engine) Reschedule(t *Timer, at float64) {
	if at < e.now {
		panic("des: scheduling event in the past")
	}
	if math.IsNaN(at) {
		panic("des: scheduling event at NaN")
	}
	if t.eng != e {
		panic("des: rescheduling another engine's timer")
	}
	t.at = at
	t.seq = e.seq
	e.seq++
	if t.index >= 0 {
		heap.Fix(&e.q, t.index)
		return
	}
	heap.Push(&e.q, t)
}

// Step fires the earliest pending event. It reports false when the queue
// is empty.
func (e *Engine) Step() bool {
	if len(e.q) == 0 {
		return false
	}
	t := heap.Pop(&e.q).(*Timer)
	e.now = t.at
	t.fn()
	return true
}

// Run fires events until the queue is empty.
//
//netlint:allow testonly the root BenchmarkSimnetFlows and the des and simnet tests run an engine until its queue is empty
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with time <= deadline, then advances the clock to
// exactly the deadline (later events stay queued).
func (e *Engine) RunUntil(deadline float64) {
	for len(e.q) > 0 && e.q[0].at <= deadline {
		e.Step()
	}
	if deadline > e.now {
		e.now = deadline
	}
}

// Pending returns the number of queued events.
//
//netlint:allow testonly perfbench, a module of its own, checks that a simulate op drains its engine
func (e *Engine) Pending() int { return len(e.q) }

// timerHeap orders by (time, sequence) for deterministic tie-breaking.
type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	//netlint:allow floatsafe exact inequality implements (time, seq) lexicographic order; At is validated finite when timers are scheduled
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*Timer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
