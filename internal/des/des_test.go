package des

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestScheduleAndRunOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order %v", order)
	}
	if e.Now() != 3 {
		t.Errorf("clock %v", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(5, func() { order = append(order, "a") })
	e.Schedule(5, func() { order = append(order, "b") })
	e.Schedule(5, func() { order = append(order, "c") })
	e.Run()
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("tie order %v", order)
	}
}

func TestAfter(t *testing.T) {
	e := NewEngine()
	var fired float64 = -1
	e.Schedule(2, func() {
		e.After(3, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 5 {
		t.Errorf("After fired at %v", fired)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	timer := e.Schedule(1, func() { fired = true })
	timer.Cancel()
	e.Run()
	if fired {
		t.Error("cancelled timer fired")
	}
	timer.Cancel() // double-cancel is fine
	if timer.at != 1 {
		t.Error("At")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e.Schedule(1, func() {})
}

func TestScheduleNaNPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e.Schedule(math.NaN(), func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(2.5)
	if len(fired) != 2 {
		t.Errorf("fired %v", fired)
	}
	if e.Now() != 2.5 {
		t.Errorf("clock %v", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("pending %d", e.Pending())
	}
	e.Run()
	if len(fired) != 4 {
		t.Error("remaining events lost")
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(10)
	if e.Now() != 10 {
		t.Errorf("idle clock %v", e.Now())
	}
	// Deadline before now is a no-op.
	e.RunUntil(5)
	if e.Now() != 10 {
		t.Error("clock moved backwards")
	}
}

func TestStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("step on empty queue")
	}
}

func TestPendingSkipsCancelled(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	a.Cancel()
	if e.Pending() != 1 {
		t.Errorf("pending %d", e.Pending())
	}
	e.Run()
	if e.Now() != 2 {
		t.Error("cancelled head should be skipped")
	}
}

func TestCascadingEvents(t *testing.T) {
	// An event that schedules new events at the same time should keep FIFO
	// ordering among equal-time events.
	e := NewEngine()
	var order []int
	e.Schedule(1, func() {
		order = append(order, 1)
		e.Schedule(1, func() { order = append(order, 2) })
	})
	e.Run()
	if len(order) != 2 || order[1] != 2 {
		t.Errorf("cascade order %v", order)
	}
}

// Property: events fire in non-decreasing time order regardless of the
// order they were scheduled in, including events scheduled from inside
// other events.
func TestPropertyEventOrdering(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []float64
		record := func() { fired = append(fired, e.Now()) }
		for i := 0; i < 50; i++ {
			at := rng.Float64() * 100
			e.Schedule(at, func() {
				record()
				// Cascade: schedule a follow-up in the future.
				if rng.Float64() < 0.3 {
					e.After(rng.Float64()*10, record)
				}
			})
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				t.Fatalf("seed %d: time went backwards: %v -> %v", seed, fired[i-1], fired[i])
			}
		}
	}
}

// Churning Schedule/Cancel must not grow the queue with the number of
// cancellations: Cancel removes the timer at once, so the queue holds
// exactly the live timers after every operation. This is the pattern the
// flow simulator produces — every rate change moves a completion timer.
func TestCancelChurnBoundsHeap(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(7))
	var live []*Timer
	const rounds = 20000
	for i := 0; i < rounds; i++ {
		live = append(live, e.After(1+rng.Float64()*100, func() {}))
		if got := e.Pending(); got != len(live) {
			t.Fatalf("round %d: Pending %d after Schedule, %d live", i, got, len(live))
		}
		// Cancel-and-replace an existing timer most of the time, keeping
		// roughly a constant live population under heavy churn.
		for len(live) > 50 {
			j := rng.Intn(len(live))
			live[j].Cancel()
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			if got := e.Pending(); got != len(live) {
				t.Fatalf("round %d: Pending %d after Cancel, %d live", i, got, len(live))
			}
		}
	}
	// The engine must still fire exactly the surviving timers, in order.
	n := 0
	for e.Step() {
		n++
		if got := e.Pending(); got != len(live)-n {
			t.Fatalf("Pending %d after %d steps, want %d", got, n, len(live)-n)
		}
	}
	if n != len(live) {
		t.Fatalf("fired %d events, want %d live", n, len(live))
	}
}

// Cancel is a no-op on a timer that is not queued — after it fired,
// after an earlier Cancel, and from inside its own callback — and a
// cancelled timer never fires. Rescheduling a fired or cancelled timer
// queues it again, and it then fires exactly once.
func TestCancelAfterFireKeepsCounterSane(t *testing.T) {
	e := NewEngine()
	fires := map[string]int{}
	count := func(name string) func() { return func() { fires[name]++ } }

	fired := e.After(1, count("fired"))
	e.Run()
	fired.Cancel() // after fire
	fired.Cancel() // double cancel
	if fires["fired"] != 1 || e.Pending() != 0 || fired.Queued() {
		t.Fatalf("after fire + cancels: fires %d, pending %d, queued %v", fires["fired"], e.Pending(), fired.Queued())
	}

	cancelled := e.After(1, count("cancelled"))
	e.After(2, count("other"))
	cancelled.Cancel()
	cancelled.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("pending %d after double cancel, want 1", e.Pending())
	}

	var self *Timer
	self = e.After(3, func() {
		fires["self"]++
		self.Cancel() // from its own callback: already dequeued
	})
	e.Run()
	if fires["cancelled"] != 0 || fires["other"] != 1 || fires["self"] != 1 || e.Pending() != 0 {
		t.Fatalf("fires %v, pending %d", fires, e.Pending())
	}

	// Fired and cancelled timers come back through Reschedule, once each.
	e.Reschedule(fired, e.Now()+1)
	e.Reschedule(cancelled, e.Now()+1)
	e.Reschedule(self, e.Now()+2)
	if e.Pending() != 3 {
		t.Fatalf("pending %d after rescheduling three idle timers", e.Pending())
	}
	e.Run()
	if fires["fired"] != 2 || fires["cancelled"] != 1 || fires["self"] != 2 {
		t.Fatalf("after reschedule: fires %v", fires)
	}
	if e.Step() || e.Pending() != 0 {
		t.Fatal("rescheduled timers fired more than once")
	}
}

// A timer may reschedule itself from its own callback — the flow
// simulator's timers do, when a flow starts draining — and then fires
// again at the new time.
func TestRescheduleFromOwnCallback(t *testing.T) {
	e := NewEngine()
	var at []float64
	var tm *Timer
	tm = e.NewTimer(func() {
		at = append(at, e.Now())
		if len(at) < 3 {
			e.Reschedule(tm, e.Now()+1)
		}
	})
	if tm.Queued() || e.Pending() != 0 {
		t.Fatal("NewTimer queued its timer")
	}
	e.Reschedule(tm, 1)
	e.Run()
	if !slices.Equal(at, []float64{1, 2, 3}) || tm.Queued() {
		t.Fatalf("self-rescheduling timer fired at %v (queued %v), want [1 2 3]", at, tm.Queued())
	}
}

// Reschedule validates its time exactly as Schedule does and refuses a
// timer owned by another engine.
func TestReschedulePanics(t *testing.T) {
	e := NewEngine()
	tm := e.Schedule(5, func() {})
	e.RunUntil(3)
	for name, f := range map[string]func(){
		"past":         func() { e.Reschedule(tm, 2) },
		"NaN":          func() { e.Reschedule(tm, math.NaN()) },
		"other engine": func() { NewEngine().Reschedule(tm, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
	if !tm.Queued() || tm.at != 5 || e.Pending() != 1 {
		t.Fatalf("a refused Reschedule moved the timer: queued %v, at %v, pending %d", tm.Queued(), tm.at, e.Pending())
	}
}

// refEntry is one live event of the reference model.
type refEntry struct {
	at  float64
	seq int64
	id  int
}

// refQueue is the specification the heap is checked against: an
// unordered list of live entries, popped by a linear scan for the
// smallest (at, seq).
type refQueue struct {
	seq     int64
	entries []refEntry
}

func (r *refQueue) find(id int) int {
	for i, en := range r.entries {
		if en.id == id {
			return i
		}
	}
	return -1
}

func (r *refQueue) cancel(id int) {
	if i := r.find(id); i >= 0 {
		r.entries = append(r.entries[:i], r.entries[i+1:]...)
	}
}

func (r *refQueue) schedule(id int, at float64) {
	r.cancel(id)
	r.entries = append(r.entries, refEntry{at: at, seq: r.seq, id: id})
	r.seq++
}

func (r *refQueue) pop() (refEntry, bool) {
	if len(r.entries) == 0 {
		return refEntry{}, false
	}
	best := 0
	for i, en := range r.entries {
		b := r.entries[best]
		if en.at < b.at || (en.at == b.at && en.seq < b.seq) {
			best = i
		}
	}
	en := r.entries[best]
	r.entries = append(r.entries[:best], r.entries[best+1:]...)
	return en, true
}

// Differential test: random Schedule/Cancel/Reschedule/Step sequences
// against the reference model. The fired-id sequence and Pending must
// match the model after every operation, and a twin engine that replaces
// every Reschedule with Cancel + Schedule must fire the same ids at the
// same times.
func TestRescheduleMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, twin := NewEngine(), NewEngine()
		var ref refQueue
		var got, gotTwin, want []int
		const ids = 12
		timers := make([]*Timer, ids)
		twinTimers := make([]*Timer, ids)
		for id := range timers {
			timers[id] = e.NewTimer(func() { got = append(got, id) })
		}
		twinFire := func(id int) func() { return func() { gotTwin = append(gotTwin, id) } }
		for op := 0; op < 400; op++ {
			id := rng.Intn(ids)
			// Few distinct times, so (time, seq) ties are common.
			at := e.Now() + float64(rng.Intn(4))
			switch k := rng.Intn(10); {
			case k < 4:
				e.Reschedule(timers[id], at)
				if twinTimers[id] != nil {
					twinTimers[id].Cancel()
				}
				twinTimers[id] = twin.Schedule(at, twinFire(id))
				ref.schedule(id, at)
			case k < 6:
				timers[id].Cancel()
				if twinTimers[id] != nil {
					twinTimers[id].Cancel()
				}
				ref.cancel(id)
			default:
				stepped := e.Step()
				twin.Step()
				en, ok := ref.pop()
				if stepped != ok {
					t.Fatalf("seed %d op %d: Step %v, model has event %v", seed, op, stepped, ok)
				}
				if ok {
					want = append(want, en.id)
					if e.Now() != en.at {
						t.Fatalf("seed %d op %d: clock %v, model fired at %v", seed, op, e.Now(), en.at)
					}
				}
			}
			if e.Pending() != len(ref.entries) || twin.Pending() != len(ref.entries) {
				t.Fatalf("seed %d op %d: Pending %d (twin %d), model %d", seed, op, e.Pending(), twin.Pending(), len(ref.entries))
			}
			if !slices.Equal(got, want) || !slices.Equal(gotTwin, want) {
				t.Fatalf("seed %d op %d: fired %v (twin %v), model %v", seed, op, got, gotTwin, want)
			}
			if e.Now() != twin.Now() {
				t.Fatalf("seed %d op %d: clock %v, twin %v", seed, op, e.Now(), twin.Now())
			}
		}
	}
}

// Moving a queued timer is allocation-free: the flow simulator does it
// on every rate change.
func TestRescheduleQueuedAllocatesNothing(t *testing.T) {
	e := NewEngine()
	var timers []*Timer
	for i := 0; i < 64; i++ {
		timers = append(timers, e.Schedule(float64(i), func() {}))
	}
	k := 0
	allocs := testing.AllocsPerRun(1000, func() {
		k++
		e.Reschedule(timers[k%len(timers)], float64(k%97))
	})
	if allocs != 0 {
		t.Fatalf("Reschedule of a queued timer: %v allocs, want 0", allocs)
	}
	if e.Pending() != len(timers) {
		t.Fatalf("Pending %d, want %d", e.Pending(), len(timers))
	}
}
