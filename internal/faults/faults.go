// Package faults is the fault-injection substrate: a deterministic,
// seeded wrapper around any cloud.Cluster that overlays the failure modes
// real IaaS measurement campaigns hit — lost probes, heavy-tailed latency
// and bandwidth outliers, persistently slow straggler VMs, correlated
// rack-level blackouts, transient network partitions, and mid-calibration
// VM churn. The wrapped cluster implements cloud.PairProber, so the
// resilient calibration path (internal/cloud) sees genuine probe failures
// with typed errors, and every injected fault is recorded in an event log
// that tests and experiment sweeps can assert against.
//
// All randomness flows from the scenario seed through a single stream, so
// two identically configured clusters driven by the same probe sequence
// produce byte-identical fault schedules and calibrations.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"netconstant/internal/cloud"
	"netconstant/internal/netmodel"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// ErrProbeLost is the sentinel unwrapped by every probe failure the
// injector produces.
var ErrProbeLost = errors.New("faults: probe lost")

// ProbeError describes one failed probe with its cause. It unwraps to
// ErrProbeLost.
type ProbeError struct {
	I, J   int
	Reason string // "loss", "blackout", "partition", "churn"
}

// Error formats the pair and cause.
func (e *ProbeError) Error() string {
	return fmt.Sprintf("faults: probe %d->%d lost (%s)", e.I, e.J, e.Reason)
}

// Unwrap makes errors.Is(err, ErrProbeLost) work.
func (e *ProbeError) Unwrap() error { return ErrProbeLost }

// Blackout is a correlated outage: every probe touching one of the listed
// VMs fails during [Start, Start+Duration).
type Blackout struct {
	VMs             []int
	Start, Duration float64
	Label           string // free-form tag for the event log, e.g. "rack 3"
}

func (b Blackout) active(now float64) bool {
	return now >= b.Start && now < b.Start+b.Duration
}

// RackBlackout builds a Blackout covering every cluster VM hosted in the
// given rack of the data-center topology. hosts maps VM index to server
// node (cloud.VirtualCluster.Hosts).
func RackBlackout(t *topo.Topology, hosts []int, rack int, start, duration float64) Blackout {
	b := Blackout{Start: start, Duration: duration, Label: fmt.Sprintf("rack %d", rack)}
	for vm, h := range hosts {
		if t.Node(h).Rack == rack {
			b.VMs = append(b.VMs, vm)
		}
	}
	return b
}

// Partition is a transient split: probes crossing between Group and the
// rest of the cluster fail during [Start, Start+Duration). Probes within
// either side still succeed.
type Partition struct {
	Group           []int
	Start, Duration float64
}

func (p Partition) active(now float64) bool {
	return now >= p.Start && now < p.Start+p.Duration
}

// Scenario composes the fault injectors. The zero value injects nothing;
// each field arms one injector independently, and all of them stack.
type Scenario struct {
	// Seed drives every stochastic injector. Two clusters wrapped with
	// identical scenarios and probed identically produce identical fault
	// schedules.
	Seed int64

	// ProbeLoss is the iid probability that any single probe attempt is
	// lost (timeout / dropped handshake).
	ProbeLoss float64

	// HeavyTailProb perturbs a probe with a Pareto-distributed slowdown:
	// with this probability the measured bandwidth is divided (and the
	// latency multiplied) by a factor drawn from a Pareto(HeavyTailAlpha)
	// tail. Alpha defaults to 1.5 — infinite variance, the regime "Noise
	// in the Clouds" reports for congested fabrics.
	HeavyTailProb  float64
	HeavyTailAlpha float64

	// Stragglers marks this many VMs (chosen by seed) as persistently
	// slow: every link touching one is degraded by StragglerFactor
	// (default 4).
	Stragglers      int
	StragglerFactor float64

	// Blackouts are correlated outage windows (see RackBlackout).
	Blackouts []Blackout

	// Partitions are transient group splits.
	Partitions []Partition

	// ChurnRate is the expected number of VM restarts per VM per day;
	// a churning VM is unreachable for ChurnDuration seconds (default 30).
	ChurnRate     float64
	ChurnDuration float64
}

func (sc *Scenario) applyDefaults() {
	if sc.HeavyTailAlpha == 0 {
		sc.HeavyTailAlpha = 1.5
	}
	if sc.StragglerFactor == 0 {
		sc.StragglerFactor = 4
	}
	if sc.ChurnDuration == 0 {
		sc.ChurnDuration = 30
	}
}

// EventKind classifies log entries.
type EventKind string

// Event kinds recorded by the injector.
const (
	EventProbeLoss      EventKind = "probe-loss"
	EventHeavyTail      EventKind = "heavy-tail"
	EventBlackoutStart  EventKind = "blackout-start"
	EventBlackoutEnd    EventKind = "blackout-end"
	EventPartitionStart EventKind = "partition-start"
	EventPartitionEnd   EventKind = "partition-end"
	EventChurnStart     EventKind = "churn-start"
	EventChurnEnd       EventKind = "churn-end"
	EventBlackoutDrop   EventKind = "blackout-drop"
	EventPartitionDrop  EventKind = "partition-drop"
	EventChurnDrop      EventKind = "churn-drop"
)

// Event is one fault occurrence. Pair faults carry the directed pair;
// state transitions carry the affected VM (or -1) in I.
type Event struct {
	Time float64
	Kind EventKind
	I, J int
	Note string
}

// maxLoggedEvents bounds the event log so long calibrations cannot grow
// it without limit; counters keep exact totals past the cap.
const maxLoggedEvents = 4096

// Cluster wraps an inner cloud.Cluster with the scenario's fault
// injectors. It implements cloud.Cluster and cloud.PairProber.
type Cluster struct {
	inner cloud.Cluster
	sc    Scenario
	rng   *rand.Rand

	straggler []bool
	churnEnd  []float64 // per-VM unreachable-until time; 0 = reachable
	blackOn   []bool    // per-blackout "currently active" edge detector
	partOn    []bool
	partSide  []map[int]bool
	blackSet  []map[int]bool

	events []Event
	counts map[EventKind]int
}

// Wrap builds the fault-injecting view of inner. The inner cluster is
// still advanced and probed through the wrapper; using both views
// concurrently is not supported.
func Wrap(inner cloud.Cluster, sc Scenario) *Cluster {
	sc.applyDefaults()
	n := inner.Size()
	c := &Cluster{
		inner:     inner,
		sc:        sc,
		rng:       stats.NewRNG(sc.Seed ^ 0xfa17),
		straggler: make([]bool, n),
		churnEnd:  make([]float64, n),
		blackOn:   make([]bool, len(sc.Blackouts)),
		partOn:    make([]bool, len(sc.Partitions)),
		counts:    make(map[EventKind]int),
	}
	if sc.Stragglers > 0 {
		perm := stats.Perm(c.rng, n)
		for k := 0; k < sc.Stragglers && k < n; k++ {
			c.straggler[perm[k]] = true
		}
	}
	for _, b := range sc.Blackouts {
		set := make(map[int]bool, len(b.VMs))
		for _, vm := range b.VMs {
			set[vm] = true
		}
		c.blackSet = append(c.blackSet, set)
	}
	for _, p := range sc.Partitions {
		set := make(map[int]bool, len(p.Group))
		for _, vm := range p.Group {
			set[vm] = true
		}
		c.partSide = append(c.partSide, set)
	}
	return c
}

// EventCounts returns exact per-kind fault totals, unaffected by the log
// cap.
func (c *Cluster) EventCounts() map[EventKind]int {
	out := make(map[EventKind]int, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

func (c *Cluster) log(kind EventKind, i, j int, note string) {
	c.counts[kind]++
	if len(c.events) < maxLoggedEvents {
		c.events = append(c.events, Event{Time: c.inner.Now(), Kind: kind, I: i, J: j, Note: note})
	}
}

// Size returns the inner cluster's size.
func (c *Cluster) Size() int { return c.inner.Size() }

// Now returns the inner cluster's clock.
func (c *Cluster) Now() float64 { return c.inner.Now() }

// AdvanceTime moves the inner clock and evolves the fault state: churn
// arrivals are drawn, and blackout/partition window transitions are
// logged.
func (c *Cluster) AdvanceTime(dt float64) {
	c.inner.AdvanceTime(dt)
	now := c.inner.Now()

	if c.sc.ChurnRate > 0 && dt > 0 {
		perVM := c.sc.ChurnRate * dt / 86400
		for vm := range c.churnEnd {
			if c.churnEnd[vm] > 0 && now >= c.churnEnd[vm] {
				c.log(EventChurnEnd, vm, -1, "")
				c.churnEnd[vm] = 0
			}
			if stats.Bernoulli(c.rng, perVM) {
				c.churnEnd[vm] = now + c.sc.ChurnDuration
				c.log(EventChurnStart, vm, -1, fmt.Sprintf("unreachable %.0fs", c.sc.ChurnDuration))
			}
		}
	}
	for k, b := range c.sc.Blackouts {
		if act := b.active(now); act != c.blackOn[k] {
			c.blackOn[k] = act
			if act {
				c.log(EventBlackoutStart, -1, -1, b.Label)
			} else {
				c.log(EventBlackoutEnd, -1, -1, b.Label)
			}
		}
	}
	for k, p := range c.sc.Partitions {
		if act := p.active(now); act != c.partOn[k] {
			c.partOn[k] = act
			if act {
				c.log(EventPartitionStart, -1, -1, fmt.Sprintf("group of %d", len(p.Group)))
			} else {
				c.log(EventPartitionEnd, -1, -1, "")
			}
		}
	}
}

// unavailable reports whether the directed pair cannot communicate right
// now, and why.
func (c *Cluster) unavailable(i, j int) (EventKind, string, bool) {
	now := c.inner.Now()
	if c.churnEnd[i] > now || c.churnEnd[j] > now {
		return EventChurnDrop, "churn", true
	}
	for k, b := range c.sc.Blackouts {
		if b.active(now) && (c.blackSet[k][i] || c.blackSet[k][j]) {
			return EventBlackoutDrop, "blackout", true
		}
	}
	for k, p := range c.sc.Partitions {
		if p.active(now) && c.partSide[k][i] != c.partSide[k][j] {
			return EventPartitionDrop, "partition", true
		}
	}
	return "", "", false
}

// perturb applies the value-level injectors (stragglers, heavy tail) to a
// measured link.
func (c *Cluster) perturb(i, j int, l netmodel.Link) netmodel.Link {
	if c.straggler[i] || c.straggler[j] {
		l.Beta /= c.sc.StragglerFactor
		l.Alpha *= c.sc.StragglerFactor
	}
	if c.sc.HeavyTailProb > 0 && c.rng.Float64() < c.sc.HeavyTailProb {
		// Pareto tail: factor = (1-u)^(-1/α) ≥ 1.
		f := math.Pow(1-c.rng.Float64(), -1/c.sc.HeavyTailAlpha)
		l.Beta /= f
		l.Alpha *= f
		c.log(EventHeavyTail, i, j, fmt.Sprintf("x%.1f", f))
	}
	return l
}

// PairPerf returns the instantaneous pair performance as an application
// transfer would experience it: perturbed by stragglers and heavy-tail
// episodes, and a dead link (zero bandwidth → infinite transfer time)
// while the pair is blacked out, partitioned, or churning.
func (c *Cluster) PairPerf(i, j int) netmodel.Link {
	if i == j {
		return c.inner.PairPerf(i, j)
	}
	if _, _, down := c.unavailable(i, j); down {
		return netmodel.Link{}
	}
	return c.perturb(i, j, c.inner.PairPerf(i, j))
}

// ProbePair implements cloud.PairProber: it runs one probe attempt and
// returns a typed error when the attempt is lost to iid probe loss or the
// pair is currently unreachable.
func (c *Cluster) ProbePair(i, j int) (netmodel.Link, error) {
	if kind, reason, down := c.unavailable(i, j); down {
		c.log(kind, i, j, "")
		return netmodel.Link{}, &ProbeError{I: i, J: j, Reason: reason}
	}
	if c.sc.ProbeLoss > 0 && c.rng.Float64() < c.sc.ProbeLoss {
		c.log(EventProbeLoss, i, j, "")
		return netmodel.Link{}, &ProbeError{I: i, J: j, Reason: "loss"}
	}
	return c.perturb(i, j, c.inner.PairPerf(i, j)), nil
}

var (
	_ cloud.Cluster    = (*Cluster)(nil)
	_ cloud.PairProber = (*Cluster)(nil)
)
