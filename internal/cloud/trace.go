package cloud

import (
	"encoding/gob"
	"errors"
	"io"
	"math/rand"

	"netconstant/internal/netmodel"
	"netconstant/internal/stats"
)

// Trace is a recorded series of all-link performance snapshots of a
// virtual cluster — the paper's week-long EC2 calibration traces, which it
// replays for repeatable comparisons (§V-D3).
type Trace struct {
	N     int
	Times []float64
	Perfs []*netmodel.PerfMatrix
}

// Record samples the cluster every `interval` seconds for `duration`
// seconds (inclusive of t=0) and returns the trace.
func Record(c Cluster, duration, interval float64) *Trace {
	if interval <= 0 {
		panic("cloud: non-positive trace interval")
	}
	tr := &Trace{N: c.Size()}
	for elapsed := 0.0; elapsed <= duration; elapsed += interval {
		tr.Times = append(tr.Times, c.Now())
		tr.Perfs = append(tr.Perfs, snapshotOf(c))
		if elapsed+interval <= duration {
			c.AdvanceTime(interval)
		}
	}
	return tr
}

// Len returns the number of snapshots.
func (tr *Trace) Len() int { return len(tr.Perfs) }

// Clone deep-copies the trace (used before noise injection so sweeps can
// restart from the pristine recording).
func (tr *Trace) Clone() *Trace {
	out := &Trace{N: tr.N, Times: append([]float64(nil), tr.Times...)}
	for _, pm := range tr.Perfs {
		out.Perfs = append(out.Perfs, pm.Clone())
	}
	return out
}

// At returns the snapshot index whose time is closest to t (snapshots are
// time-ordered).
func (tr *Trace) At(t float64) int {
	best, bestDist := 0, -1.0
	for i, tm := range tr.Times {
		d := tm - t
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// InjectBursts overlays correlated congestion episodes: each affected
// directed link (chosen with probability linkProb) suffers one contiguous
// burst of `span` snapshots starting uniformly within [startLo, startHi),
// during which its performance is degraded by a factor drawn from
// [2, 2+amp]. Bursts are the video-surveillance analogue the paper leans
// on — foreground objects that appear in some frames and pollute a
// per-link average while a robust constant estimate rejects them.
func (tr *Trace) InjectBursts(rng *rand.Rand, linkProb float64, startLo, startHi, span int, amp float64) {
	if tr.N == 0 || tr.Len() == 0 || span < 1 {
		return
	}
	if startLo < 0 {
		startLo = 0
	}
	if startHi > tr.Len() {
		startHi = tr.Len()
	}
	if startHi <= startLo {
		return
	}
	for i := 0; i < tr.N; i++ {
		for j := 0; j < tr.N; j++ {
			if i == j || !stats.Bernoulli(rng, linkProb) {
				continue
			}
			start := startLo + rng.Intn(startHi-startLo)
			slow := 2 + amp*rng.Float64()
			for k := start; k < start+span && k < tr.Len(); k++ {
				l := tr.Perfs[k].Link(i, j)
				l.Beta /= slow
				l.Alpha *= slow
				tr.Perfs[k].SetLink(i, j, l)
			}
		}
	}
}

// InjectNoise perturbs every snapshot with independent multiplicative
// 1%-step noise plus sparse spikes — transient interference without
// long-term drift. steps is the number of 1% steps applied to each cell;
// spikeProb/spikeAmp add sparse outliers.
func (tr *Trace) InjectNoise(rng *rand.Rand, steps int, spikeProb, spikeAmp float64) {
	for _, pm := range tr.Perfs {
		for i := 0; i < pm.N; i++ {
			for j := 0; j < pm.N; j++ {
				if i == j {
					continue
				}
				l := pm.Link(i, j)
				for s := 0; s < steps; s++ {
					if rng.Float64() < 0.5 {
						l.Beta *= 1.01
						l.Alpha *= 0.99
					} else {
						l.Beta *= 0.99
						l.Alpha *= 1.01
					}
				}
				if stats.Bernoulli(rng, spikeProb) {
					slow := 1 + spikeAmp*rng.Float64()
					l.Beta /= slow
					l.Alpha *= slow
				}
				pm.SetLink(i, j, l)
			}
		}
	}
}

type gobTrace struct {
	N     int
	Times []float64
	Lat   [][]float64
	Bw    [][]float64
}

// Encode serializes the trace with encoding/gob.
func (tr *Trace) Encode(w io.Writer) error {
	g := gobTrace{N: tr.N, Times: tr.Times}
	for _, pm := range tr.Perfs {
		g.Lat = append(g.Lat, netmodel.Vectorize(pm.Latency))
		g.Bw = append(g.Bw, netmodel.Vectorize(pm.Bandwth))
	}
	return gob.NewEncoder(w).Encode(g)
}

// DecodeTrace reads a trace written by Encode.
func DecodeTrace(r io.Reader) (*Trace, error) {
	var g gobTrace
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return nil, err
	}
	if len(g.Lat) != len(g.Times) || len(g.Bw) != len(g.Times) {
		return nil, errors.New("cloud: corrupt trace")
	}
	tr := &Trace{N: g.N, Times: g.Times}
	for k := range g.Times {
		if len(g.Lat[k]) != g.N*g.N || len(g.Bw[k]) != g.N*g.N {
			return nil, errors.New("cloud: corrupt trace snapshot")
		}
		pm := &netmodel.PerfMatrix{
			N:       g.N,
			Latency: netmodel.Devectorize(g.Lat[k], g.N),
			Bandwth: netmodel.Devectorize(g.Bw[k], g.N),
		}
		tr.Perfs = append(tr.Perfs, pm)
	}
	return tr, nil
}

// ReplayCluster replays a recorded trace as a Cluster: PairPerf reads the
// snapshot nearest to the replay clock. It enables repeatable experiments
// on identical network conditions across compared strategies.
type ReplayCluster struct {
	trace *Trace
	now   float64
	cur   int
}

// NewReplay starts a replay of the trace at its first snapshot.
func NewReplay(tr *Trace) *ReplayCluster {
	if tr.Len() == 0 {
		panic("cloud: empty trace")
	}
	return &ReplayCluster{trace: tr, now: tr.Times[0]}
}

// Size returns the cluster size recorded in the trace.
func (rc *ReplayCluster) Size() int { return rc.trace.N }

// Now returns the replay clock.
func (rc *ReplayCluster) Now() float64 { return rc.now }

// AdvanceTime moves the replay clock forward.
func (rc *ReplayCluster) AdvanceTime(dt float64) {
	if dt < 0 {
		panic("cloud: negative time advance")
	}
	rc.now += dt
	for rc.cur+1 < rc.trace.Len() && rc.trace.Times[rc.cur+1] <= rc.now {
		rc.cur++
	}
}

// Seek jumps the replay clock to absolute time t (forward or backward).
func (rc *ReplayCluster) Seek(t float64) {
	rc.now = t
	rc.cur = rc.trace.At(t)
}

// PairPerf returns the recorded performance at the current replay point.
func (rc *ReplayCluster) PairPerf(i, j int) netmodel.Link {
	return rc.trace.Perfs[rc.cur].Link(i, j)
}
