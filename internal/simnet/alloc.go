package simnet

// Oracles and benchmark hooks around the component-sharded fill: the
// whole-network differential verifier, whole-network refills, rate
// fingerprints for byte-identity checks, and the bottleneck-structure
// agreement check.

import (
	"math"
	"sort"

	"netconstant/internal/topo"
)

// SetVerifyGlobal arms (or disarms) the differential oracle: after every
// allocation update, an incremental fill or a quiet-departure restore,
// every active flow's rate is re-derived with a fresh whole-network fill
// and the first bitwise mismatch is recorded (see VerifyError).
// Quadratic — tests only.
func (s *Sim) SetVerifyGlobal(on bool) bool {
	prev := s.verifyGlobal
	s.verifyGlobal = on
	return prev
}

// VerifyError returns the first differential-oracle mismatch, or nil.
func (s *Sim) VerifyError() error { return s.verifyErr }

// RefillAll recomputes every active flow's allocation from scratch by
// seeding the recompute with every occupied link. The result bit-equals
// the standing rates, so unchanged flows keep their completion timers
// and simulation state is undisturbed — which makes RefillAll repeatable
// for benchmarking the fill itself. It returns the dirty-subgraph shape
// of the refill: the number of connected components and of active flows
// visited.
func (s *Sim) RefillAll() (components, flows int) {
	s.allSeeds = s.allSeeds[:0]
	for i, fl := range s.linkFlows {
		if len(fl) > 0 {
			s.allSeeds = append(s.allSeeds, topo.LinkID(i))
		}
	}
	s.recompute(s.allSeeds)
	return len(s.comps), len(s.dirtyFlows)
}

// RateFingerprint folds every active flow's ID and exact rate bits into
// one 64-bit hash, in flow-ID order. Two simulators (or two runs) with
// byte-identical allocations produce equal fingerprints; a single ulp of
// divergence changes the value. Used by the byte-identity gates in the
// benchmarks and chaos oracles.
func (s *Sim) RateFingerprint() uint64 {
	ids := make([]int64, 0, len(s.active))
	for id := range s.active {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := uint64(0x243f6a8885a308d3)
	for _, id := range ids {
		h = mix64(h ^ uint64(id))
		h = mix64(h ^ math.Float64bits(s.active[id].rate))
	}
	return h
}

// bottleneckRates computes a whole-network bottleneck-structure fill
// (after Ros-Giralt et al.) from scratch and returns the per-flow rates
// without touching simulator state. Each round freezes every link at the
// current minimum fair share instead of one, so its rounding may differ
// from progressive filling by ulps — the second side of
// AllocatorAgreement, compared within tolerance, never bit for bit.
func (s *Sim) bottleneckRates() map[int64]float64 {
	capLeft := make([]float64, len(s.linkFlows))
	nUnfix := make([]int, len(s.linkFlows))
	occupied := make([]topo.LinkID, 0, len(s.linkFlows))
	for i, flows := range s.linkFlows {
		if len(flows) == 0 {
			continue
		}
		id := topo.LinkID(i)
		occupied = append(occupied, id)
		capLeft[i] = s.Topo.Link(id).Capacity
		nUnfix[i] = len(flows)
	}
	rates := make(map[int64]float64, len(s.active))
	remaining := len(s.active)
	level := make([]topo.LinkID, 0, len(occupied))
	for remaining > 0 {
		minShare := math.Inf(1)
		for _, l := range occupied {
			if nUnfix[l] == 0 {
				continue
			}
			if share := capLeft[l] / float64(nUnfix[l]); share < minShare {
				minShare = share
			}
		}
		if math.IsInf(minShare, 1) {
			for id := range s.active {
				if _, done := rates[id]; !done {
					rates[id] = math.Inf(1)
				}
			}
			return rates
		}
		level = level[:0]
		for _, l := range occupied {
			if nUnfix[l] > 0 && capLeft[l]/float64(nUnfix[l]) == minShare {
				level = append(level, l)
			}
		}
		for _, l := range level {
			for _, f := range s.linkFlows[l] {
				if _, done := rates[f.ID]; done {
					continue
				}
				rates[f.ID] = minShare
				remaining--
				for _, pl := range f.path {
					capLeft[pl] -= minShare
					if capLeft[pl] < 0 {
						capLeft[pl] = 0
					}
					nUnfix[pl]--
				}
			}
		}
	}
	return rates
}

// AllocatorAgreement recomputes the current allocation from scratch two
// ways — progressive-filling max-min and bottleneck-structure — and
// returns the maximum relative per-flow rate difference, without
// touching simulator state. Theory says the two compute the same
// allocation; the observed value is floating-point rounding skew
// (typically well under 1e-12, asserted ≤1e-9 by the differential
// tests).
func (s *Sim) AllocatorAgreement() float64 {
	ref := s.referenceRates()
	bs := s.bottleneckRates()
	ids := make([]int64, 0, len(ref))
	for id := range ref {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var maxRel float64
	for _, id := range ids {
		a, b := ref[id], bs[id]
		if math.IsInf(a, 1) && math.IsInf(b, 1) {
			continue
		}
		d := math.Abs(a - b)
		if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
			d /= m
		}
		if d > maxRel {
			maxRel = d
		}
	}
	return maxRel
}
