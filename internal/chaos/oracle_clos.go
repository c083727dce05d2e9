package chaos

// Oracle 5: component-sharded max-min fill vs its oracles on ECMP Clos
// fabrics. A random small Clos fabric from the plan seed carries a
// seeded flow workload; the oracle demands that (a) the sharded
// incremental allocator stays bitwise equal to a whole-network reference
// fill after every event (simnet's own verifyGlobal differential), (b)
// the entire observable outcome — rate fingerprint, component counts,
// ECMP pair statistics, allocator agreement bits — is byte-identical
// across two replays, (c) the max-min invariants hold at the end, and
// (d) a bottleneck-structure fill agrees with progressive filling within
// 1e-9 relative.

import (
	"math"
	"math/rand"

	"netconstant/internal/simnet"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// closAgreementTol bounds the max-min vs bottleneck-structure relative
// rate difference (floating-point noise only; theory says zero).
const closAgreementTol = 1e-9

// closObs captures one sharded-fill run bit-for-bit.
type closObs struct {
	Err         string
	Fingerprint uint64
	Components  int
	Flows       int
	PairsTotal  int
	PairsMulti  int
	AgreeBits   uint64
}

func oracleClos(p Plan) (fails []Failure) {
	const oracle = "clos"
	guard(oracle, &fails, func() {
		var runs [2]closObs
		for i := range runs {
			obs, ofail := shardedClosRun(p)
			fails = append(fails, ofail...)
			runs[i] = obs
			if obs.Err != "" {
				return
			}
		}
		if runs[1] != runs[0] {
			fails = append(fails, failf(oracle,
				"sharded fill not byte-identical across replays:\n  run 0: %+v\n  run 1: %+v",
				runs[0], runs[1]))
		}
	})
	return fails
}

// shardedClosRun drives one seeded workload over a random Clos fabric
// with the differential verifier armed and returns the bit-exact
// observation.
func shardedClosRun(p Plan) (closObs, []Failure) {
	const oracle = "clos"
	var fails []Failure
	rng := rand.New(rand.NewSource(p.Seed + 12000))
	fabric := topo.NewClos(topo.ClosConfig{
		Leaves:         2 + rng.Intn(4),
		ServersPerLeaf: 2 + rng.Intn(3),
		Spines:         2 + rng.Intn(3),
		ServerBps:      1e9 / 8,
	})
	s := simnet.New(fabric)
	s.SetVerifyGlobal(true)
	srv := fabric.Servers()
	for k := 0; k < 60; k++ {
		a := srv[rng.Intn(len(srv))]
		b := srv[rng.Intn(len(srv))]
		if a == b {
			continue
		}
		bytes := math.Pow(10, 5+3*rng.Float64())
		at := rng.Float64() * 2
		aa, bb := a, b
		s.Eng.Schedule(at, func() { s.StartFlow(aa, bb, bytes, nil) })
	}
	for k := 0; k < 3; k++ {
		a := srv[rng.Intn(len(srv))]
		b := srv[(a+1+rng.Intn(len(srv)-1))%len(srv)]
		if a == b {
			continue
		}
		s.AddBackground(stats.NewRNG(p.Seed+12100+int64(k)), a, b, 8<<20, 0.05)
	}
	s.Eng.RunUntil(3)

	var obs closObs
	comps, flows := s.RefillAll()
	obs.Components, obs.Flows = comps, flows
	obs.PairsTotal, obs.PairsMulti = s.ECMPPairs()
	obs.Fingerprint = s.RateFingerprint()
	agree := s.AllocatorAgreement()
	obs.AgreeBits = math.Float64bits(agree)
	if err := s.VerifyError(); err != nil {
		obs.Err = err.Error()
		fails = append(fails, failf(oracle, "sharded fill diverged from whole-network reference: %v", err))
		return obs, fails
	}
	if agree > closAgreementTol {
		fails = append(fails, failf(oracle, "bottleneck-structure fill disagrees with max-min by %g relative (tol %g)", agree, closAgreementTol))
	}
	if s.ActiveFlows() > 0 {
		if err := s.CheckInvariants(); err != nil {
			obs.Err = err.Error()
			fails = append(fails, failf(oracle, "max-min invariants violated on Clos fabric: %v", err))
		}
	}
	if obs.PairsMulti == 0 {
		fails = append(fails, failf(oracle, "workload routed %d pairs but none multipath — fabric not exercising ECMP", obs.PairsTotal))
	}
	return obs, fails
}
