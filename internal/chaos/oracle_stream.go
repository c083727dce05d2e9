package chaos

// Oracle 4: streaming decomposition vs batch differential oracle. The
// streaming RPCA path (core.Advisor.BeginStreaming + rpca.StreamingSolver)
// promises that its resolved state equals a cold batch IALM run over the
// identical matrices exactly — first on the very trace the batch path
// analyzed, then again after re-measured pair columns and a
// regime-triggered partial re-solve. The whole sequence, agreement
// numbers included, must also be bit-for-bit deterministic across
// identical runs.

import (
	"math"

	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/exp"
	"netconstant/internal/rpca"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// streamObs captures one streaming run bit-for-bit for the determinism
// comparison.
type streamObs struct {
	Err             string
	PartialResolves int
	Calibrations    int
	LatDBits        uint64 // lat agreement RelFroD after the partial re-solve
	BwDBits         uint64
	NormEBits       uint64
	ConstFold       uint64 // order-fixed fold over the constant matrices
}

func oracleStream(p Plan) (fails []Failure) {
	const oracle = "stream"
	guard(oracle, &fails, func() {
		first, ffail := streamedCalibration(p)
		fails = append(fails, ffail...)
		if first.Err == "" {
			second, sfail := streamedCalibration(p)
			fails = append(fails, sfail...)
			if first != second {
				fails = append(fails, failf(oracle, "nondeterministic streaming:\n  run 1: %+v\n  run 2: %+v", first, second))
			}
		}
	})
	return fails
}

// streamedCalibration runs one full streaming sequence: calibrate, open a
// session, verify against the batch oracle, stream seeded pair
// re-measurements, force the regime detector to trigger a partial
// re-solve, and verify again.
func streamedCalibration(p Plan) (streamObs, []Failure) {
	const oracle = "stream"
	var fails []Failure
	cfg := exp.Quick()
	n := cfg.SmallVMs

	prov := cloud.NewProvider(cloud.ProviderConfig{
		Tree: topo.TreeConfig{Racks: cfg.Racks, ServersPerRack: cfg.ServersPerRack},
		Seed: p.Seed + 11000,
	})
	vc, err := prov.Provision(n, p.Seed+11001)
	if err != nil {
		return streamObs{Err: err.Error()}, []Failure{failf(oracle, "provision: %v", err)}
	}
	adv := core.NewAdvisor(vc, stats.NewRNG(p.Seed+11002), core.AdvisorConfig{
		TimeStep: cfg.TimeStep,
	})
	if err := adv.Calibrate(); err != nil {
		return streamObs{Err: err.Error()}, []Failure{failf(oracle, "calibrate: %v", err)}
	}
	if err := adv.BeginStreaming(); err != nil {
		return streamObs{Err: err.Error()}, []Failure{failf(oracle, "begin streaming: %v", err)}
	}

	// Agreement on the very trace the batch path saw.
	checkAgreement := func(stage string) (lat, bw rpca.StreamAgreement, fatal bool) {
		lat, bw, err := adv.VerifyStreaming()
		if err != nil {
			fails = append(fails, failf(oracle, "%s: verify: %v", stage, err))
			return lat, bw, true
		}
		for _, c := range []struct {
			name string
			rel  float64
		}{
			{"latency D", lat.RelFroD}, {"latency E", lat.RelFroE}, {"latency constant", lat.ConstantRel},
			{"bandwidth D", bw.RelFroD}, {"bandwidth E", bw.RelFroE}, {"bandwidth constant", bw.ConstantRel},
		} {
			if !(c.rel == 0) { // a NaN fails too
				fails = append(fails, failf(oracle, "%s: %s streaming-vs-batch disagreement %.3e (want 0)",
					stage, c.name, c.rel))
			}
		}
		return lat, bw, false
	}
	if _, _, fatal := checkAgreement("seeded trace"); fatal {
		return streamObs{Err: "verify failed"}, fails
	}

	// Stream seeded pair re-measurements: a few pairs move to a different
	// performance regime, with spiky contamination — the workload shape
	// the sparse component exists to absorb.
	rng := stats.NewRNG(p.Seed + 11003)
	rows := adv.LastCalibration().Latency.Steps()
	for k := 0; k < 3; k++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			dst = (dst + 1) % n
		}
		lat := make([]float64, rows)
		bw := make([]float64, rows)
		baseLat := 1e-4 * (1 + 5*rng.Float64())
		baseBw := 1e7 * (1 + 2*rng.Float64())
		for i := range lat {
			lat[i] = baseLat
			bw[i] = baseBw
			if rng.Float64() < 0.2 { // transient contention spike
				lat[i] *= 1 + 4*rng.Float64()
				bw[i] /= 1 + 4*rng.Float64()
			}
		}
		if err := adv.StreamPair(src, dst, lat, bw); err != nil {
			fails = append(fails, failf(oracle, "stream pair (%d,%d): %v", src, dst, err))
			return streamObs{Err: err.Error()}, fails
		}
	}

	// Sustained sub-threshold divergence must trigger a partial re-solve,
	// never a full re-calibration, and the re-solve must converge back to
	// the batch answer on the updated matrices.
	calsBefore := adv.Calibrations()
	triggered := false
	for i := 0; i < 12 && !triggered; i++ {
		triggered, err = adv.Observe(1.0, 1.8)
		if err != nil {
			fails = append(fails, failf(oracle, "observe: %v", err))
			return streamObs{Err: err.Error()}, fails
		}
	}
	if !triggered {
		fails = append(fails, failf(oracle, "regime detector never triggered on sustained divergence"))
	}
	if adv.PartialResolves() == 0 {
		fails = append(fails, failf(oracle, "regime trigger did not run a partial re-solve"))
	}
	if adv.Calibrations() != calsBefore {
		fails = append(fails, failf(oracle, "regime trigger escalated to a full calibration"))
	}
	if !adv.StreamingActive() {
		fails = append(fails, failf(oracle, "partial re-solve closed the streaming session"))
	}
	lat, bw, fatal := checkAgreement("after partial re-solve")
	if fatal {
		return streamObs{Err: "verify failed"}, fails
	}

	constant := adv.Constant()
	var fold uint64
	for _, d := range [][]float64{constant.Latency.Data(), constant.Bandwth.Data()} {
		for _, v := range d {
			fold = fold*0x100000001b3 ^ math.Float64bits(v)
		}
	}
	return streamObs{
		PartialResolves: adv.PartialResolves(),
		Calibrations:    adv.Calibrations(),
		LatDBits:        math.Float64bits(lat.RelFroD),
		BwDBits:         math.Float64bits(bw.RelFroD),
		NormEBits:       math.Float64bits(adv.NormE()),
		ConstFold:       fold,
	}, fails
}
