package chaos

// Oracle 4: a streaming partial re-solve is a batch analysis of the
// edited calibration. A calibrated advisor opens a streaming session,
// takes seeded pair re-measurements, and sustained sub-threshold
// divergence must trigger a partial re-solve — never a full
// re-calibration — that installs, bit for bit, the constant matrices and
// Norm(N_E) core.DecomposeTP gives on copies of the calibration's
// TP-matrices edited at the streamed pairs. The whole sequence must also
// be bit-for-bit deterministic across identical runs.

import (
	"context"
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

// streamedPair is one re-measured pair: its latency and bandwidth series,
// one sample per calibration step.
type streamedPair struct {
	src, dst int
	lat, bw  []float64
}

// streamedCalibration runs one full streaming sequence: calibrate, open a
// session, stream seeded pair re-measurements, force the regime detector
// to trigger a partial re-solve, and compare what it installed with a
// batch analysis of the edited calibration.
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
	acfg := core.AdvisorConfig{TimeStep: cfg.TimeStep}
	adv := core.NewAdvisor(vc, stats.NewRNG(p.Seed+11002), acfg)
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		return streamObs{Err: err.Error()}, []Failure{failf(oracle, "calibrate: %v", err)}
	}
	if err := adv.BeginStreamingCtx(context.Background()); err != nil {
		return streamObs{Err: err.Error()}, []Failure{failf(oracle, "begin streaming: %v", err)}
	}

	// Stream seeded pair re-measurements: a few pairs move to a different
	// performance regime, with spiky contamination — the workload shape
	// the sparse component exists to absorb.
	rng := stats.NewRNG(p.Seed + 11003)
	tc := adv.LastCalibration()
	rows := tc.Latency.Steps()
	var pairs []streamedPair
	for k := 0; k < 3; k++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			dst = (dst + 1) % n
		}
		sp := streamedPair{src: src, dst: dst, lat: make([]float64, rows), bw: make([]float64, rows)}
		baseLat := 1e-4 * (1 + 5*rng.Float64())
		baseBw := 1e7 * (1 + 2*rng.Float64())
		for i := range sp.lat {
			sp.lat[i] = baseLat
			sp.bw[i] = baseBw
			if rng.Float64() < 0.2 { // transient contention spike
				sp.lat[i] *= 1 + 4*rng.Float64()
				sp.bw[i] /= 1 + 4*rng.Float64()
			}
		}
		if err := adv.StreamPair(src, dst, sp.lat, sp.bw); err != nil {
			fails = append(fails, failf(oracle, "stream pair (%d,%d): %v", src, dst, err))
			return streamObs{Err: err.Error()}, fails
		}
		pairs = append(pairs, sp)
	}

	// Sustained sub-threshold divergence must trigger a partial re-solve,
	// never a full re-calibration.
	calsBefore := adv.Calibrations()
	triggered := false
	for i := 0; i < 12 && !triggered; i++ {
		triggered, err = adv.ObserveCtx(context.Background(), 1.0, 1.8)
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

	// The re-solve must have installed, bit for bit, the batch analysis of
	// the calibration edited through its snapshots, so each pair's column
	// is wherever netmodel's vectorization puts (src, dst). Head(0) is an
	// empty TP-matrix of the same cluster.
	latTP, bwTP := tc.Latency.Head(0), tc.Bandwidth.Head(0)
	for s := 0; s < rows; s++ {
		lat, bw := tc.Latency.Snapshot(s), tc.Bandwidth.Snapshot(s)
		for _, sp := range pairs {
			lat.Set(sp.src, sp.dst, sp.lat[s])
			bw.Set(sp.src, sp.dst, sp.bw[s])
		}
		latTP.Append(tc.Latency.Times[s], lat)
		bwTP.Append(tc.Bandwidth.Times[s], bw)
	}
	latD, err := core.DecomposeTP(latTP, rpca.Options{}, acfg.Extract)
	if err != nil {
		fails = append(fails, failf(oracle, "batch latency analysis: %v", err))
		return streamObs{Err: err.Error()}, fails
	}
	bwD, err := core.DecomposeTP(bwTP, rpca.Options{}, acfg.Extract)
	if err != nil {
		fails = append(fails, failf(oracle, "batch bandwidth analysis: %v", err))
		return streamObs{Err: err.Error()}, fails
	}
	constant := adv.Constant()
	want := core.PerfFromRows(n, latD.ConstantRow, bwD.ConstantRow)
	for _, m := range []struct {
		name      string
		got, want []float64
	}{
		{"latency", constant.Latency.Data(), want.Latency.Data()},
		{"bandwidth", constant.Bandwth.Data(), want.Bandwth.Data()},
	} {
		for i := range m.want {
			if math.Float64bits(m.got[i]) != math.Float64bits(m.want[i]) {
				fails = append(fails, failf(oracle, "partial re-solve %s constant[%d] = %v, batch analysis of the edited calibration %v",
					m.name, i, m.got[i], m.want[i]))
				break
			}
		}
	}
	if math.Float64bits(adv.NormE()) != math.Float64bits(bwD.NormE) {
		fails = append(fails, failf(oracle, "partial re-solve Norm(N_E) %v, batch analysis of the edited calibration %v",
			adv.NormE(), bwD.NormE))
	}

	var fold uint64
	for _, d := range [][]float64{constant.Latency.Data(), constant.Bandwth.Data()} {
		for _, v := range d {
			fold = fold*0x100000001b3 ^ math.Float64bits(v)
		}
	}
	return streamObs{
		PartialResolves: adv.PartialResolves(),
		Calibrations:    adv.Calibrations(),
		NormEBits:       math.Float64bits(adv.NormE()),
		ConstFold:       fold,
	}, fails
}
