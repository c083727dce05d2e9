package rpca_test

// Differential oracles for the production solver: the paper's APG solver
// (kept test-only, see apg_test.go) must agree with IALM on the constant
// component, and IALM's constant must be no further from the synthetic
// cluster's ground truth than APG's.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"netconstant/internal/cloud"
	"netconstant/internal/exp"
	"netconstant/internal/mat"
	"netconstant/internal/netmodel"
	"netconstant/internal/rpca"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// plantedTP builds a rows×cols row-constant matrix with sparse multiplicative
// spikes: the paper's TP-matrix model with a known constant row.
func plantedTP(seed int64, rows, cols int, spikeProb float64) *mat.Dense {
	rng := stats.NewRNG(seed)
	row := make([]float64, cols)
	for j := range row {
		row[j] = 20 + 80*rng.Float64()
	}
	a := rpca.ConstantMatrix(row, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < spikeProb {
				a.Set(i, j, a.At(i, j)*(1+3*rng.Float64()))
			}
		}
	}
	return a
}

// solveBoth decomposes a with IALM and with the APG oracle at the same λ.
func solveBoth(t *testing.T, a *mat.Dense, lambda float64) (ialm, apg *rpca.Result) {
	t.Helper()
	ialm, err := rpca.Decompose(a, rpca.Options{Lambda: lambda})
	if err != nil {
		t.Fatal(err)
	}
	apg, err = rpca.DecomposeAPG(a, rpca.Options{Lambda: lambda})
	if err != nil {
		t.Fatal(err)
	}
	return ialm, apg
}

// TestOracleAPGAgreement: IALM and APG extract the same constant row from
// planted rank-1 + sparse inputs and from a real calibration (the
// calibration the retired ext-solvers figure cross-checked: the quick
// profile's 16-VM cluster at seed offset 2300). Median rows must agree to
// 1e-4 relative L1, the figure's printed precision. Mean rows average in
// the residual spread APG leaves in D when it stops at its cap, so they
// get a looser 2e-2.
func TestOracleAPGAgreement(t *testing.T) {
	tols := map[rpca.ExtractMethod]float64{rpca.ExtractMedian: 1e-4, rpca.ExtractMean: 2e-2}
	check := func(name string, a *mat.Dense) {
		ialm, apg := solveBoth(t, a, 1/math.Sqrt(float64(a.Rows())))
		if !ialm.Converged {
			t.Errorf("%s: IALM stopped unconverged after %d iterations", name, ialm.Iterations)
		}
		for _, m := range []rpca.ExtractMethod{rpca.ExtractMedian, rpca.ExtractMean} {
			d := rpca.RelDiff(rpca.ConstantRow(ialm.D, m), rpca.ConstantRow(apg.D, m))
			t.Logf("%s extract=%d: IALM %d iters, APG %d iters (converged %v), rows differ by %.2e",
				name, m, ialm.Iterations, apg.Iterations, apg.Converged, d)
			if d > tols[m] {
				t.Errorf("%s extract=%d: IALM and APG constant rows differ by %.2e > %.0e", name, m, d, tols[m])
			}
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		check(fmt.Sprintf("planted seed %d", seed), plantedTP(seed, 10, 144, 0.08))
	}

	cfg := exp.Quick()
	pc := cloud.ProviderConfig{
		Tree:          topo.TreeConfig{Racks: cfg.Racks, ServersPerRack: cfg.ServersPerRack},
		Seed:          cfg.Seed + 2300,
		MigrationRate: cfg.MigrationRate,
	}
	vc, err := cloud.NewProvider(pc).Provision(cfg.VMs, cfg.Seed+2301)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := cloud.CalibrateTPCtx(context.Background(), vc, stats.NewRNG(cfg.Seed+2302), cfg.TimeStep, 0, cloud.CalibrationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	check("calibration bandwidth", tc.Bandwidth.Matrix())
	check("calibration latency", tc.Latency.Matrix())
}

// TestOracleGroundTruthNoWorseThanAPG pairs the two solvers against the
// synthetic cluster's ground truth. Setup: seeds 1–5; a 16-VM cluster on an
// 8×8 tree with Fig 10's narrowed provider heterogeneity and no
// migrations, so TruePerf is the constant for the whole window; a
// 10-snapshot trace, noise-free and noised by exp.TargetNormE to Norm(N_E)
// 0.05–0.4; latency and bandwidth; mean and median extraction — 120
// paired cases. IALM's mean relative-L1 error against TruePerf must not
// exceed APG's. Single cases may go either way: APG often stops at its
// iteration cap, short of the program's minimizer.
func TestOracleGroundTruthNoWorseThanAPG(t *testing.T) {
	targets := []float64{0.05, 0.1, 0.2, 0.3, 0.4}
	extracts := []rpca.ExtractMethod{rpca.ExtractMean, rpca.ExtractMedian}
	cfg := exp.Quick()
	var sumIALM, sumAPG, worst float64
	var worstCase string
	var cases, wins, solves, apgCapped int
	for seed := int64(1); seed <= 5; seed++ {
		pc := cloud.ProviderConfig{
			Tree:          topo.TreeConfig{Racks: cfg.Racks, ServersPerRack: cfg.ServersPerRack},
			Seed:          seed + 1000,
			VirtFactorMin: 0.55,
			VirtFactorMax: 0.95,
			CrossRackMin:  0.45,
			CrossRackMax:  0.85,
		}
		vc, err := cloud.NewProvider(pc).Provision(cfg.VMs, seed+1001)
		if err != nil {
			t.Fatal(err)
		}
		truth := vc.TruePerf()
		truthLat := netmodel.Vectorize(truth.Latency)
		truthBW := netmodel.Vectorize(truth.Bandwth)
		tr := cloud.Record(vc, float64(cfg.TimeStep-1)*30*60, 30*60)
		traces := []*cloud.Trace{tr}
		rng := stats.NewRNG(seed + 1002)
		for _, target := range targets {
			noisy, _, err := exp.TargetNormE(tr, cfg.TimeStep, target, stats.Split(rng, int64(target*1000)))
			if err != nil {
				t.Fatal(err)
			}
			traces = append(traces, noisy)
		}
		for ti, trc := range traces {
			lat, bw := netmodel.NewTPMatrix(trc.N), netmodel.NewTPMatrix(trc.N)
			for s := 0; s < cfg.TimeStep; s++ {
				lat.Append(trc.Times[s], trc.Perfs[s].Latency)
				bw.Append(trc.Times[s], trc.Perfs[s].Bandwth)
			}
			for _, metric := range []struct {
				name  string
				tp    *netmodel.TPMatrix
				truth []float64
			}{{"latency", lat, truthLat}, {"bandwidth", bw, truthBW}} {
				a := metric.tp.Matrix()
				ialm, apg := solveBoth(t, a, 1/math.Sqrt(float64(a.Rows())))
				solves++
				if !apg.Converged {
					apgCapped++
				}
				for _, m := range extracts {
					ei := rpca.RelDiff(rpca.ConstantRow(ialm.D, m), metric.truth)
					ea := rpca.RelDiff(rpca.ConstantRow(apg.D, m), metric.truth)
					cases++
					sumIALM += ei
					sumAPG += ea
					if ei <= ea {
						wins++
					}
					if ei-ea > worst {
						worst = ei - ea
						worstCase = fmt.Sprintf("seed %d, trace %d, %s, extract=%d: IALM %.4f vs APG %.4f (APG %d iters, converged %v)",
							seed, ti, metric.name, m, ei, ea, apg.Iterations, apg.Converged)
					}
				}
			}
		}
	}
	meanIALM, meanAPG := sumIALM/float64(cases), sumAPG/float64(cases)
	t.Logf("%d cases: mean relative-L1 error vs TruePerf IALM %.4f, APG %.4f; IALM no worse in %d; APG unconverged in %d of %d solves",
		cases, meanIALM, meanAPG, wins, apgCapped, solves)
	t.Logf("worst single case %+.2e: %s", worst, worstCase)
	if cases != 120 {
		t.Fatalf("ran %d cases, want 120", cases)
	}
	if meanIALM > meanAPG {
		t.Errorf("IALM's mean error against ground truth %.4f exceeds APG's %.4f", meanIALM, meanAPG)
	}
}
