// Ablation benchmarks for the design choices called out in DESIGN.md §5.
// Each reports the design-relevant metric via b.ReportMetric so the
// trade-off is visible in the bench output, not just wall-clock time.
package netconstant_test

import (
	"testing"

	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/mat"
	"netconstant/internal/netmodel"
	"netconstant/internal/rpca"
	"netconstant/internal/simnet"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// simnetNew is shared with bench_test.go.
func simnetNew(t *topo.Topology) *simnet.Sim { return simnet.New(t) }

// ablationTP builds a TP-matrix with known ground truth for recovery
// comparisons: constant row + volatility + sparse spikes.
func ablationTP(seed int64, steps, n int) (*netmodel.TPMatrix, []float64) {
	rng := stats.NewRNG(seed)
	truth := make([]float64, n*n)
	for j := range truth {
		truth[j] = 10e6 + 90e6*rng.Float64()
	}
	tp := netmodel.NewTPMatrix(n)
	for s := 0; s < steps; s++ {
		snap := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				v := truth[i*n+j] * (1 + 0.04*rng.NormFloat64())
				if rng.Float64() < 0.06 {
					v /= 1 + 2*rng.Float64()
				}
				snap.Set(i, j, v)
			}
		}
		tp.Append(float64(s), snap)
	}
	// Zero the diagonal of the truth for a fair comparison.
	for i := 0; i < n; i++ {
		truth[i*n+i] = 0
	}
	return tp, truth
}

// BenchmarkAblationRank1 compares the three constant-row extraction
// methods (DESIGN.md: rank-1 SVD truncation vs row consensus mean/median)
// on recovery error against ground truth.
func BenchmarkAblationRank1(b *testing.B) {
	methods := map[string]rpca.ExtractMethod{
		"median": rpca.ExtractMedian,
		"mean":   rpca.ExtractMean,
		"rank1":  rpca.ExtractRank1,
	}
	for name, m := range methods {
		b.Run(name, func(b *testing.B) {
			var errSum float64
			for i := 0; i < b.N; i++ {
				tp, truth := ablationTP(int64(i), 10, 12)
				d, err := core.DecomposeTP(tp, rpca.Options{}, m)
				if err != nil {
					b.Fatal(err)
				}
				errSum += rpca.RelDiff(d.ConstantRow, truth)
			}
			b.ReportMetric(errSum/float64(b.N), "reldiff")
		})
	}
}

// BenchmarkAblationNorms compares the L0(ε)/L1/Frobenius variants of the
// effectiveness metric on the same decomposition.
func BenchmarkAblationNorms(b *testing.B) {
	tp, _ := ablationTP(1, 10, 12)
	a := tp.Matrix()
	res, err := rpca.Decompose(a, rpca.Options{Lambda: 0.316})
	if err != nil {
		b.Fatal(err)
	}
	row := rpca.ConstantRow(res.D, rpca.ExtractMedian)
	nd := mat.NewDense(a.Rows(), len(row))
	for i := 0; i < a.Rows(); i++ {
		copy(nd.Row(i), row)
	}
	ne := a.Sub(nd)
	norms := map[string]rpca.Norm{"l0": rpca.NormL0, "l1": rpca.NormL1, "fro": rpca.NormFro}
	for name, nm := range norms {
		b.Run(name, func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = rpca.RelNorm(ne, a, nm, 0)
			}
			b.ReportMetric(v, "NormE")
		})
	}
}

// BenchmarkAblationHeuristics compares the direct-use estimator family
// (mean/min/EWMA) the paper says behaves similarly (§V-A) on recovery
// error.
func BenchmarkAblationHeuristics(b *testing.B) {
	kinds := map[string]core.HeuristicKind{
		"mean": core.HeuristicMean,
		"min":  core.HeuristicMin,
		"ewma": core.HeuristicEWMA,
	}
	for name, k := range kinds {
		b.Run(name, func(b *testing.B) {
			var errSum float64
			for i := 0; i < b.N; i++ {
				tp, truth := ablationTP(int64(i), 10, 12)
				row := core.HeuristicRow(tp, k, true)
				errSum += rpca.RelDiff(row, truth)
			}
			b.ReportMetric(errSum/float64(b.N), "reldiff")
		})
	}
}

// BenchmarkAblationPairing compares the paired N/2-at-a-time calibration
// schedule against sequential pair-by-pair measurement (paper §IV-B),
// reporting cluster-time cost.
func BenchmarkAblationPairing(b *testing.B) {
	modes := map[string]bool{"paired": false, "sequential": true}
	for name, seq := range modes {
		b.Run(name, func(b *testing.B) {
			p := cloud.NewProvider(cloud.ProviderConfig{Tree: topo.TreeConfig{Racks: 8, ServersPerRack: 8}, Seed: 1})
			vc, err := p.Provision(16, 2)
			if err != nil {
				b.Fatal(err)
			}
			rng := stats.NewRNG(3)
			var cost float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cost = cloud.CalibrateTP(vc, rng, 1, 0, cloud.CalibrationConfig{Sequential: seq}).TotalCost
			}
			b.ReportMetric(cost, "cluster-s")
		})
	}
}

// BenchmarkAblationLambda sweeps the RPCA sparsity weight, reporting
// recovery error — the motivation for the 1/sqrt(rows) default on fat
// TP-matrices (DESIGN.md §5).
func BenchmarkAblationLambda(b *testing.B) {
	for _, lam := range []float64{0.0625, 0.158, 0.316, 0.632} {
		b.Run(floatName(lam), func(b *testing.B) {
			var errSum float64
			for i := 0; i < b.N; i++ {
				tp, truth := ablationTP(int64(i), 10, 12)
				d, err := core.DecomposeTP(tp, rpca.Options{Lambda: lam}, rpca.ExtractMedian)
				if err != nil {
					b.Fatal(err)
				}
				errSum += rpca.RelDiff(d.ConstantRow, truth)
			}
			b.ReportMetric(errSum/float64(b.N), "reldiff")
		})
	}
}

func floatName(v float64) string {
	switch {
	case v < 0.1:
		return "lam=0.0625"
	case v < 0.2:
		return "lam=0.158"
	case v < 0.4:
		return "lam=0.316"
	default:
		return "lam=0.632"
	}
}
