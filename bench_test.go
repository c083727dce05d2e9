// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (regenerating its rows at quick scale), plus micro-benchmarks
// of the core algorithms and the ablation studies listed in DESIGN.md.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Per-figure benches report domain metrics via b.ReportMetric (e.g.
// normalized elapsed time, Norm(N_E)) in addition to wall-clock time.
package netconstant_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/exp"
	"netconstant/internal/mat"
	"netconstant/internal/mpi"
	"netconstant/internal/netcoord"
	"netconstant/internal/netmodel"
	"netconstant/internal/rpca"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
	"netconstant/internal/workflow"
)

func benchCfg() exp.Config {
	cfg := exp.Quick()
	cfg.Clock = time.Now // benches report Fig 4's real RPCA wall clock
	return cfg
}

// --- One benchmark per figure -------------------------------------------

func BenchmarkFig04Calibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig4Calibration(benchCfg(), []int{16, 64, 196})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CostSeconds[196]/60, "min@196")
		b.ReportMetric(res.RPCASeconds, "rpca-s@196")
	}
}

func BenchmarkFig05TimeStep(b *testing.B) {
	cfg := benchCfg()
	cfg.VMs = 8
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig5TimeStep(cfg, []int{2, 5, 10, 20})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RelDiff[10], "reldiff@10")
	}
}

func BenchmarkFig06Threshold(b *testing.B) {
	cfg := benchCfg()
	cfg.VMs = 10
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig6Threshold(cfg, []float64{0.1, 1.0, 2.0}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Recalibrations[0.1]), "recals@10%")
	}
}

func BenchmarkFig07Overall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig7Overall(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Normalized[core.RPCA]["broadcast"], "rpca-bcast-norm")
		b.ReportMetric(res.NormE, "NormE")
	}
}

func BenchmarkFig08ClusterSize(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig8ClusterSize(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Improvement[cfg.VMs]["broadcast"], "improve@large")
	}
}

func BenchmarkFig09aCG(b *testing.B) {
	cfg := benchCfg()
	cfg.VMs = 8
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig9aCG(cfg, []int{100, 6400})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Totals["6400"][core.RPCA]/res.Totals["6400"][core.Baseline], "rpca-total-norm")
	}
}

func BenchmarkFig09bNBodySteps(b *testing.B) {
	cfg := benchCfg()
	cfg.VMs = 8
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig9bNBodySteps(cfg, []int{4, 16}, 64)
		if err != nil {
			b.Fatal(err)
		}
		rb := res.Breakdowns["16"]
		b.ReportMetric(rb[core.RPCA].Communication/rb[core.Baseline].Communication, "rpca-comm-norm")
	}
}

func BenchmarkFig09cNBodyMsg(b *testing.B) {
	cfg := benchCfg()
	cfg.VMs = 8
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig9cNBodyMsg(cfg, []float64{1 << 10, 256 << 10}, 8, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10ErrorImpact(b *testing.B) {
	cfg := benchCfg()
	cfg.VMs = 10
	cfg.Runs = 10
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig10ErrorImpact(cfg, []float64{0.05, 0.3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Detailed(b *testing.B) {
	cfg := benchCfg()
	cfg.VMs = 10
	cfg.Runs = 12
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig11Detailed(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.NormE, "NormE")
	}
}

func BenchmarkFig12Background(b *testing.B) {
	cfg := benchCfg()
	cfg.SimVMs = 8
	cfg.TimeStep = 5
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig12Background(cfg, []float64{1, 20}, []float64{10 << 20, 100 << 20})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ByLambda[1], "NormE@lambda1")
	}
}

func BenchmarkFig13Simulation(b *testing.B) {
	cfg := benchCfg()
	cfg.SimVMs = 12
	cfg.Runs = 12
	cfg.TimeStep = 5
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig13Simulation(cfg, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Normalized[core.RPCA]["broadcast"], "rpca-bcast-norm")
	}
}

// --- Core algorithm micro-benchmarks -------------------------------------

// BenchmarkRPCADecompose196 verifies the §V-B claim that one RPCA analysis
// of a 196-instance TP-matrix (10 × 38416) takes well under a minute.
func BenchmarkRPCADecompose196(b *testing.B) {
	rng := stats.NewRNG(1)
	a := mat.RandomNormal(rng, 10, 196*196, 50e6, 5e6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rpca.Decompose(a, rpca.Options{Lambda: 0.316}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPCADecompose64(b *testing.B) {
	rng := stats.NewRNG(2)
	a := mat.RandomNormal(rng, 10, 64*64, 50e6, 5e6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rpca.Decompose(a, rpca.Options{Lambda: 0.316}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecomposeTPCalibrated times one advisor analysis's two solves
// (latency, then bandwidth, on a fresh solver) of a real fault-free
// calibration at 16 and 30 time steps of 32 and 64 VMs — the row counts
// above the paper's 10, where only Fig 5's long prefixes go.
func BenchmarkDecomposeTPCalibrated(b *testing.B) {
	for _, steps := range []int{16, 30} {
		for _, vms := range []int{32, 64} {
			b.Run(fmt.Sprintf("steps%d/vms%d", steps, vms), func(b *testing.B) {
				p := cloud.NewProvider(cloud.ProviderConfig{Tree: topo.TreeConfig{Racks: 16, ServersPerRack: 16}, Seed: 21})
				vc, err := p.Provision(vms, 22)
				if err != nil {
					b.Fatal(err)
				}
				tc, err := cloud.CalibrateTPCtx(context.Background(), vc, stats.NewRNG(23), steps, 5, cloud.CalibrationConfig{})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					solver := rpca.NewSolver()
					for _, tp := range []*netmodel.TPMatrix{tc.Latency, tc.Bandwidth} {
						if _, err := core.DecomposeTPWith(solver, tp, rpca.Options{}, rpca.ExtractMedian); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

func BenchmarkFNFTree196(b *testing.B) {
	rng := stats.NewRNG(3)
	w := mat.Random(rng, 196, 196, 0.01, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mpi.FNFTree(w, 0)
	}
}

func BenchmarkBroadcastAnalytic196(b *testing.B) {
	pm := netmodel.NewPerfMatrix(196)
	for i := 0; i < 196; i++ {
		for j := 0; j < 196; j++ {
			if i != j {
				pm.SetLink(i, j, netmodel.Link{Alpha: 3e-4, Beta: 50e6})
			}
		}
	}
	tree := mpi.BinomialTree(196, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mpi.RunCollective(mpi.NewAnalyticNet(pm), tree, mpi.Broadcast, 8<<20)
	}
}

func BenchmarkSimnetFlows(b *testing.B) {
	tr := topo.NewTree(topo.TreeConfig{Racks: 8, ServersPerRack: 8})
	srv := tr.Servers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := simnetNew(tr)
		for k := 0; k < 64; k++ {
			s.StartFlow(srv[k%len(srv)], srv[(k*7+1)%len(srv)], 1<<20, nil)
		}
		s.Eng.Run()
	}
}

func BenchmarkCalibrate64(b *testing.B) {
	p := cloud.NewProvider(cloud.ProviderConfig{Tree: topo.TreeConfig{Racks: 16, ServersPerRack: 16}, Seed: 1})
	vc, err := p.Provision(64, 2)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cloud.CalibrateTPCtx(context.Background(), vc, rng, 1, 0, cloud.CalibrationConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extended-module benchmarks ------------------------------------------

func BenchmarkHEFTSchedule(b *testing.B) {
	rng := stats.NewRNG(5)
	d := workflowRandomDAG(rng)
	pm := netmodel.NewPerfMatrix(16)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if i != j {
				pm.SetLink(i, j, netmodel.Link{Alpha: 3e-4, Beta: 50e6})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workflow.HEFT(d, 16, 1e9, pm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVivaldiTrain(b *testing.B) {
	rng := stats.NewRNG(6)
	n := 32
	d := mat.Random(rng, n, n, 0.01, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := netcoord.New(n, netcoord.Config{})
		sys.Train(rng, 10000, func(x, y int) float64 { return d.At(x, y) })
	}
}

func BenchmarkTriangleAnalysis64(b *testing.B) {
	rng := stats.NewRNG(7)
	d := mat.Random(rng, 64, 64, 0.01, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		netcoord.AnalyzeTriangles(d)
	}
}

func workflowRandomDAG(rng *rand.Rand) *workflow.DAG {
	return workflow.RandomDAG(rng, 6, 8, 4<<20, 32<<20, 5e8, 2e9)
}
