package core

import (
	"context"
	"math"
	"testing"

	"netconstant/internal/cloud"
	"netconstant/internal/mat"
	"netconstant/internal/mpi"
	"netconstant/internal/netmodel"
	"netconstant/internal/rpca"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

func testCluster(t *testing.T, n int, seed int64) (*cloud.Provider, *cloud.VirtualCluster) {
	t.Helper()
	p := cloud.NewProvider(cloud.ProviderConfig{
		Tree: topo.TreeConfig{Racks: 4, ServersPerRack: 8},
		Seed: seed,
	})
	vc, err := p.Provision(n, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return p, vc
}

func TestStrategyStrings(t *testing.T) {
	for s, want := range map[Strategy]string{
		Baseline: "Baseline", Heuristics: "Heuristics", RPCA: "RPCA", TopologyAware: "Topology-aware",
	} {
		if s.String() != want {
			t.Errorf("%d -> %s", s, s.String())
		}
	}
	if Strategy(9).String() == "" || HeuristicKind(9).String() == "" {
		t.Error("unknown strings")
	}
	for k, want := range map[HeuristicKind]string{HeuristicMean: "mean", HeuristicMin: "min", HeuristicEWMA: "ewma"} {
		if k.String() != want {
			t.Errorf("kind %v", k)
		}
	}
}

func TestHeuristicRow(t *testing.T) {
	tp := netmodel.NewTPMatrix(1)
	tp.Append(0, mat.FromRows([][]float64{{2}}))
	tp.Append(1, mat.FromRows([][]float64{{6}}))
	if got := HeuristicRow(tp, HeuristicMean, true)[0]; got != 4 {
		t.Errorf("mean %v", got)
	}
	if got := HeuristicRow(tp, HeuristicMin, true)[0]; got != 6 {
		t.Errorf("min (bigger better) %v", got)
	}
	if got := HeuristicRow(tp, HeuristicMin, false)[0]; got != 2 {
		t.Errorf("min (smaller better) %v", got)
	}
	ewma := HeuristicRow(tp, HeuristicEWMA, true)[0]
	if math.Abs(ewma-(0.3*6+0.7*2)) > 1e-12 {
		t.Errorf("ewma %v", ewma)
	}
	if HeuristicRow(netmodel.NewTPMatrix(1), HeuristicMean, true)[0] != 0 {
		t.Error("empty TP heuristic")
	}
}

func TestGradeEffectiveness(t *testing.T) {
	if GradeEffectiveness(0.1) != Effective || GradeEffectiveness(0.3) != Moderate || GradeEffectiveness(0.7) != Marginal {
		t.Error("grading")
	}
	if Effective.String() != "effective" || Moderate.String() != "moderate" || Marginal.String() != "marginal" {
		t.Error("strings")
	}
}

func TestAdvisorCalibrateAndRecover(t *testing.T) {
	_, vc := testCluster(t, 8, 10)
	rng := stats.NewRNG(1)
	adv := NewAdvisor(vc, rng, AdvisorConfig{})
	if adv.Constant() != nil {
		t.Error("constant before calibration")
	}
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if adv.Calibrations() != 1 {
		t.Error("calibration count")
	}
	if adv.CalibrationCost() <= 0 {
		t.Error("cost")
	}
	if adv.LastCalibration() == nil {
		t.Error("last calibration")
	}

	// The constant component should approximate the ground truth well —
	// much better than a single noisy snapshot would.
	truth := vc.TruePerf()
	con := adv.Constant()
	var relErr float64
	count := 0
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i == j {
				continue
			}
			tb := truth.Bandwth.At(i, j)
			cb := con.Bandwth.At(i, j)
			relErr += math.Abs(cb-tb) / tb
			count++
		}
	}
	relErr /= float64(count)
	if relErr > 0.10 {
		t.Errorf("constant component mean rel error %.3f vs ground truth", relErr)
	}

	// NormE should land in the stable band for default dynamics (EC2-like
	// ≈ 0.1 per the paper).
	if adv.NormE() <= 0 || adv.NormE() > 0.35 {
		t.Errorf("NormE %.3f outside plausible band", adv.NormE())
	}
	if adv.Effectiveness() == Marginal {
		t.Error("default dynamics should not be graded marginal")
	}
}

func TestAdvisorGuidanceAndTrees(t *testing.T) {
	p, vc := testCluster(t, 8, 20)
	rng := stats.NewRNG(2)
	adv := NewAdvisor(vc, rng, AdvisorConfig{})
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if adv.GuidancePerf(RPCA) == nil || adv.GuidancePerf(Heuristics) == nil {
		t.Fatal("guidance matrices missing")
	}
	if adv.GuidancePerf(Baseline) != nil || adv.GuidancePerf(TopologyAware) != nil {
		t.Error("non-measurement strategies should have nil guidance")
	}
	msg := 8.0 * (1 << 20)
	for _, s := range []Strategy{Baseline, Heuristics, RPCA, TopologyAware} {
		tr := adv.PlanTree(s, 0, msg, p.Topo, vc.Hosts)
		if err := tr.Validate(); err != nil {
			t.Errorf("%v tree invalid: %v", s, err)
		}
	}
	// TopologyAware without topology info degrades to binomial.
	tr := adv.PlanTree(TopologyAware, 0, msg, nil, nil)
	bin := mpi.BinomialTree(8, 0)
	for i := range tr.Parent {
		if tr.Parent[i] != bin.Parent[i] {
			t.Error("fallback should be binomial")
			break
		}
	}
}

func TestAdvisorExpectedTimeAndObserve(t *testing.T) {
	_, vc := testCluster(t, 6, 30)
	rng := stats.NewRNG(3)
	adv := NewAdvisor(vc, rng, AdvisorConfig{Threshold: 0.5})
	if !math.IsNaN(adv.ExpectedTime(mpi.BinomialTree(6, 0), mpi.Broadcast, 100)) {
		t.Error("expected time before calibration should be NaN")
	}
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	tr := adv.PlanTree(RPCA, 0, 1<<20, nil, nil)
	exp := adv.ExpectedTime(tr, mpi.Broadcast, 1<<20)
	if exp <= 0 {
		t.Fatalf("expected time %v", exp)
	}
	// Within threshold: no recalibration.
	trig, err := adv.ObserveCtx(context.Background(), exp, exp*1.2)
	if err != nil || trig {
		t.Error("should not trigger at 20% difference")
	}
	// Beyond threshold: recalibrates.
	trig, err = adv.ObserveCtx(context.Background(), exp, exp*2)
	if err != nil {
		t.Fatal(err)
	}
	if !trig || adv.Recalibrations() != 1 || adv.Calibrations() != 2 {
		t.Errorf("trigger=%v recal=%d cal=%d", trig, adv.Recalibrations(), adv.Calibrations())
	}
	// Degenerate expected values are ignored.
	if trig, _ := adv.ObserveCtx(context.Background(), 0, 5); trig {
		t.Error("zero expected should not trigger")
	}
	if trig, _ := adv.ObserveCtx(context.Background(), math.NaN(), 5); trig {
		t.Error("NaN expected should not trigger")
	}
}

func TestAdvisorRPCABeatsHeuristicsOnSpikyData(t *testing.T) {
	// Construct a replay trace with heavy sparse spikes: the column mean is
	// polluted, the RPCA constant is not.
	_, vc := testCluster(t, 8, 40)
	tr := cloud.Record(vc, 9*60, 60) // 10 snapshots
	rng := stats.NewRNG(4)
	tr.InjectNoise(rng, 0, 0.25, 4) // strong sparse spikes
	truth := vc.TruePerf()

	rc := cloud.NewReplay(tr)
	tc := cloud.SnapshotTP(rc, 10, 60)
	adv := NewAdvisor(rc, stats.NewRNG(5), AdvisorConfig{})
	if err := adv.AnalyzeCalibrationCtx(context.Background(), tc); err != nil {
		t.Fatal(err)
	}
	errOf := func(pm *netmodel.PerfMatrix) float64 {
		var e float64
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if i != j {
					e += math.Abs(pm.Bandwth.At(i, j)-truth.Bandwth.At(i, j)) / truth.Bandwth.At(i, j)
				}
			}
		}
		return e
	}
	rpcaErr := errOf(adv.Constant())
	heurErr := errOf(adv.HeuristicPerf())
	if rpcaErr >= heurErr {
		t.Errorf("RPCA error %.3f should beat heuristics %.3f under sparse spikes", rpcaErr, heurErr)
	}
}

func TestTimeStepAccuracyDecreases(t *testing.T) {
	// Fig 5 shape: more calibration rows → smaller relative difference to
	// the oracle.
	_, vc := testCluster(t, 6, 50)
	tc := cloud.SnapshotTP(vc, 20, 60)
	acc, err := TimeStepAccuracy(tc.Bandwidth, []int{2, 5, 10, 20}, rpca.Options{}, rpca.ExtractMean)
	if err != nil {
		t.Fatal(err)
	}
	if acc[20] > acc[2] {
		t.Errorf("accuracy should improve with time step: %v", acc)
	}
	if acc[20] > 1e-6 {
		t.Errorf("full-matrix prediction should match oracle, got %v", acc[20])
	}
	if _, err := TimeStepAccuracy(tc.Bandwidth, []int{0}, rpca.Options{}, rpca.ExtractMean); err == nil {
		t.Error("time step 0 should error")
	}
	if _, err := TimeStepAccuracy(tc.Bandwidth, []int{99}, rpca.Options{}, rpca.ExtractMean); err == nil {
		t.Error("time step beyond rows should error")
	}
}

func TestWeightsTP(t *testing.T) {
	lat := netmodel.NewTPMatrix(2)
	bw := netmodel.NewTPMatrix(2)
	l := mat.NewDense(2, 2)
	l.Set(0, 1, 1)
	b := mat.NewDense(2, 2)
	b.Set(0, 1, 10)
	lat.Append(0, l)
	bw.Append(0, b)
	w := WeightsTP(lat, bw, 100)
	if got := w.Snapshot(0).At(0, 1); math.Abs(got-11) > 1e-12 {
		t.Errorf("weight %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatch should panic")
		}
	}()
	WeightsTP(lat, netmodel.NewTPMatrix(3), 100)
}

func TestDecomposeTPEmptyErrors(t *testing.T) {
	if _, err := DecomposeTP(netmodel.NewTPMatrix(2), rpca.Options{}, rpca.ExtractMean); err == nil {
		t.Error("empty TP should error")
	}
}

// TestAdvisorSeedRobustness: the recovered constant beats the single worst
// snapshot for several independent clusters — the paper's core premise
// should not depend on a lucky seed.
func TestAdvisorSeedRobustness(t *testing.T) {
	for _, seed := range []int64{100, 200, 300} {
		_, vc := testCluster(t, 8, seed)
		adv := NewAdvisor(vc, stats.NewRNG(seed+1), AdvisorConfig{})
		if err := adv.CalibrateCtx(context.Background()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		truth := vc.TruePerf()
		var rpcaErr float64
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if i != j {
					tb := truth.Bandwth.At(i, j)
					rpcaErr += math.Abs(adv.Constant().Bandwth.At(i, j)-tb) / tb
				}
			}
		}
		rpcaErr /= 56
		if rpcaErr > 0.12 {
			t.Errorf("seed %d: constant recovery error %.3f", seed, rpcaErr)
		}
	}
}

// TestAdvisorAnalysesConverge: at the benchmark's tenant shapes (32 and
// 64 VMs on a 16×16 tree, 10 calibration steps 5 s apart) every analysis
// reaches the solver tolerance, so Health().Converged means what it says.
func TestAdvisorAnalysesConverge(t *testing.T) {
	for _, vms := range []int{32, 64} {
		for seed := int64(1); seed <= 16; seed++ {
			p := cloud.NewProvider(cloud.ProviderConfig{Tree: topo.TreeConfig{Racks: 16, ServersPerRack: 16}, Seed: seed})
			vc, err := p.Provision(vms, seed+1)
			if err != nil {
				t.Fatal(err)
			}
			adv := NewAdvisor(vc, stats.NewRNG(seed+2), AdvisorConfig{TimeStep: 10, Gap: 5})
			if err := adv.CalibrateCtx(context.Background()); err != nil {
				t.Fatalf("%d VMs, seed %d: %v", vms, seed, err)
			}
			if !adv.Health().Converged {
				t.Errorf("%d VMs, seed %d: analysis stopped at the iteration cap", vms, seed)
			}
		}
	}
}

// TestAdvisorRecalibratorHook: an installed recalibrator owns every
// Observe-triggered full calibration (the daemon's memo/journal path),
// and clearing it restores the direct CalibrateCtx route.
func TestAdvisorRecalibratorHook(t *testing.T) {
	_, vc := testCluster(t, 6, 31)
	adv := NewAdvisor(vc, stats.NewRNG(4), AdvisorConfig{Threshold: 0.5})
	if err := adv.CalibrateCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	calsBefore := adv.Calibrations()
	hooked := 0
	adv.SetRecalibrator(func(ctx context.Context) error {
		hooked++
		return nil
	})
	tr := adv.PlanTree(RPCA, 0, 1<<20, nil, nil)
	exp := adv.ExpectedTime(tr, mpi.Broadcast, 1<<20)
	trig, err := adv.ObserveCtx(context.Background(), exp, exp*3)
	if err != nil || !trig {
		t.Fatalf("spike should trigger maintenance (trig=%v err=%v)", trig, err)
	}
	if hooked != 1 {
		t.Fatalf("hook ran %d times, want 1", hooked)
	}
	if adv.Calibrations() != calsBefore {
		t.Fatalf("hooked maintenance must not run the direct calibration path (%d -> %d)", calsBefore, adv.Calibrations())
	}
	adv.SetRecalibrator(nil)
	if trig, err = adv.ObserveCtx(context.Background(), exp, exp*3); err != nil || !trig {
		t.Fatalf("direct path after clearing hook (trig=%v err=%v)", trig, err)
	}
	if adv.Calibrations() != calsBefore+1 {
		t.Fatalf("direct maintenance should calibrate (%d -> %d)", calsBefore, adv.Calibrations())
	}
}

// referenceNormE keeps the expressions relNormE replaced: N_D and N_E built
// as matrices and rpca.RelNorm (clamped at 1) on the plain route, and an
// At-based loop (unclamped) on the masked one.
func referenceNormE(a *mat.Dense, row []float64, mask *mat.Dense, masked bool) float64 {
	nd := mat.NewDense(a.Rows(), len(row))
	for i := 0; i < a.Rows(); i++ {
		copy(nd.Row(i), row)
	}
	if !masked {
		return rpca.RelNorm(a.Sub(nd), a, rpca.NormL1, 0)
	}
	var num, den float64
	r, c := a.Dims()
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if mask != nil && mask.At(i, j) < 0.5 {
				continue
			}
			num += math.Abs(a.At(i, j) - nd.At(i, j))
			den += math.Abs(a.At(i, j))
		}
	}
	normE := 0.0
	if den > 0 {
		normE = num / den
	}
	return normE
}

// TestDecomposeTPNormEMatchesReference checks the one-pass Norm(N_E) of
// DecomposeTPWith and DecomposeTPMaskedWith bit for bit against the
// matrix-building expressions it replaced, on the latency and bandwidth
// traces of fault-free and lossy real calibrations of 16, 32 and 64 VMs.
func TestDecomposeTPNormEMatchesReference(t *testing.T) {
	lossy := cloud.CalibrationConfig{Resilient: true, DropProb: 0.3, MaxRetries: 1}
	solver := rpca.NewSolver()
	for i, vms := range []int{16, 32, 64} {
		seed := int64(70 + 10*i)
		p := cloud.NewProvider(cloud.ProviderConfig{Tree: topo.TreeConfig{Racks: 16, ServersPerRack: 16}, Seed: seed})
		for _, cfg := range []cloud.CalibrationConfig{{}, lossy} {
			vc, err := p.Provision(vms, seed+1)
			if err != nil {
				t.Fatal(err)
			}
			tc, err := cloud.CalibrateTPCtx(context.Background(), vc, stats.NewRNG(seed+2), 10, 5, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Resilient && tc.Mask == nil {
				t.Fatalf("%d VMs: the lossy calibration left no gap to mask", vms)
			}
			for _, tp := range []*netmodel.TPMatrix{tc.Latency, tc.Bandwidth} {
				a := tp.Matrix()
				d, err := DecomposeTPWith(solver, tp, rpca.Options{}, rpca.ExtractMedian)
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceNormE(a, d.ConstantRow, nil, false); math.Float64bits(d.NormE) != math.Float64bits(want) {
					t.Fatalf("%d VMs (gaps %v): DecomposeTPWith NormE %v, reference %v", vms, tc.Mask != nil, d.NormE, want)
				}
				d, err = DecomposeTPMaskedWith(solver, tp, tc.Mask, rpca.Options{}, rpca.ExtractMedian)
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceNormE(a, d.ConstantRow, tc.Mask, true); math.Float64bits(d.NormE) != math.Float64bits(want) {
					t.Fatalf("%d VMs (masked %v): DecomposeTPMaskedWith NormE %v, reference %v", vms, tc.Mask != nil, d.NormE, want)
				}
			}
		}
	}
}

// WeightsTP converts latency and bandwidth TP-matrices into a TP-matrix of
// transfer-time weights for a fixed message size — used when the analysis
// should reflect the cost actually optimized.
func WeightsTP(lat, bw *netmodel.TPMatrix, msgBytes float64) *netmodel.TPMatrix {
	if lat.Steps() != bw.Steps() || lat.N != bw.N {
		panic("core: mismatched TP-matrices")
	}
	out := netmodel.NewTPMatrix(lat.N)
	for s := 0; s < lat.Steps(); s++ {
		pm := &netmodel.PerfMatrix{N: lat.N, Latency: lat.Snapshot(s), Bandwth: bw.Snapshot(s)}
		out.Append(lat.Times[s], pm.Weights(msgBytes))
	}
	return out
}
