package exp

import (
	"fmt"
	"math"
	"math/rand"

	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/faults"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// ExtResilienceResult is the fault-injection sweep: how calibration
// coverage, analysis accuracy, and advisor confidence degrade as probes
// are lost and racks black out.
type ExtResilienceResult struct {
	Table *Table
	// BaselineErr is the fault-free constant-component error vs truth.
	BaselineErr float64
	// WorstErr is the largest error across the faulted scenarios.
	WorstErr float64
}

// ExtResilience measures graceful degradation end to end. Each scenario
// provisions an identically seeded cluster, wraps it with a fault
// scenario (probe loss sweep, with and without a rack blackout spanning
// part of the calibration), runs the resilient calibration + masked RPCA
// pipeline, and reports coverage, mean measurement quality, Norm(N_E),
// the constant component's relative error against the ground truth, and
// the confidence-graded strategy the advisor would actually use.
func ExtResilience(cfg Config) (*ExtResilienceResult, error) {
	const seedOffset = 7000
	build := func() (*cloud.Provider, *cloud.VirtualCluster, error) {
		p := cloud.NewProvider(cloud.ProviderConfig{
			Tree: topo.TreeConfig{Racks: cfg.Racks, ServersPerRack: cfg.ServersPerRack},
			Seed: cfg.Seed + seedOffset,
		})
		vc, err := p.Provision(cfg.SmallVMs, cfg.Seed+seedOffset+1)
		return p, vc, err
	}

	// Fault-free resilient run: the reference cost and error.
	_, vc0, err := build()
	if err != nil {
		return nil, err
	}
	advCfg := core.AdvisorConfig{
		TimeStep:    cfg.TimeStep,
		Calibration: cloud.CalibrationConfig{Resilient: true},
	}
	adv0 := core.NewAdvisor(vc0, stats.NewRNG(cfg.Seed+seedOffset+2), advCfg)
	if err := adv0.CalibrateCtx(cfg.context()); err != nil {
		return nil, err
	}
	truth := vc0.TruePerf()
	baseCost := adv0.CalibrationCost()

	relErr := func(adv *core.Advisor) float64 {
		con := adv.Constant()
		var sum float64
		count := 0
		n := truth.N
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				tb := truth.Bandwth.At(i, j)
				sum += math.Abs(con.Bandwth.At(i, j)-tb) / tb
				count++
			}
		}
		return sum / float64(count)
	}

	res := &ExtResilienceResult{
		Table: NewTable(fmt.Sprintf("Ext: calibration resilience under injected faults (%d VMs)", cfg.SmallVMs),
			"probe loss", "blackout", "coverage", "mean quality", "Norm(N_E)", "rel err vs truth", "confidence", "strategy used"),
		BaselineErr: relErr(adv0),
	}
	res.Table.AddRow("0%", "no", "100.0%", "1.00",
		fmt.Sprintf("%.4f", adv0.NormE()), fmt.Sprintf("%.4f", res.BaselineErr),
		adv0.Confidence().String(), adv0.EffectiveStrategy(core.RPCA).String())
	res.WorstErr = res.BaselineErr

	// Each scenario provisions its own identically seeded cluster, so the
	// sweep fans out over the worker pool; rows are emitted in scenario
	// order afterwards.
	type scenario struct {
		loss     float64
		blackout bool
	}
	var scenarios []scenario
	for _, loss := range []float64{0.1, 0.2, 0.4} {
		for _, blackout := range []bool{false, true} {
			scenarios = append(scenarios, scenario{loss, blackout})
		}
	}
	// Each sweep slot holds the scenario's serializable row data (not the
	// advisor itself), so completed scenarios gob-journal into the crash
	// checkpoint.
	type resPoint struct {
		Coverage    float64
		MeanQuality float64
		NormE       float64
		RelErr      float64
		Confidence  string
		Strategy    string
	}
	pts := make([]resPoint, len(scenarios))
	if err := sweepPoints(cfg, "ext-resilience", pts, func(i int, _ *rand.Rand) error {
		p, vc, err := build()
		if err != nil {
			return err
		}
		sc := faults.Scenario{Seed: cfg.Seed + seedOffset + 3, ProbeLoss: scenarios[i].loss}
		if scenarios[i].blackout {
			rack := p.Topo.Node(vc.Hosts[0]).Rack
			sc.Blackouts = []faults.Blackout{
				faults.RackBlackout(p.Topo, vc.Hosts, rack, 0.1*baseCost, 1.5*baseCost),
			}
		}
		fc := faults.Wrap(vc, sc)
		adv := core.NewAdvisor(fc, stats.NewRNG(cfg.Seed+seedOffset+2), advCfg)
		if err := adv.CalibrateCtx(cfg.context()); err != nil {
			return err
		}
		h := adv.Health()
		pts[i] = resPoint{
			Coverage:    h.Coverage,
			MeanQuality: h.MeanQuality,
			NormE:       adv.NormE(),
			RelErr:      relErr(adv),
			Confidence:  h.Confidence.String(),
			Strategy:    adv.EffectiveStrategy(core.RPCA).String(),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, scen := range scenarios {
		p := pts[i]
		if p.RelErr > res.WorstErr {
			res.WorstErr = p.RelErr
		}
		yn := "no"
		if scen.blackout {
			yn = "yes"
		}
		res.Table.AddRow(
			fmt.Sprintf("%.0f%%", 100*scen.loss), yn,
			fmt.Sprintf("%.1f%%", 100*p.Coverage),
			fmt.Sprintf("%.2f", p.MeanQuality),
			fmt.Sprintf("%.4f", p.NormE),
			fmt.Sprintf("%.4f", p.RelErr),
			p.Confidence,
			p.Strategy,
		)
	}
	res.Table.AddNote("blackout: first VM's rack dark from %.0fs for %.0fs (fault-free calibration costs %.0fs)",
		0.1*baseCost, 1.5*baseCost, baseCost)
	res.Table.AddNote("resilient calibration: retries + MAD screening + missing-cell masking; analysis: masked IALM")
	return res, nil
}
