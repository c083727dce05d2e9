package exp

// Figure is a runnable entry of the experiment registry: one figure (or
// extension study) of the paper's evaluation, producing one or more
// tables.
type Figure struct {
	Name string
	Desc string
	Run  func(cfg Config) ([]*Table, error)
}

// Figures returns the full experiment registry in presentation order.
// cmd/expdriver and the campaign-plan validator in internal/plan iterate
// this list rather than hard-coding their own.
func Figures() []Figure {
	return []Figure{
		{"fig4", "calibration overhead vs #instances", func(cfg Config) ([]*Table, error) {
			r, err := Fig4Calibration(cfg, nil)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Table}, nil
		}},
		{"fig5", "long-term accuracy vs time step", func(cfg Config) ([]*Table, error) {
			r, err := Fig5TimeStep(cfg, nil)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Table}, nil
		}},
		{"fig6", "maintenance threshold sweep", func(cfg Config) ([]*Table, error) {
			days := 2.0
			if cfg.Runs >= 100 {
				days = 7
			}
			r, err := Fig6Threshold(cfg, nil, days)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Table}, nil
		}},
		{"fig7", "overall EC2-style comparison + broadcast CDF", func(cfg Config) ([]*Table, error) {
			r, err := Fig7Overall(cfg)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Table, r.CDFTable}, nil
		}},
		{"fig8", "improvement vs cluster size", func(cfg Config) ([]*Table, error) {
			r, err := Fig8ClusterSize(cfg)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Table}, nil
		}},
		{"fig9a", "CG vs vector size", func(cfg Config) ([]*Table, error) {
			sizes := []int{1000, 4000, 16000, 64000}
			if cfg.Runs >= 100 {
				sizes = []int{1000, 16000, 64000, 256000, 1024000}
			}
			r, err := Fig9aCG(cfg, sizes)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Table}, nil
		}},
		{"fig9b", "N-body vs #Step", func(cfg Config) ([]*Table, error) {
			steps := []int{10, 40, 160, 640}
			bodies := 128
			if cfg.Runs >= 100 {
				steps = []int{10, 40, 160, 640, 2560}
				bodies = 256
			}
			r, err := Fig9bNBodySteps(cfg, steps, bodies)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Table}, nil
		}},
		{"fig9c", "N-body vs message size", func(cfg Config) ([]*Table, error) {
			r, err := Fig9cNBodyMsg(cfg, nil, 0, 0)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Table}, nil
		}},
		{"fig10", "impact of Norm(N_E)", func(cfg Config) ([]*Table, error) {
			r, err := Fig10ErrorImpact(cfg, nil)
			if err != nil {
				return nil, err
			}
			return []*Table{r.TableA, r.TableB}, nil
		}},
		{"fig11", "detailed study at Norm(N_E)=0.2", func(cfg Config) ([]*Table, error) {
			r, err := Fig11Detailed(cfg)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Table, r.CDFTable}, nil
		}},
		{"fig12", "background traffic vs Norm(N_E)", func(cfg Config) ([]*Table, error) {
			r, err := Fig12Background(cfg, nil, nil)
			if err != nil {
				return nil, err
			}
			return []*Table{r.TableA, r.TableB}, nil
		}},
		{"fig13", "simulated-cluster comparison + CDF", func(cfg Config) ([]*Table, error) {
			r, err := Fig13Simulation(cfg, 0, 0)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Table, r.CDFTable}, nil
		}},
		{"ext-econ", "economics of the optimization (paper future work)", func(cfg Config) ([]*Table, error) {
			r, err := ExtEconomics(cfg)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Table}, nil
		}},
		{"ext-collectives", "all-to-all implementation comparison", func(cfg Config) ([]*Table, error) {
			r, err := ExtCollectives(cfg)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Table}, nil
		}},
		{"ext-coords", "why network coordinates fail (quantified §IV-B)", func(cfg Config) ([]*Table, error) {
			r, err := ExtCoordinates(cfg)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Table}, nil
		}},
		{"ext-stream", "partial vs full recalibration against ground truth", func(cfg Config) ([]*Table, error) {
			t, err := ExtStreaming(cfg)
			if err != nil {
				return nil, err
			}
			return []*Table{t}, nil
		}},
		{"ext-workflow", "scientific workflow scheduling (paper future work)", func(cfg Config) ([]*Table, error) {
			r, err := ExtWorkflow(cfg)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Table}, nil
		}},
		{"ext-clos", "§V-E pipeline on ECMP Clos fabrics past 1024 machines", func(cfg Config) ([]*Table, error) {
			r, err := ExtClos(cfg)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Table}, nil
		}},
		{"ext-resilience", "graceful degradation under injected faults", func(cfg Config) ([]*Table, error) {
			r, err := ExtResilience(cfg)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Table}, nil
		}},
		{"accuracy", "trace-replay estimation accuracy (§V-D3)", func(cfg Config) ([]*Table, error) {
			r, err := AccuracyStudy(cfg)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Table}, nil
		}},
	}
}
