// Package core implements the paper's contribution: decoupling the
// constant component from dynamic cloud network performance with RPCA and
// using it to guide network-performance-aware optimizations (§III–IV).
//
// The central type is Advisor, which realizes Algorithm 1: calibrate a
// temporal performance matrix on a virtual cluster, run RPCA to obtain the
// constant component N_D and error component N_E, guide optimizations
// (FNF trees, greedy topology mapping) with N_D, judge the usefulness of
// optimization from Norm(N_E), monitor actual-vs-expected performance of
// the running operation, and re-calibrate when the difference exceeds the
// maintenance threshold.
package core

import (
	"fmt"
	"math"

	"netconstant/internal/mat"
	"netconstant/internal/netmodel"
	"netconstant/internal/rpca"
)

// Strategy identifies how the guidance performance matrix is obtained —
// the four comparison approaches of the paper's evaluation (§V-A).
type Strategy int

const (
	// Baseline applies no network awareness: binomial trees for
	// collectives, ring mapping for topology mapping (MPICH2 defaults).
	Baseline Strategy = iota
	// Heuristics uses the direct column average of a few measurements —
	// the ad-hoc approach of prior cloud work.
	Heuristics
	// RPCA uses the constant component recovered by robust PCA — the
	// paper's approach.
	RPCA
	// TopologyAware uses static topology knowledge (rack membership),
	// ignoring measured performance — the cluster-era comparison included
	// in the ns-2 simulations.
	TopologyAware
)

// String names the strategy as in the paper's figures.
func (s Strategy) String() string {
	switch s {
	case Baseline:
		return "Baseline"
	case Heuristics:
		return "Heuristics"
	case RPCA:
		return "RPCA"
	case TopologyAware:
		return "Topology-aware"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// HeuristicKind selects the direct-use estimator inside the Heuristics
// strategy. The paper reports similar results for all of them (§V-A,
// "Comparisons").
type HeuristicKind int

const (
	// HeuristicMean averages each link over the TP-matrix rows.
	HeuristicMean HeuristicKind = iota
	// HeuristicMin takes the best observation per link (optimistic).
	HeuristicMin
	// HeuristicEWMA exponentially weights recent observations.
	HeuristicEWMA
)

// String names the heuristic variant.
func (k HeuristicKind) String() string {
	switch k {
	case HeuristicMean:
		return "mean"
	case HeuristicMin:
		return "min"
	case HeuristicEWMA:
		return "ewma"
	default:
		return fmt.Sprintf("HeuristicKind(%d)", int(k))
	}
}

// HeuristicRow reduces a TP-matrix to a single row with the chosen
// estimator. better selects the per-link preference for HeuristicMin: for
// bandwidth bigger is better; for latency smaller is better.
func HeuristicRow(tp *netmodel.TPMatrix, kind HeuristicKind, biggerIsBetter bool) []float64 {
	steps := tp.Steps()
	width := tp.N * tp.N
	out := make([]float64, width)
	if steps == 0 {
		return out
	}
	m := tp.Matrix()
	switch kind {
	case HeuristicMin:
		copy(out, m.Row(0))
		for s := 1; s < steps; s++ {
			row := m.Row(s)
			for j, v := range row {
				if biggerIsBetter == (v > out[j]) {
					out[j] = v
				}
			}
		}
	case HeuristicEWMA:
		const alpha = 0.3
		copy(out, m.Row(0))
		for s := 1; s < steps; s++ {
			row := m.Row(s)
			for j, v := range row {
				out[j] = alpha*v + (1-alpha)*out[j]
			}
		}
	default: // HeuristicMean
		for s := 0; s < steps; s++ {
			row := m.Row(s)
			for j, v := range row {
				out[j] += v
			}
		}
		inv := 1 / float64(steps)
		for j := range out {
			out[j] *= inv
		}
	}
	return out
}

// Decomposition is the RPCA analysis of one TP-matrix.
type Decomposition struct {
	ConstantRow []float64 // the paper's P_D
	NormE       float64   // relative error norm ‖N_E‖/‖N_A‖ (L1)
	Iterations  int
	Converged   bool
	RankD       int
}

// DecomposeTP runs RPCA on a TP-matrix and extracts the constant row.
//
// Two deliberate adaptations for temporal performance matrices (documented
// in DESIGN.md):
//   - When opts.Lambda is zero, λ defaults to 1/√rows instead of the
//     literature's 1/√max(r,c). TP-matrices are extremely fat (time-step
//     rows × N² columns), where the square-matrix default makes the sparse
//     term so cheap that E absorbs broad structure and biases the constant
//     component.
//   - NormE is computed against the paper's §III definition of the
//     TE-matrix: N_E = N_A − N_D with N_D the row-constant matrix built
//     from the extracted row — not the solver's internal E, whose mass
//     depends on λ.
func DecomposeTP(tp *netmodel.TPMatrix, opts rpca.Options, extract rpca.ExtractMethod) (*Decomposition, error) {
	return DecomposeTPWith(rpca.NewSolver(), tp, opts, extract)
}

// DecomposeTPWith is DecomposeTP running on a caller-held solver, so
// back-to-back decompositions of same-shaped TP-matrices (an advisor
// analysis solves latency then bandwidth, and the Fig 5 sweep decomposes
// dozens of prefixes) reuse the iteration arena and SVT workspace instead
// of reallocating them. The arena lives only as long as the caller holds
// the solver: the advisor builds one per analysis, so an idle advisor
// keeps none.
func DecomposeTPWith(s *rpca.Solver, tp *netmodel.TPMatrix, opts rpca.Options, extract rpca.ExtractMethod) (*Decomposition, error) {
	return decomposeTP(s, tp.Matrix(), opts, extract)
}

// decomposeTP is DecomposeTPWith on a TP-matrix's steps×N² data matrix a,
// which it does not modify. A streaming partial re-solve calls it on the
// session's edited matrices.
func decomposeTP(s *rpca.Solver, a *mat.Dense, opts rpca.Options, extract rpca.ExtractMethod) (*Decomposition, error) {
	if opts.Lambda == 0 && a.Rows() > 0 {
		opts.Lambda = 1 / math.Sqrt(float64(a.Rows()))
	}
	res, err := s.Decompose(a, opts)
	if err != nil {
		return nil, err
	}
	row := rpca.ConstantRow(res.D, extract)
	return &Decomposition{
		ConstantRow: row,
		// Clamped to 1 like rpca.RelNorm; the masked route is not.
		NormE:      min(relNormE(a, row, nil), 1),
		Iterations: res.Iterations,
		Converged:  res.Converged,
		RankD:      res.RankD,
	}, nil
}

// DecomposeTPMaskedWith runs the masked solver (on a caller-held solver,
// see DecomposeTPWith) on a partially observed TP-matrix and extracts the
// constant row. mask is the rows×N² observation mask (1 = measured); nil
// falls back to the fully observed path. The same fat-matrix λ default as
// DecomposeTP applies, and NormE is evaluated on the observed cells only —
// unobserved cells carry no evidence about the network's dynamism, so
// counting their (reconstructed) residual would understate it.
func DecomposeTPMaskedWith(s *rpca.Solver, tp *netmodel.TPMatrix, mask *mat.Dense, opts rpca.Options, extract rpca.ExtractMethod) (*Decomposition, error) {
	a := tp.Matrix()
	if opts.Lambda == 0 && a.Rows() > 0 {
		opts.Lambda = 1 / math.Sqrt(float64(a.Rows()))
	}
	res, err := s.DecomposeMasked(a, mask, opts)
	if err != nil {
		return nil, err
	}
	row := rpca.ConstantRow(res.D, extract)
	return &Decomposition{
		ConstantRow: row,
		NormE:       relNormE(a, row, mask),
		Iterations:  res.Iterations,
		Converged:   res.Converged,
		RankD:       res.RankD,
	}, nil
}

// relNormE is the paper's Norm(N_E) in L1, ‖N_A − N_D‖₁ / ‖N_A‖₁ with
// N_D the constant row repeated down every row of a, summed in one
// row-major pass without building N_D or N_E. A non-nil mask (same shape
// as a) confines both sums to its observed cells; a cell with mask < 0.5
// is skipped. It returns 0 when ‖N_A‖₁ is 0 and does not clamp.
func relNormE(a *mat.Dense, row []float64, mask *mat.Dense) float64 {
	r, c := a.Dims()
	ad := a.Data()
	var md []float64
	if mask != nil {
		md = mask.Data()
	}
	var num, den float64
	for i := 0; i < r; i++ {
		for j, v := range ad[i*c : (i+1)*c] {
			if md != nil && md[i*c+j] < 0.5 {
				continue
			}
			num += math.Abs(v - row[j])
			den += math.Abs(v)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// PerfFromRows assembles a performance matrix from constant latency and
// bandwidth rows (each of length N²).
func PerfFromRows(n int, latRow, bwRow []float64) *netmodel.PerfMatrix {
	return &netmodel.PerfMatrix{
		N:       n,
		Latency: netmodel.Devectorize(latRow, n),
		Bandwth: netmodel.Devectorize(bwRow, n),
	}
}

// Effectiveness grades Norm(N_E) into the paper's qualitative bands
// (§V-D3, §V-E): below ~0.1 optimizations gain >40%, around 0.2 they gain
// <20%, and beyond ~0.5 "the improvement of network performance aware
// optimizations becomes marginal".
type Effectiveness int

const (
	// Effective: the network is stable enough for large gains.
	Effective Effectiveness = iota
	// Moderate: gains shrink but RPCA still beats direct measurement use.
	Moderate
	// Marginal: the network is too dynamic; optimizations barely help.
	Marginal
)

// String names the grade.
func (e Effectiveness) String() string {
	switch e {
	case Effective:
		return "effective"
	case Moderate:
		return "moderate"
	default:
		return "marginal"
	}
}

// GradeEffectiveness maps Norm(N_E) to an Effectiveness band.
func GradeEffectiveness(normE float64) Effectiveness {
	switch {
	case normE < 0.2:
		return Effective
	case normE < 0.5:
		return Moderate
	default:
		return Marginal
	}
}

// oracleRow computes the "oracle" long-term row used by the Fig 5 accuracy
// sweep: the RPCA constant extracted from the *entire* TP-matrix.
func oracleRow(tp *netmodel.TPMatrix, opts rpca.Options, extract rpca.ExtractMethod) ([]float64, error) {
	d, err := DecomposeTP(tp, opts, extract)
	if err != nil {
		return nil, err
	}
	return d.ConstantRow, nil
}

// TimeStepAccuracy computes the paper's Fig 5 metric: the relative
// difference Norm(P_D) between the constant row predicted from only the
// first k rows and the oracle row from the whole matrix, for each k in
// steps.
func TimeStepAccuracy(tp *netmodel.TPMatrix, steps []int, opts rpca.Options, extract rpca.ExtractMethod) (map[int]float64, error) {
	oracle, err := oracleRow(tp, opts, extract)
	if err != nil {
		return nil, err
	}
	solver := rpca.NewSolver()
	out := make(map[int]float64, len(steps))
	for _, k := range steps {
		if k < 1 || k > tp.Steps() {
			return nil, fmt.Errorf("core: time step %d out of range [1,%d]", k, tp.Steps())
		}
		d, err := DecomposeTPWith(solver, tp.Head(k), opts, extract)
		if err != nil {
			return nil, err
		}
		out[k] = rpca.RelDiff(d.ConstantRow, oracle)
	}
	return out, nil
}
