package rpca

import (
	"math"
	"sort"

	"netconstant/internal/mat"
)

// The paper constrains the temporal constant matrix N_D to rank one with
// all rows identical (§III): every row is the same estimated pair-wise
// performance vector P_D. RPCA returns a general low-rank D, so a final
// projection onto the "all rows equal" set is needed. This file provides
// the extraction strategies ablated in DESIGN.md.

// ExtractMethod selects how the constant row is obtained from D.
type ExtractMethod int

const (
	// ExtractMedian (the default) uses the per-column median, robust to
	// residual spikes that leaked into D.
	ExtractMedian ExtractMethod = iota
	// ExtractMean projects D onto the all-rows-equal set by per-column
	// arithmetic mean — the Frobenius-optimal projection.
	ExtractMean
	// ExtractRank1 truncates D to its best rank-1 approximation σ·u·vᵀ and
	// returns mean(σ·u)·v, honouring the paper's rank(N_D)=1 formulation.
	ExtractRank1
)

// ConstantRow extracts the constant performance row P_D from a low-rank
// component D using the requested method.
func ConstantRow(d *mat.Dense, method ExtractMethod) []float64 {
	r, c := d.Dims()
	if r == 0 || c == 0 {
		return make([]float64, c)
	}
	switch method {
	case ExtractMedian:
		out := make([]float64, c)
		col := make([]float64, r)
		for j := 0; j < c; j++ {
			for i := 0; i < r; i++ {
				col[i] = d.At(i, j)
			}
			sort.Float64s(col)
			if r%2 == 1 {
				out[j] = col[r/2]
			} else {
				out[j] = 0.5 * (col[r/2-1] + col[r/2])
			}
		}
		return out
	case ExtractRank1:
		sigma, u, v := d.Rank1()
		var uMean float64
		for _, x := range u {
			uMean += x
		}
		uMean /= float64(len(u))
		out := make([]float64, c)
		for j := range out {
			out[j] = sigma * uMean * v[j]
		}
		return out
	default: // ExtractMean
		out := make([]float64, c)
		for i := 0; i < r; i++ {
			row := d.Row(i)
			for j, v := range row {
				out[j] += v
			}
		}
		inv := 1 / float64(r)
		for j := range out {
			out[j] *= inv
		}
		return out
	}
}

// Norm selects the matrix norm used by the effectiveness metric.
type Norm int

const (
	// NormL1 is the entrywise L1 norm — the convex surrogate actually
	// minimized by the solver, and the default for Norm(N_E).
	NormL1 Norm = iota
	// NormL0 counts entries above a relative magnitude threshold,
	// matching the paper's ‖·‖₀ notation.
	NormL0
	// NormFro is the Frobenius norm.
	NormFro
)

// RelNorm computes the paper's effectiveness metric
// Norm(N_E) = ‖N_E‖ / ‖N_A‖, clamped to [0, 1]. For NormL0 the threshold
// is eps·max|A|; pass eps <= 0 for the default 1e-3.
func RelNorm(e, a *mat.Dense, norm Norm, eps float64) float64 {
	var num, den float64
	switch norm {
	case NormL0:
		if eps <= 0 {
			eps = 1e-3
		}
		thresh := eps * a.NormMax()
		num = e.NormL0(thresh)
		den = a.NormL0(thresh)
	case NormFro:
		num = e.NormFrobenius()
		den = a.NormFrobenius()
	default:
		num = e.NormL1()
		den = a.NormL1()
	}
	if den == 0 {
		return 0
	}
	v := num / den
	if v > 1 {
		v = 1
	}
	if v < 0 {
		v = 0
	}
	return v
}

// RelDiff is the relative difference metric of paper §V-C (Fig 5):
// Norm(P_D) = ‖P_D − P'_D‖ / ‖P'_D‖ for a predicted constant row P_D
// against the oracle row P'_D, using the L1 norm.
func RelDiff(predicted, oracle []float64) float64 {
	if len(predicted) != len(oracle) {
		panic("rpca: RelDiff length mismatch")
	}
	var num, den float64
	for i := range oracle {
		num += math.Abs(predicted[i] - oracle[i])
		den += math.Abs(oracle[i])
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return num / den
}
