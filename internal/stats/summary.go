package stats

import (
	"math"
	"sort"
)

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample using linear interpolation between order statistics. A NaN q has
// no defined order statistic and yields NaN.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// TrimmedMean returns the mean of xs after discarding the lowest and
// highest trim fraction of observations (e.g. trim=0.1 drops 10% at each
// end). It is robust to the heavy-tailed samples that extreme network
// dynamics produce. Returns NaN for empty input; trim is clamped to
// [0, 0.5).
func TrimmedMean(xs []float64, trim float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if trim < 0 {
		trim = 0
	}
	if trim >= 0.5 {
		trim = 0.49
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	k := int(trim * float64(len(sorted)))
	kept := sorted[k : len(sorted)-k]
	return Mean(kept)
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample (which is copied).
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Quantile returns the q-quantile of the sample.
func (c *CDF) Quantile(q float64) float64 { return Quantile(c.sorted, q) }

// RelImprovement returns (base-opt)/base, the fractional improvement of opt
// over base; e.g. 0.3 means "30% faster than base". Returns NaN if base==0.
func RelImprovement(base, opt float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return (base - opt) / base
}
