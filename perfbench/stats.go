package main

import (
	"sort"

	"netconstant/internal/stats"
)

// tailLadder lists the tail percentiles from highest to lowest. The tail
// a workload reports is the highest rung that has at least minBeyond
// samples strictly above it; p75 is the last rung because a simulate run
// completes only a few dozen ops.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75}

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported: fewer, and the "tail" is one or two outliers.
const minBeyond = 10

// beyond counts the samples of the ascending-sorted xs strictly above v.
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// tailRule returns the highest rung of tailLadder with at least
// minBeyond samples beyond it, or ok=false when even the lowest rung has
// too few.
func tailRule(sorted []float64) (q float64, ok bool) {
	for _, q := range tailLadder {
		if beyond(sorted, stats.Quantile(sorted, q)) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Quantile(s, 0.5)
}
