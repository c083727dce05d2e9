// Package stats provides seeded random samplers, summary statistics and
// empirical distribution helpers used throughout the netconstant simulators
// and experiment harness.
//
// Every sampler takes an explicit *rand.Rand so that all stochastic
// components of the repository are deterministic given a seed; no package in
// this module reads the wall clock or the global rand source.
package stats

import "math/rand"

// NewRNG returns a deterministic random source for the given seed.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Split derives a child RNG from a parent, so that concurrent components can
// each own an independent deterministic stream. The child's seed mixes the
// parent stream with the supplied tag.
func Split(r *rand.Rand, tag int64) *rand.Rand {
	const mix = int64(0x1E3779B97F4A7C15) // golden-ratio mixing constant, truncated to int64
	return rand.New(rand.NewSource(r.Int63() ^ (tag * mix)))
}

// Uniform samples from [lo, hi).
func Uniform(r *rand.Rand, lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exponential samples an exponential waiting time with the given mean
// (i.e. rate 1/mean). It is the inter-arrival distribution of a Poisson
// process, used by the background-traffic generators (paper §V-A).
func Exponential(r *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return r.ExpFloat64() * mean
}

// Bernoulli returns true with probability p.
func Bernoulli(r *rand.Rand, p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of n elements.
func Perm(r *rand.Rand, n int) []int {
	return r.Perm(n)
}

// SampleWithoutReplacement returns k distinct integers in [0, n).
// It panics if k > n.
func SampleWithoutReplacement(r *rand.Rand, n, k int) []int {
	if k > n {
		panic("stats: sample size exceeds population")
	}
	p := r.Perm(n)
	out := make([]int, k)
	copy(out, p[:k])
	return out
}
