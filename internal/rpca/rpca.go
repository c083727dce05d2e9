// Package rpca implements Robust Principal Component Analysis by the
// Inexact Augmented Lagrange Multiplier (IALM) method of Lin, Chen & Ma,
// taken from the same RPCA sample-code collection the paper cites in [35].
// (The paper ran that collection's Accelerated Proximal Gradient code;
// IALM solves the same program at the same λ and reaches its tolerance in
// tens of iterations where APG often stops at its cap. The package's
// tests keep APG as a differential oracle.)
//
// RPCA decomposes a data matrix A into a low-rank component D and a sparse
// component E by solving the convex relaxation
//
//	minimize   ‖D‖* + λ‖E‖₁   subject to   A = D + E
//
// IALM attacks its augmented Lagrangian: each iteration applies singular
// value thresholding of A − E + Y/μ at 1/μ for the low-rank block and soft
// thresholding of A − D + Y/μ at λ/μ for the sparse block, then updates
// the multiplier Y ← Y + μ(A − D − E) and grows the penalty μ
// geometrically. DecomposeMasked runs the same iteration with
// missing-entry projection.
//
// In this repository A is a temporal performance matrix (one row per
// all-link calibration of a virtual cluster), D captures the constant
// component of the network performance, and E the dynamic error (paper
// §III–IV).
package rpca

import (
	"context"

	"netconstant/internal/mat"
)

// Options configures the solver. The zero value selects λ = 1/√max(r,c)
// and a 1000-iteration cap; the penalty schedule and the tolerance are the
// published IALM constants below.
type Options struct {
	Lambda  float64 // sparsity weight; 0 selects 1/sqrt(max dim)
	MaxIter int     // iteration cap; 0 selects 1000
	// Ctx, when non-nil, is checked once per iteration: a cancelled
	// context aborts the solve with a *cancel.Error (matching
	// cancel.ErrCanceled) carrying the iteration count reached. Nil
	// never cancels.
	Ctx context.Context
}

// The published IALM parameters (Lin, Chen & Ma): the penalty starts at
// μ₀ = 1.25/‖A‖₂, grows by ρ = 1.5 per iteration up to 10⁷·μ₀, and the
// solve stops once ‖A − D − E‖F ≤ 10⁻⁷·max(1, ‖A‖F).
const (
	mu0Scale       = 1.25
	muGrowth       = 1.5
	muCapRatio     = 1e7
	tolerance      = 1e-7
	defaultMaxIter = 1000
)

// Result is an RPCA decomposition A = D + E.
type Result struct {
	D          *mat.Dense // low-rank (constant) component
	E          *mat.Dense // sparse (error) component
	Iterations int
	Converged  bool
	RankD      int // numerical rank of D after the final SVT
}

// Decompose runs RPCA on a. The input is not modified. Inputs with
// NaN/Inf entries are rejected with an error unwrapping to ErrNonFinite.
//
// Each call builds a throwaway Solver; callers decomposing many
// same-shaped matrices should hold a Solver and call its Decompose to
// reuse the iteration arena and the SVT workspace.
func Decompose(a *mat.Dense, opts Options) (*Result, error) {
	return NewSolver().Decompose(a, opts)
}
