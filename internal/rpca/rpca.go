// Package rpca implements Robust Principal Component Analysis by the
// Accelerated Proximal Gradient (APG) method with continuation — the
// algorithm family the paper adopts from Ji & Ye (its released sample code
// is the "RPCA via APG" implementation the paper cites in [35]).
//
// RPCA decomposes a data matrix A into a low-rank component D and a sparse
// component E by solving the convex relaxation
//
//	minimize   ‖D‖* + λ‖E‖₁   subject to   A = D + E
//
// which APG attacks through the sequence of smooth subproblems
//
//	minimize   μ‖D‖* + μλ‖E‖₁ + ½‖A − D − E‖F²
//
// with μ decreased geometrically (continuation) and Nesterov momentum on
// the (D, E) pair. Each iteration applies singular value thresholding to
// the low-rank block and soft thresholding to the sparse block.
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

// Options configures the APG solver. The zero value selects the standard
// parameters from the literature: λ = 1/√max(r,c), μ₀ = 0.99‖A‖₂,
// μ̄ = 10⁻⁹μ₀, η = 0.9, tol = 10⁻⁷, 500 iterations max.
type Options struct {
	Lambda  float64 // sparsity weight; 0 selects 1/sqrt(max dim)
	Mu0     float64 // initial continuation parameter; 0 selects 0.99·‖A‖₂
	MuBar   float64 // final continuation parameter; 0 selects 1e-9·μ₀
	Eta     float64 // continuation decay in (0,1); 0 selects 0.9
	Tol     float64 // relative convergence tolerance; 0 selects 1e-7
	MaxIter int     // iteration cap; 0 selects 500
	// Ctx, when non-nil, is checked once per iteration: a cancelled
	// context aborts the solve with a *cancel.Error (matching
	// cancel.ErrCanceled) carrying the iteration count reached. Nil
	// means "never cancel" — the zero value keeps its old meaning.
	Ctx context.Context
}

// Result is an RPCA decomposition A = D + E.
type Result struct {
	D          *mat.Dense // low-rank (constant) component
	E          *mat.Dense // sparse (error) component
	Iterations int
	Converged  bool
	RankD      int // numerical rank of D after the final SVT
}

// Decompose runs APG RPCA on a. The input is not modified. Inputs with
// NaN/Inf entries are rejected with an error unwrapping to ErrNonFinite.
//
// Each call builds a throwaway Solver; callers decomposing many
// same-shaped matrices should hold a Solver and call its Decompose to
// reuse the iteration arena and the warm-started SVT workspace.
func Decompose(a *mat.Dense, opts Options) (*Result, error) {
	return NewSolver().Decompose(a, opts)
}
