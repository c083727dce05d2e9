package rpca

import "netconstant/internal/mat"

// DecomposeAPG exposes the test-only APG oracle to the external rpca_test
// package.
var DecomposeAPG = decomposeAPG

// DecomposeMasked runs the masked solver on a throwaway Solver.
func DecomposeMasked(a, mask *mat.Dense, opts Options) (*Result, error) {
	return NewSolver().DecomposeMasked(a, mask, opts)
}

// ConstantMatrix exposes the test-only TC-matrix builder to the external
// rpca_test package.
var ConstantMatrix = constantMatrix
