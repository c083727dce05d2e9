package rpca

// DecomposeAPG exposes the test-only APG oracle to the external rpca_test
// package.
var DecomposeAPG = decomposeAPG

// ConstantMatrix exposes the test-only TC-matrix builder to the external
// rpca_test package.
var ConstantMatrix = constantMatrix
