package rpca

import (
	"errors"
	"fmt"
	"math"

	"netconstant/internal/mat"
)

// ErrNonFinite is the sentinel wrapped by NonFiniteError: the input matrix
// contains a NaN or ±Inf entry. RPCA iterations silently propagate
// non-finite values into every entry of D and E, so the solvers reject
// such inputs up front instead of returning a corrupt decomposition.
var ErrNonFinite = errors.New("rpca: non-finite input")

// NonFiniteError reports the first non-finite entry found in an input
// matrix. It unwraps to ErrNonFinite.
type NonFiniteError struct {
	Row, Col int
	Value    float64
}

// Error formats the offending position and value.
func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("rpca: non-finite input at (%d,%d): %v", e.Row, e.Col, e.Value)
}

// Unwrap makes errors.Is(err, ErrNonFinite) work.
func (e *NonFiniteError) Unwrap() error { return ErrNonFinite }

// ErrEmptyMask is returned by DecomposeMasked when the mask observes no
// entry at all — there is nothing to decompose.
var ErrEmptyMask = errors.New("rpca: mask observes no entries")

// checkFinite scans a matrix and returns a *NonFiniteError for the first
// NaN/Inf entry, or nil if all entries are finite.
func checkFinite(a *mat.Dense) error {
	_, c := a.Dims()
	for idx, v := range a.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return &NonFiniteError{Row: idx / c, Col: idx % c, Value: v}
		}
	}
	return nil
}

// DecomposeMasked solves RPCA with missing entries: given an observation
// mask Ω (mask cell > 0.5 ⇔ observed), it finds D low-rank and E sparse
// with P_Ω(A) = P_Ω(D + E), leaving the unobserved entries of A free. This
// is the IALM iteration with missing-entry projection: each round the
// unobserved entries of the working matrix are refreshed from the current
// D + E (so they exert no pull of their own), the sparse component is
// confined to Ω (no error term can live where nothing was measured), and
// the multiplier/residual updates only count observed entries.
//
// Calibrations with probe gaps use this instead of zero-filling: a zero
// bandwidth cell fed to the unmasked solver looks like an extreme outlier
// and corrupts the constant component, whereas the mask lets the low-rank
// structure interpolate the gap.
//
// A nil mask (or an all-ones mask) reduces to Decompose.
//
// Each call builds a throwaway Solver; hot paths should hold a Solver and
// call its DecomposeMasked to reuse the arena and SVT warm state.
func DecomposeMasked(a, mask *mat.Dense, opts Options) (*Result, error) {
	return NewSolver().DecomposeMasked(a, mask, opts)
}
