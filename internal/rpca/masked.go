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
