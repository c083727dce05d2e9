package rpca

// The advisor's streaming session edits re-measured pair columns into a
// copy of its last calibration in place and re-solves the edited matrix
// with Solver.Decompose. These tests run that workload on the solver: one
// Solver re-solving a matrix whose columns are overwritten between solves
// must return what a fresh batch solve of the same contents returns.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"netconstant/internal/cancel"
	"netconstant/internal/mat"
)

// streamTrace builds a synthetic TP-matrix of r rows and c pair columns
// and c/2 re-measurements: columns drawn from the same planted constant
// subspace, with their own sparse spikes, that re-measure the last c/2
// pairs in order.
func streamTrace(seed int64, r, c, rank int, spikeFrac float64) (*mat.Dense, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	all := syntheticTP(rng, r, c+c/2, rank, spikeFrac)
	a := mat.NewDense(r, c)
	for i := 0; i < r; i++ {
		copy(a.Row(i), all.Row(i)[:c])
	}
	remeasured := make([][]float64, c/2)
	for k := range remeasured {
		col := make([]float64, r)
		for i := range col {
			col[i] = all.At(i, c+k)
		}
		remeasured[k] = col
	}
	return a, remeasured
}

// replaceAt returns the column index the k-th re-measurement of a
// streamTrace overwrites.
func replaceAt(a *mat.Dense, k int) int {
	_, c := a.Dims()
	return c - c/2 + k
}

// setColumn writes col into column j of a.
func setColumn(a *mat.Dense, j int, col []float64) {
	for i, v := range col {
		a.Set(i, j, v)
	}
}

// sameBits reports whether x and y hold the same float64 bit patterns.
func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// requireBatchBits fails unless got, a re-solve of a on a reused Solver,
// equals a fresh batch solve of a copy of a bit for bit: D, E, the
// constant row and the iteration record.
func requireBatchBits(t *testing.T, what string, got *Result, a *mat.Dense) {
	t.Helper()
	batch, err := NewSolver().Decompose(a.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != batch.Iterations || got.Converged != batch.Converged || got.RankD != batch.RankD {
		t.Fatalf("%s: re-solve ran %d iterations (converged %v, rank %d), batch %d (%v, %d)",
			what, got.Iterations, got.Converged, got.RankD, batch.Iterations, batch.Converged, batch.RankD)
	}
	for _, m := range []struct {
		name      string
		got, want []float64
	}{
		{"D", got.D.Data(), batch.D.Data()},
		{"E", got.E.Data(), batch.E.Data()},
		{"constant row", ConstantRow(got.D, ExtractMedian), ConstantRow(batch.D, ExtractMedian)},
	} {
		if !sameBits(m.got, m.want) {
			t.Fatalf("%s: re-solve %s differs bitwise from the batch solve", what, m.name)
		}
	}
}

// TestStreamingAgreesWithBatch runs the streaming workload on one Solver:
// solve the trace, replace the last half of its columns in place with
// re-measurements, and re-solve after every checkEvery-th replacement and
// at the end. Each re-solve must equal a fresh batch solve of a copy of
// the edited matrix bit for bit. The gate case has the shape of core's
// gate case (196 pair columns, 24 steps, 98 replacements, 7 checks); the
// rows10 case has the advisor's ten time steps per pair column.
func TestStreamingAgreesWithBatch(t *testing.T) {
	cases := []struct {
		name             string
		seed             int64
		rows, cols, rank int
		checkEvery       int // also check after every n-th replacement; 0 = only at the end
		wantChecks       int
	}{
		{"seed7", 7, 24, 196, 3, 0, 1},
		{"gate", 1, 24, 196, 3, 16, 7},
		{"rows10", 11, 10, 64, 2, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, remeasured := streamTrace(tc.seed, tc.rows, tc.cols, tc.rank, 0.05)
			s := NewSolver()
			if _, err := s.Decompose(a, Options{}); err != nil {
				t.Fatal(err)
			}
			checks := 0
			check := func(replaced int) {
				t.Helper()
				res, err := s.Decompose(a, Options{})
				if err != nil {
					t.Fatal(err)
				}
				checks++
				requireBatchBits(t, fmt.Sprintf("after %d replacements", replaced), res, a)
			}
			for k, col := range remeasured {
				setColumn(a, replaceAt(a, k), col)
				if n := k + 1; tc.checkEvery > 0 && n%tc.checkEvery == 0 && n != len(remeasured) {
					check(n)
				}
			}
			check(len(remeasured))
			if checks != tc.wantChecks {
				t.Fatalf("ran %d checks, want %d", checks, tc.wantChecks)
			}
		})
	}
}

// TestStreamingDeterminism: two identical streaming runs on one Solver
// each must produce bit-identical constant rows and iteration counts at
// every re-solve.
func TestStreamingDeterminism(t *testing.T) {
	run := func() (constants []float64, iters []int) {
		a, remeasured := streamTrace(13, 24, 128, 3, 0.05)
		s := NewSolver()
		for k, col := range remeasured {
			setColumn(a, replaceAt(a, k), col)
			if (k+1)%24 == 0 || k+1 == len(remeasured) {
				res, err := s.Decompose(a, Options{})
				if err != nil {
					t.Fatal(err)
				}
				constants = append(constants, ConstantRow(res.D, ExtractMedian)...)
				iters = append(iters, res.Iterations)
			}
		}
		return constants, iters
	}
	c1, it1 := run()
	c2, it2 := run()
	if len(it1) != 3 || len(it1) != len(it2) {
		t.Fatalf("re-solves: %d and %d, want 3", len(it1), len(it2))
	}
	for i := range it1 {
		if it1[i] != it2[i] {
			t.Fatalf("re-solve %d: %d vs %d iterations across identical runs", i, it1[i], it2[i])
		}
	}
	if !sameBits(c1, c2) {
		t.Fatal("constant rows differ bitwise across identical runs")
	}
}

// TestStreamingReplaceColumn: a re-measured pair overwrites its column in
// place; the constant row moves only at the next re-solve. An earlier
// Result owns its matrices, so the edit leaves it as it was, and the
// re-solve reads the new column.
func TestStreamingReplaceColumn(t *testing.T) {
	a, _ := streamTrace(23, 12, 64, 2, 0)
	s := NewSolver()
	first, err := s.Decompose(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	constBefore := ConstantRow(first.D, ExtractMedian)
	col := make([]float64, 12)
	for i := range col {
		col[i] = 42
	}
	setColumn(a, 3, col)
	if !sameBits(ConstantRow(first.D, ExtractMedian), constBefore) {
		t.Fatal("editing the matrix moved the constant row of an earlier solve")
	}
	res, err := s.Decompose(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The re-solve pulls the all-42 column toward the trace's low-rank
	// structure: it reads 38.6, not 42.
	if got := ConstantRow(res.D, ExtractMedian)[3]; !(math.Abs(got-38.6) <= 0.05) {
		t.Fatalf("re-solved constant of the replaced column = %v, want 38.6", got)
	}
}

// cancelAfter is a context that cancels itself on its checks+1-th Err
// call, so a solve observes the cancellation mid-iteration.
type cancelAfter struct {
	context.Context
	stop   context.CancelFunc
	checks int
}

func (c *cancelAfter) Err() error {
	if c.checks--; c.checks < 0 {
		c.stop()
	}
	return c.Context.Err()
}

// TestStreamingCancellation: a re-solve cancelled mid-iteration fails with
// the typed cancellation error and no result, and leaves nothing behind
// in the reused Solver: the next re-solve of the edited matrix equals a
// fresh batch solve bit for bit.
func TestStreamingCancellation(t *testing.T) {
	a, remeasured := streamTrace(29, 12, 32, 2, 0)
	s := NewSolver()
	if _, err := s.Decompose(a, Options{}); err != nil {
		t.Fatal(err)
	}
	for k, col := range remeasured {
		setColumn(a, replaceAt(a, k), col)
	}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	res, err := s.Decompose(a, Options{Ctx: &cancelAfter{Context: ctx, stop: stop, checks: 5}})
	var ce *cancel.Error
	if res != nil || !errors.Is(err, cancel.ErrCanceled) || !errors.As(err, &ce) || ce.Done != 5 {
		t.Fatalf("cancelled re-solve = %v, %v; want no result and cancellation at iteration 5", res, err)
	}
	res, err = s.Decompose(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireBatchBits(t, "re-solve after a cancelled one", res, a)
}
