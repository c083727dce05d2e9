package rpca

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"netconstant/internal/cancel"
	"netconstant/internal/mat"
)

// streamTrace builds a synthetic TP-matrix of r rows and c pair columns
// and c/2 re-measurements: columns drawn from the same planted constant
// subspace, with their own sparse spikes, that re-measure the last c/2
// pairs in order — the streaming workload production runs (seed the last
// calibration, then replace re-measured pairs).
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

// TestStreamingAgreesWithBatch is the differential-oracle acceptance test
// in the shape production runs: seed the whole trace, replace the last
// half of its columns with re-measurements, and Verify after every
// checkEvery-th replacement and at the end. Each Verify resolves, and the
// streaming state must equal a cold batch IALM solve bit for bit — D, E
// and the constant row. The batch solve runs on the test's own edited
// copy of the trace, not on the solver's column store, so the store is
// checked too, and Verify must report zero disagreement. The gate case is
// CI's stream-oracle-gate. The rows10 case has the advisor's shape (ten
// time steps per pair column).
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
			s, err := NewStreamingSolver(tc.rows, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Seed(a); err != nil {
				t.Fatal(err)
			}
			edited := a.Clone()
			checks := 0
			check := func(replaced int) {
				t.Helper()
				ag, err := s.Verify()
				if err != nil {
					t.Fatal(err)
				}
				checks++
				// Written so that a NaN agreement fails too.
				if !(ag.RelFroD == 0) || !(ag.RelFroE == 0) || !(ag.ConstantRel == 0) {
					t.Fatalf("check %d after %d replacements: streaming vs batch disagreement D %.3e, E %.3e, constant row %.3e (want 0)",
						checks, replaced, ag.RelFroD, ag.RelFroE, ag.ConstantRel)
				}
				batch, err := NewSolver().Decompose(edited, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range []struct {
					name      string
					got, want []float64
				}{
					{"D", s.last.D.Data(), batch.D.Data()},
					{"E", s.last.E.Data(), batch.E.Data()},
					{"constant row", s.Constant(), ConstantRow(batch.D, ExtractMedian)},
				} {
					if !sameBits(m.got, m.want) {
						t.Fatalf("check %d after %d replacements: streaming %s differs bitwise from the batch solve of the trace", checks, replaced, m.name)
					}
				}
			}
			for k, col := range remeasured {
				j := replaceAt(a, k)
				if err := s.ReplaceColumn(j, col); err != nil {
					t.Fatal(err)
				}
				setColumn(edited, j, col)
				if n := k + 1; tc.checkEvery > 0 && n%tc.checkEvery == 0 && n != len(remeasured) {
					check(n)
				}
			}
			check(len(remeasured))
			if checks != tc.wantChecks {
				t.Fatalf("ran %d oracle checks, want %d", checks, tc.wantChecks)
			}
			if s.ncols != tc.cols {
				t.Fatalf("columns = %d, want %d", s.ncols, tc.cols)
			}
		})
	}
}

// BenchmarkStreamingTrace times the gate trace of TestStreamingAgreesWithBatch
// (24 rows, 196 pair columns, rank 3, 5% spikes): "stream" seeds the
// trace and replaces its last 98 columns with a resolve after every 16th
// replacement and at the end; "cold" is what the batch pipeline would do
// per epoch instead, a fresh IALM solve of the edited matrix after each
// of the 98 replacements.
func BenchmarkStreamingTrace(b *testing.B) {
	a, remeasured := streamTrace(1, 24, 196, 3, 0.05)
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := NewStreamingSolver(24, StreamOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Seed(a); err != nil {
				b.Fatal(err)
			}
			for k, col := range remeasured {
				if err := s.ReplaceColumn(replaceAt(a, k), col); err != nil {
					b.Fatal(err)
				}
				if n := k + 1; n%16 == 0 || n == len(remeasured) {
					if _, err := s.Resolve(); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		mats := make([]*mat.Dense, len(remeasured))
		edited := a.Clone()
		for k, col := range remeasured {
			setColumn(edited, replaceAt(a, k), col)
			mats[k] = edited.Clone()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, m := range mats {
				if _, err := NewSolver().Decompose(m, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestStreamingDeterminism: two identical streaming runs must produce
// bit-identical constants and agreement numbers.
func TestStreamingDeterminism(t *testing.T) {
	run := func() ([]float64, StreamAgreement) {
		a, remeasured := streamTrace(13, 24, 128, 3, 0.05)
		s, err := NewStreamingSolver(24, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Seed(a); err != nil {
			t.Fatal(err)
		}
		for k, col := range remeasured {
			if err := s.ReplaceColumn(replaceAt(a, k), col); err != nil {
				t.Fatal(err)
			}
			if (k+1)%24 == 0 {
				if _, err := s.Resolve(); err != nil {
					t.Fatal(err)
				}
			}
		}
		fast := s.Constant()
		ag, err := s.Verify()
		if err != nil {
			t.Fatal(err)
		}
		return append(fast, s.Constant()...), ag
	}
	c1, ag1 := run()
	c2, ag2 := run()
	if ag1 != ag2 {
		t.Fatalf("agreement diverged: %+v vs %+v", ag1, ag2)
	}
	if !sameBits(c1, c2) {
		t.Fatal("constant rows differ bitwise across identical runs")
	}
}

// TestStreamingFastTierTracksConstant: between resolves the projection
// estimates for re-measured columns must already sit within 5% of the
// constant a batch solve of the edited matrix extracts.
func TestStreamingFastTierTracksConstant(t *testing.T) {
	a, remeasured := streamTrace(17, 24, 196, 1, 0.03)
	s, err := NewStreamingSolver(24, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seed(a); err != nil {
		t.Fatal(err)
	}
	edited := a.Clone()
	for k, col := range remeasured {
		j := replaceAt(a, k)
		if err := s.ReplaceColumn(j, col); err != nil {
			t.Fatal(err)
		}
		setColumn(edited, j, col)
	}
	// No resolve since seeding: the replaced columns carry fast-tier
	// estimates. Batch-decompose the edited matrix as the oracle.
	batch, err := NewSolver().Decompose(edited, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := ConstantRow(batch.D, ExtractMedian)
	got := s.Constant()
	j0 := replaceAt(a, 0)
	if tail := RelDiff(got[j0:], oracle[j0:]); tail > 0.05 {
		t.Fatalf("fast-tier constant estimates off by %.3f relative (want <= 0.05)", tail)
	}
	if rel := s.RelNormE(); rel < 0 || rel > 1 {
		t.Fatalf("RelNormE out of range: %v", rel)
	}
}

// TestStreamingReplaceColumn: a re-measured pair must refresh both the
// stored column and its constant estimate.
func TestStreamingReplaceColumn(t *testing.T) {
	seedM, _ := streamTrace(23, 12, 64, 2, 0)
	s, err := NewStreamingSolver(12, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seed(seedM); err != nil {
		t.Fatal(err)
	}
	col := make([]float64, 12)
	for i := range col {
		col[i] = 42
	}
	if err := s.ReplaceColumn(3, col); err != nil {
		t.Fatal(err)
	}
	if got := s.Constant()[3]; math.Abs(got-42) > 1 {
		t.Fatalf("replaced column constant = %v, want ~42", got)
	}
	if err := s.ReplaceColumn(99, col); err == nil {
		t.Fatal("out-of-range replace did not error")
	}
	if err := s.ReplaceColumn(0, col[:5]); err == nil {
		t.Fatal("short column did not error")
	}
}

// TestStreamingCancellation: a cancelled context must abort seeding with
// the typed cancellation error before any column is ingested.
func TestStreamingCancellation(t *testing.T) {
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	s, err := NewStreamingSolver(12, StreamOptions{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := streamTrace(29, 12, 32, 2, 0)
	if err := s.Seed(a); !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("Seed err = %v, want cancellation", err)
	}
	if s.ncols != 0 {
		t.Fatalf("cancelled seed still ingested %d columns", s.ncols)
	}
}

// TestStreamingRejectsBadInput: NaN/Inf measurement columns and shape
// mismatches must be rejected before touching state.
func TestStreamingRejectsBadInput(t *testing.T) {
	s, err := NewStreamingSolver(8, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(); err == nil {
		t.Fatal("empty resolve did not error")
	}
	a, _ := streamTrace(31, 8, 32, 2, 0)
	if err := s.Seed(a); err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), s.colData...)
	constBefore := s.Constant()
	bad := make([]float64, 8)
	bad[3] = math.NaN()
	if err := s.ReplaceColumn(2, bad); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("NaN column err = %v, want ErrNonFinite", err)
	}
	bad[3] = math.Inf(1)
	if err := s.ReplaceColumn(2, bad); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("Inf column err = %v, want ErrNonFinite", err)
	}
	if err := s.ReplaceColumn(2, make([]float64, 5)); err == nil {
		t.Fatal("short column did not error")
	}
	if !sameBits(s.colData, before) || !sameBits(s.Constant(), constBefore) || s.dirty {
		t.Fatal("rejected columns touched the solver's state")
	}
	if _, err := NewStreamingSolver(0, StreamOptions{}); err == nil {
		t.Fatal("rows=0 did not error")
	}
}
