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

// streamTrace builds a synthetic TP-matrix and returns it split as a seed
// prefix plus the remaining columns in arrival order — the streaming
// workload: every column shares the same planted constant subspace, with
// sparse spikes.
func streamTrace(seed int64, r, c, rank int, spikeFrac float64) (*mat.Dense, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	a := syntheticTP(rng, r, c, rank, spikeFrac)
	seedCols := c / 2
	pre := mat.NewDense(r, seedCols)
	for i := 0; i < r; i++ {
		copy(pre.Row(i), a.Row(i)[:seedCols])
	}
	var rest [][]float64
	for j := seedCols; j < c; j++ {
		col := make([]float64, r)
		for i := 0; i < r; i++ {
			col[i] = a.At(i, j)
		}
		rest = append(rest, col)
	}
	return pre, rest
}

// traceMatrix rebuilds the first seed-width+n columns of a streamTrace as
// a fresh matrix, independent of the streaming solver's column store.
func traceMatrix(pre *mat.Dense, rest [][]float64, n int) *mat.Dense {
	r, c0 := pre.Dims()
	a := mat.NewDense(r, c0+n)
	for i := 0; i < r; i++ {
		copy(a.Row(i), pre.Row(i))
		for j, col := range rest[:n] {
			a.Set(i, c0+j, col[i])
		}
	}
	return a
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

// TestStreamingAgreesWithBatch is the differential-oracle acceptance test:
// after seeding, appending the rest of a trace column-by-column and
// resolving, the streaming state must equal a cold batch IALM solve bit
// for bit — D, E and the constant row. The batch solve runs on the test's
// own copy of the trace, not on s.Matrix(), so the column store is checked
// too, and Verify must report zero disagreement. The gate case is CI's
// stream-oracle-gate: resolves every 16 columns, and the oracle runs
// after every 16th appended column as well as at the end. The rows10 case
// has the advisor's shape (ten time steps per pair column).
func TestStreamingAgreesWithBatch(t *testing.T) {
	cases := []struct {
		name             string
		seed             int64
		rows, cols, rank int
		opts             StreamOptions
		checkEvery       int // also check after every n-th appended column; 0 = only at the end
		wantChecks       int
	}{
		{"seed7", 7, 24, 196, 3, StreamOptions{}, 0, 1},
		{"gate", 1, 24, 196, 3, StreamOptions{ResolveEvery: 16}, 16, 7},
		{"rows10", 11, 10, 64, 2, StreamOptions{}, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seedM, rest := streamTrace(tc.seed, tc.rows, tc.cols, tc.rank, 0.05)
			s, err := NewStreamingSolver(tc.rows, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Seed(seedM); err != nil {
				t.Fatal(err)
			}
			checks := 0
			check := func(appended int) {
				t.Helper()
				ag, err := s.Verify()
				if err != nil {
					t.Fatal(err)
				}
				checks++
				// Written so that a NaN agreement fails too.
				if !(ag.RelFroD == 0) || !(ag.RelFroE == 0) || !(ag.ConstantRel == 0) {
					t.Fatalf("check %d at %d columns: streaming vs batch disagreement D %.3e, E %.3e, constant row %.3e (want 0)",
						checks, s.Columns(), ag.RelFroD, ag.RelFroE, ag.ConstantRel)
				}
				batch, err := NewSolver().Decompose(traceMatrix(seedM, rest, appended), tc.opts.Solve)
				if err != nil {
					t.Fatal(err)
				}
				got := s.LastResult()
				for _, m := range []struct {
					name      string
					got, want []float64
				}{
					{"D", got.D.Data(), batch.D.Data()},
					{"E", got.E.Data(), batch.E.Data()},
					{"constant row", s.Constant(), ConstantRow(batch.D, tc.opts.Extract)},
				} {
					if !sameBits(m.got, m.want) {
						t.Fatalf("check %d at %d columns: streaming %s differs bitwise from the batch solve of the trace", checks, s.Columns(), m.name)
					}
				}
			}
			for i, col := range rest {
				if err := s.AppendColumn(col); err != nil {
					t.Fatal(err)
				}
				if n := i + 1; tc.checkEvery > 0 && n%tc.checkEvery == 0 && n != len(rest) {
					check(n)
				}
			}
			check(len(rest))
			if checks != tc.wantChecks {
				t.Fatalf("ran %d oracle checks, want %d", checks, tc.wantChecks)
			}
			if st := s.Stats(); st.Columns != tc.cols {
				t.Fatalf("columns = %d, want %d", st.Columns, tc.cols)
			}
		})
	}
}

// BenchmarkStreamingTrace times the gate trace of TestStreamingAgreesWithBatch
// (24 rows, 196 pair columns, rank 3, 5% spikes): "stream" seeds 98
// columns and appends the other 98 with a resolve every 16; "cold" is what
// the batch pipeline would do per epoch instead, a fresh IALM solve of the
// matrix so far on each of the 98 arrivals.
func BenchmarkStreamingTrace(b *testing.B) {
	seedM, rest := streamTrace(1, 24, 196, 3, 0.05)
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := NewStreamingSolver(24, StreamOptions{ResolveEvery: 16})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Seed(seedM); err != nil {
				b.Fatal(err)
			}
			for _, col := range rest {
				if err := s.AppendColumn(col); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		mats := make([]*mat.Dense, len(rest))
		for n := range rest {
			mats[n] = traceMatrix(seedM, rest, n+1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, a := range mats {
				if _, err := NewSolver().Decompose(a, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestStreamingDeterminism: two identical streaming runs must produce
// bit-identical constants, agreement numbers and counters.
func TestStreamingDeterminism(t *testing.T) {
	run := func() ([]float64, StreamStats) {
		seedM, rest := streamTrace(13, 24, 128, 3, 0.05)
		s, err := NewStreamingSolver(24, StreamOptions{ResolveEvery: 24})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Seed(seedM); err != nil {
			t.Fatal(err)
		}
		for _, col := range rest {
			if err := s.AppendColumn(col); err != nil {
				t.Fatal(err)
			}
		}
		return s.Constant(), s.Stats()
	}
	c1, st1 := run()
	c2, st2 := run()
	if st1 != st2 {
		t.Fatalf("stats diverged: %+v vs %+v", st1, st2)
	}
	for j := range c1 {
		if math.Float64bits(c1[j]) != math.Float64bits(c2[j]) {
			t.Fatalf("constant[%d] differs bitwise across identical runs", j)
		}
	}
}

// TestStreamingFastTierTracksConstant: between resolves the projection
// estimates for fresh columns must already sit near the planted constant
// (the raw column medians would too, but the projection must not be worse).
func TestStreamingFastTierTracksConstant(t *testing.T) {
	seedM, rest := streamTrace(17, 24, 196, 1, 0.03)
	s, err := NewStreamingSolver(24, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seed(seedM); err != nil {
		t.Fatal(err)
	}
	for _, col := range rest {
		if err := s.AppendColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	// No resolve since seeding: columns past the seed width carry
	// fast-tier estimates. Batch-decompose the full matrix as the oracle.
	batch, err := NewSolver().Decompose(s.Matrix(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := ConstantRow(batch.D, ExtractMedian)
	got := s.Constant()
	tail := RelDiff(got[98:], oracle[98:])
	if tail > 0.05 {
		t.Fatalf("fast-tier constant estimates off by %.3f relative (want <= 0.05)", tail)
	}
	if rel := s.RelNormE(); rel < 0 || rel > 1 {
		t.Fatalf("RelNormE out of range: %v", rel)
	}
}

// TestStreamingResolveCadence: ResolveEvery must trigger authoritative
// resolves at the configured cadence.
func TestStreamingResolveCadence(t *testing.T) {
	seedM, rest := streamTrace(19, 12, 64, 2, 0.05)
	s, err := NewStreamingSolver(12, StreamOptions{ResolveEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seed(seedM); err != nil {
		t.Fatal(err)
	}
	for _, col := range rest {
		if err := s.AppendColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	want := 1 + len(rest)/8 // seed resolve + one per 8 appended columns
	if st.Resolves != want {
		t.Fatalf("resolves = %d, want %d", st.Resolves, want)
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

// TestStreamingCancellation: a cancelled context must abort appends and
// seeding with the typed cancellation error.
func TestStreamingCancellation(t *testing.T) {
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	s, err := NewStreamingSolver(12, StreamOptions{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	col := make([]float64, 12)
	if err := s.AppendColumn(col); !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("AppendColumn err = %v, want cancellation", err)
	}
	seedM, _ := streamTrace(29, 12, 32, 2, 0)
	if err := s.Seed(seedM); !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("Seed err = %v, want cancellation", err)
	}
	if s.Columns() != 0 {
		t.Fatalf("cancelled appends still ingested %d columns", s.Columns())
	}
}

// TestStreamingRejectsBadInput: NaN/Inf measurement columns and shape
// mismatches must be rejected before touching state.
func TestStreamingRejectsBadInput(t *testing.T) {
	s, err := NewStreamingSolver(8, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]float64, 8)
	bad[3] = math.NaN()
	if err := s.AppendColumn(bad); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("NaN column err = %v, want ErrNonFinite", err)
	}
	if err := s.AppendColumn(make([]float64, 5)); err == nil {
		t.Fatal("short column did not error")
	}
	if s.Columns() != 0 {
		t.Fatal("rejected columns were ingested")
	}
	if _, err := s.Resolve(); err == nil {
		t.Fatal("empty resolve did not error")
	}
	if _, err := NewStreamingSolver(0, StreamOptions{}); err == nil {
		t.Fatal("rows=0 did not error")
	}
}
