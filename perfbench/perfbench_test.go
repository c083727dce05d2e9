package main

import (
	"context"
	"testing"
	"time"
)

func TestTailRuleNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{2000, 0.99, true}, // 20 beyond p99
		{1000, 0.99, true}, // exactly 10 beyond p99
		{900, 0.95, true},  // 9 beyond p99, so p95
		{150, 0.90, true},  // 7 beyond p95, 15 beyond p90
		{60, 0.75, true},   // 6 beyond p90, 15 beyond p75
		{30, 0, false},     // 8 beyond p75
	}
	for _, tc := range cases {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		q, ok := tailRule(xs)
		if q != tc.want || ok != tc.ok {
			t.Errorf("n=%d: tailRule = %v, %v; want %v, %v", tc.n, q, ok, tc.want, tc.ok)
		}
	}
}

func TestTailRuleCountsStrictlyBeyond(t *testing.T) {
	// Ties at the percentile do not lie beyond it: with every sample
	// equal, no rung qualifies however large the sample.
	xs := make([]float64, 5000)
	if q, ok := tailRule(xs); ok {
		t.Fatalf("tailRule on constant sample = %v, want none", q)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 30, end: 50}, // overlaps a: union of a,b is 10..50
		{name: "c", parent: 0, start: 70, end: 80},
		{name: "a1", parent: 1, start: 15, end: 25},
		// A replica child replays its parent's work after the op: it lies
		// outside the parent and still counts against it.
		{name: "r", parent: 3, start: 200, end: 230},
	}
	self, gap := selfTimes(spans)
	want := []int64{50, 20, 20, 0, 10, 30}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].name, self[i], want[i])
		}
	}
	// c lasts 10 but its replica child 30: 20 is clipped into the gap.
	if gap != 20 {
		t.Errorf("gap = %d, want 20", gap)
	}
}

func TestSelfTimesAddUpToWallTime(t *testing.T) {
	// Sequential children, one of them replayed on a replica after the
	// op: self times minus the gap add up to the op's wall time.
	spans := []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "serve", parent: 0, start: 5, end: 95},
		{name: "plan", parent: 1, start: 120, end: 180},
		{name: "weights", parent: 2, start: 180, end: 220},
		{name: "fnf", parent: 2, start: 220, end: 250},
	}
	self, gap := selfTimes(spans)
	var sum int64
	for _, s := range self {
		sum += s
	}
	if sum-gap != 100 || gap != 10 {
		t.Errorf("self times %v sum to %d with gap %d, want 100 after a gap of 10", self, sum, gap)
	}
}

func TestUnionLen(t *testing.T) {
	iv := [][2]int64{{5, 7}, {0, 2}, {1, 3}, {3, 4}, {10, 10}}
	if got := unionLen(iv); got != 4+2 {
		t.Fatalf("unionLen = %d, want 6", got)
	}
}

// TestDigestDeterministic runs each workload, shrunk to a tiny size and
// to its digest prefix alone, twice at one seed and expects the same
// digest both times, and a traced pass to match the untraced one.
func TestDigestDeterministic(t *testing.T) {
	ctx := context.Background()
	tiny := []workload{
		{name: "advise", setup: func(ctx context.Context, e env) (instance, error) {
			return setupDaemon(ctx, e, daemonCfg{name: "advise", tenants: 2, vms: 8})
		}},
		{name: "recalibrate", setup: func(ctx context.Context, e env) (instance, error) {
			return setupDaemon(ctx, e, daemonCfg{name: "recalibrate", tenants: 2, vms: 8, recal: true})
		}},
		{name: "simulate", setup: func(ctx context.Context, e env) (instance, error) {
			return setupSimulate(ctx, e, simCfg{racks: 4, serversPerRack: 4, vms: 6, hotRacks: 2})
		}},
	}
	for _, w := range tiny {
		w.prefix = 3
		t.Run(w.name, func(t *testing.T) {
			e := env{seed: 7, clients: 2, work: t.TempDir(), prefix: w.prefix}
			var digests []string
			for _, traced := range []bool{false, false, true} {
				e.traced = traced
				var tr *tracer
				if traced {
					tr = newTracer(e.clients)
				}
				p, err := runPass(ctx, &w, e, time.Nanosecond, 1, tr)
				if err != nil {
					t.Fatal(err)
				}
				if p.failed != 0 {
					t.Fatalf("traced=%v: %d failed ops, first: %v", traced, p.failed, p.firstFail)
				}
				digests = append(digests, p.digest)
			}
			if digests[0] != digests[1] || digests[0] != digests[2] {
				t.Fatalf("digests %v differ", digests)
			}
		})
	}
}
