package exp

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestPointSeedStable pins the seeding scheme: seeds are pure functions
// of (figure, base, index), distinct across figures and indices, and
// never negative (rand.NewSource takes any int64, but keeping them
// positive makes them printable/debuggable).
func TestPointSeedStable(t *testing.T) {
	a := PointSeed("fig7", 1, 0)
	if PointSeed("fig7", 1, 0) != a {
		t.Fatal("PointSeed not deterministic")
	}
	seen := map[int64]string{}
	for _, fig := range []string{"fig4", "fig7", "fig12a"} {
		for base := int64(1); base <= 3; base++ {
			for i := 0; i < 50; i++ {
				s := PointSeed(fig, base, i)
				if s < 0 {
					t.Fatalf("negative seed for (%s,%d,%d)", fig, base, i)
				}
				key := fmt.Sprintf("%s/%d/%d", fig, base, i)
				if prev, ok := seen[s]; ok {
					t.Fatalf("seed collision: %s and %s", prev, key)
				}
				seen[s] = key
			}
		}
	}
}

// TestRunPointsLowestIndexError verifies the error contract: every point
// runs even after a failure, and the reported error is the lowest-index
// one regardless of scheduling.
func TestRunPointsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		errLow := errors.New("low")
		errHigh := errors.New("high")
		err := runPoints(Config{Seed: 1, Workers: workers}, "t", 16, nil, nil, func(i int, _ *rand.Rand) error {
			ran.Add(1)
			switch i {
			case 3:
				return errLow
			case 11:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: got %v, want lowest-index error", workers, err)
		}
		if ran.Load() != 16 {
			t.Fatalf("workers=%d: ran %d of 16 points", workers, ran.Load())
		}
	}
}

// figuresForDeterminism runs one figure from each port pattern and
// renders its tables.
func figuresForDeterminism(t *testing.T, cfg Config) string {
	t.Helper()
	var out string
	// Independent per-point environments.
	r4, err := Fig4Calibration(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	out += r4.Table.String()
	// Two-phase: sequential stateful inputs, parallel pure evaluation.
	r7, err := Fig7Overall(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out += r7.Table.String()
	// Independent simulated clusters per point.
	r12, err := Fig12Background(cfg, []float64{1, 10}, []float64{10 << 20, 100 << 20})
	if err != nil {
		t.Fatal(err)
	}
	out += r12.TableA.String() + r12.TableB.String()
	// Pre-derived Split streams feeding parallel noising + replay.
	r11, err := Fig11Detailed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out += r11.Table.String() + r11.CDFTable.String()
	return out
}

// TestWorkerCountInvariance is the PR's determinism acceptance test: the
// rendered tables must be byte-identical with 1 worker and with 4.
func TestWorkerCountInvariance(t *testing.T) {
	cfg1 := Quick()
	cfg1.Workers = 1
	cfg4 := Quick()
	cfg4.Workers = 4
	serial := figuresForDeterminism(t, cfg1)
	parallel := figuresForDeterminism(t, cfg4)
	if serial != parallel {
		t.Fatalf("tables differ between -workers 1 and -workers 4:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", serial, parallel)
	}
}
