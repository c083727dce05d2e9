package exp

import (
	"testing"

	"netconstant/internal/cloud"
)

// TestMemoSharedAcrossFig6Thresholds: all six threshold points of Fig 6
// request the identical calibration tuple, so a memo computes it once and
// serves the rest from cache.
func TestMemoSharedAcrossFig6Thresholds(t *testing.T) {
	cfg := Quick()
	cfg.Memo = cloud.NewCalibrationMemo(0)
	if _, err := Fig6Threshold(cfg, nil, 0); err != nil {
		t.Fatal(err)
	}
	st := cfg.Memo.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (one measurement for the whole sweep)", st.Misses)
	}
	if st.Hits < 5 {
		t.Fatalf("hits = %d, want >= 5 (remaining threshold points)", st.Hits)
	}
}

// TestMemoDeterministicAcrossWorkers: results are byte-identical at any
// worker count and with or without a memo — hits and misses are
// indistinguishable because every calibration, memoized or not, is
// measured on a throwaway replica.
func TestMemoDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int, memo *cloud.CalibrationMemo) string {
		cfg := Quick()
		cfg.Workers = workers
		cfg.Memo = memo
		r6, err := Fig6Threshold(cfg, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		r8, err := Fig8ClusterSize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r6.Table.String() + r8.Table.String()
	}
	serial := run(1, cloud.NewCalibrationMemo(0))
	parallel := run(4, cloud.NewCalibrationMemo(0))
	if serial != parallel {
		t.Fatalf("memoized tables differ between workers=1 and workers=4:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", serial, parallel)
	}
	if memoless := run(4, nil); memoless != serial {
		t.Fatalf("tables differ without a memo:\n--- memoized ---\n%s\n--- no memo ---\n%s", serial, memoless)
	}
}

// TestMemoRepeatRunsIdentical: two memoized runs from fresh memos agree,
// i.e. the memo introduces no order-of-first-use dependence.
func TestMemoRepeatRunsIdentical(t *testing.T) {
	run := func() string {
		cfg := Quick()
		cfg.Memo = cloud.NewCalibrationMemo(0)
		r, err := Fig6Threshold(cfg, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r.Table.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("memoized runs differ:\n%s\nvs\n%s", a, b)
	}
}
