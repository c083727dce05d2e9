package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

func TestExtEconomicsShape(t *testing.T) {
	cfg := quick()
	res, err := ExtEconomics(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// RPCA broadcast saves money per run, so break-even is finite, and with
	// enough runs the net is positive under per-second billing.
	if math.IsInf(res.BreakEvenRuns, 1) {
		t.Fatal("optimization should save money per run")
	}
	if res.BreakEvenRuns <= 0 {
		t.Errorf("break-even %v should be positive (calibration costs money)", res.BreakEvenRuns)
	}
	if len(res.Table.Rows) != 2 {
		t.Error("two billing rows expected")
	}
}

func TestExtCollectivesShape(t *testing.T) {
	cfg := quick()
	res, err := ExtCollectives(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gb := res.Elapsed["gather+broadcast (paper)"]
	pw := res.Elapsed["pairwise exchange"]
	if gb <= 0 || pw <= 0 {
		t.Fatal("elapsed times missing")
	}
	// Pairwise exchange parallelizes across ranks; the rooted
	// gather+broadcast funnels everything through one node and should be
	// slower for the same volume.
	if pw >= gb {
		t.Errorf("pairwise %v expected to beat gather+broadcast %v", pw, gb)
	}
}

func TestExtCoordinatesShape(t *testing.T) {
	cfg := quick()
	res, err := ExtCoordinates(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The cluster's transfer-time matrix must violate the triangle
	// inequality (that is the paper's argument).
	if res.TriangleViolationRate < 0.01 {
		t.Errorf("triangle violation rate %.4f too small", res.TriangleViolationRate)
	}
	// And the coordinate embedding must be clearly worse than the RPCA
	// constant at predicting pair-wise performance.
	if res.VivaldiMedianErr <= res.RPCAMedianErr {
		t.Errorf("Vivaldi (%.3f) should be worse than RPCA (%.3f)",
			res.VivaldiMedianErr, res.RPCAMedianErr)
	}
	if res.RPCAMedianErr > 0.10 {
		t.Errorf("RPCA constant median error %.3f unexpectedly large", res.RPCAMedianErr)
	}
}

func TestExtWorkflowShape(t *testing.T) {
	cfg := quick()
	res, err := ExtWorkflow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rpca := res.Normalized["HEFT + RPCA"]
	blind := res.Normalized["HEFT (blind)"]
	if rpca >= 1 {
		t.Errorf("RPCA-guided HEFT %v should beat round-robin", rpca)
	}
	if rpca > blind+0.02 {
		t.Errorf("RPCA-guided HEFT (%v) should not lose to blind HEFT (%v)", rpca, blind)
	}
	if res.Normalized["round-robin"] != 1 {
		t.Error("normalization")
	}
}

func TestAccuracyStudyShape(t *testing.T) {
	cfg := quick()
	cfg.SimVMs = 10
	cfg.Runs = 10
	cfg.TimeStep = 5
	res, err := AccuracyStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := res.MeanRelDiff["Baseline"]
	rpca := res.MeanRelDiff["RPCA"]
	if base <= 0 || rpca <= 0 {
		t.Fatal("relative differences missing")
	}
	// The α-β estimator must track live execution within tens of percent.
	if base > 0.6 || rpca > 0.6 {
		t.Errorf("estimation error too large: base %.3f rpca %.3f", base, rpca)
	}
	// The paper finds RPCA's schedules easier to predict than Baseline's;
	// allow a tolerance band rather than a strict inequality.
	if rpca > base+0.10 {
		t.Errorf("RPCA estimation error %.3f should not exceed baseline %.3f by much", rpca, base)
	}
}

func TestTableJSON(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow("1", "2")
	tb.AddNote("n")
	data, err := tb.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes"`
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Title != "x" || len(back.Rows) != 1 || back.Rows[0][1] != "2" || back.Notes[0] != "n" {
		t.Errorf("round trip: %+v", back)
	}
}

// TestExtStreamingShape: the four guidance rows re-measure 0, 12, and
// every off-diagonal pair twice, and each constant's error against the
// ground truth is a measurement: positive (noisy probes never recover the
// truth exactly) and small.
func TestExtStreamingShape(t *testing.T) {
	cfg := quick()
	cfg.VMs = 8
	tb, err := ExtStreaming(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 || len(tb.Notes) != 2 {
		t.Fatalf("table shape: %d rows %d notes", len(tb.Rows), len(tb.Notes))
	}
	for i, want := range []string{"0", "12", "56", "56"} {
		row := tb.Rows[i]
		if row[1] != want {
			t.Errorf("row %q re-measured %s pairs, want %s", row[0], row[1], want)
		}
		for _, cell := range row[2:] {
			var v float64
			if _, err := fmt.Sscanf(cell, "%g", &v); err != nil {
				t.Fatalf("cell %q: %v", cell, err)
			}
			if !(v > 0 && v < 0.1) {
				t.Errorf("row %q: relative L1 error %s outside (0, 0.1)", row[0], cell)
			}
		}
	}
}

func TestExtClosShape(t *testing.T) {
	cfg := quick()
	res, err := ExtClos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("quick sweep has %d points", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Machines < 64 || p.Nodes <= p.Machines || p.Links < p.Machines {
			t.Errorf("fabric shape implausible: %+v", p)
		}
		// Clos cross-leaf pairs dominate, so ECMP must have resolved some
		// pairs over multiple equal-cost paths.
		if p.PairsMulti == 0 || p.PairsMulti > p.PairsTotal {
			t.Errorf("multipath pair count %d/%d", p.PairsMulti, p.PairsTotal)
		}
		if p.Components < 1 || p.Flows < p.Components {
			t.Errorf("refill shape: %d components, %d flows", p.Components, p.Flows)
		}
		// The two allocator backends must agree to floating-point noise.
		if p.Agreement > 1e-9 {
			t.Errorf("allocator agreement %g", p.Agreement)
		}
		if !(p.NormE >= 0) {
			t.Errorf("Norm(N_E) = %v", p.NormE)
		}
	}
	if len(res.Table.Rows) != 2 {
		t.Error("table rows")
	}
}
