package apps

import (
	"math"
	"strings"
	"testing"

	"netconstant/internal/mpi"
	"netconstant/internal/netmodel"
)

func uniformNet(n int, alpha, beta float64) *mpi.AnalyticNet {
	pm := netmodel.NewPerfMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				pm.SetLink(i, j, netmodel.Link{Alpha: alpha, Beta: beta})
			}
		}
	}
	return mpi.NewAnalyticNet(pm)
}

func TestBreakdown(t *testing.T) {
	b := Breakdown{Computation: 1, Communication: 2, Overhead: 3}
	if b.Total() != 6 {
		t.Error("total")
	}
	if !strings.Contains(b.String(), "total=") {
		t.Error("string")
	}
}

func TestNBodyRuns(t *testing.T) {
	n := 4
	tr := mpi.BinomialTree(n, 0)
	res, err := RunNBody(uniformNet(n, 1e-4, 1e8), tr, tr, NBodyConfig{
		Bodies: 64, Steps: 5, Ranks: n, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.Communication <= 0 || res.Breakdown.Computation <= 0 {
		t.Errorf("breakdown %v", res.Breakdown)
	}
	if res.Energy <= 0 || math.IsNaN(res.Energy) {
		t.Errorf("energy %v", res.Energy)
	}
}

func TestNBodyDeterministic(t *testing.T) {
	n := 4
	tr := mpi.BinomialTree(n, 0)
	run := func() float64 {
		res, err := RunNBody(uniformNet(n, 1e-4, 1e8), tr, tr, NBodyConfig{
			Bodies: 32, Steps: 3, Ranks: n, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Energy
	}
	if run() != run() {
		t.Error("N-body not deterministic")
	}
}

func TestNBodyMsgBytesOverride(t *testing.T) {
	n := 4
	tr := mpi.BinomialTree(n, 0)
	small, _ := RunNBody(uniformNet(n, 0, 1e6), tr, tr, NBodyConfig{Bodies: 32, Steps: 2, Ranks: n, MsgBytes: 1 << 10})
	large, _ := RunNBody(uniformNet(n, 0, 1e6), tr, tr, NBodyConfig{Bodies: 32, Steps: 2, Ranks: n, MsgBytes: 1 << 20})
	if large.Breakdown.Communication <= small.Breakdown.Communication {
		t.Error("bigger messages should cost more communication")
	}
}

func TestNBodyCommScalesWithSteps(t *testing.T) {
	n := 4
	tr := mpi.BinomialTree(n, 0)
	r1, _ := RunNBody(uniformNet(n, 0, 1e6), tr, tr, NBodyConfig{Bodies: 32, Steps: 2, Ranks: n, Seed: 1})
	r2, _ := RunNBody(uniformNet(n, 0, 1e6), tr, tr, NBodyConfig{Bodies: 32, Steps: 4, Ranks: n, Seed: 1})
	ratio := r2.Breakdown.Communication / r1.Breakdown.Communication
	if math.Abs(ratio-2) > 0.01 {
		t.Errorf("communication should double with steps: ratio %v", ratio)
	}
}

func TestNBodyErrors(t *testing.T) {
	tr := mpi.BinomialTree(4, 0)
	if _, err := RunNBody(uniformNet(4, 0, 1), tr, tr, NBodyConfig{}); err == nil {
		t.Error("zero config should error")
	}
	if _, err := RunNBody(uniformNet(4, 0, 1), tr, tr, NBodyConfig{Bodies: 8, Steps: 1, Ranks: 5}); err == nil {
		t.Error("rank mismatch should error")
	}
}

func TestCGRunsAndConverges(t *testing.T) {
	n := 4
	tr := mpi.BinomialTree(n, 0)
	res, err := RunCG(uniformNet(n, 1e-4, 1e8), tr, tr, CGConfig{VectorSize: 400, Ranks: n})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("CG did not converge: %d iters residual %v", res.Iterations, res.Residual)
	}
	if res.Breakdown.Communication <= 0 || res.Breakdown.Computation <= 0 {
		t.Errorf("breakdown %v", res.Breakdown)
	}
	if res.Iterations <= 0 {
		t.Error("iterations")
	}
}

func TestCGMoreUnknownsMoreIterations(t *testing.T) {
	// The paper's Fig 9a rationale: larger vectors need more iterations, so
	// communication time grows and network-aware optimization pays off.
	n := 4
	tr := mpi.BinomialTree(n, 0)
	small, err := RunCG(uniformNet(n, 0, 1e8), tr, tr, CGConfig{VectorSize: 100, Ranks: n})
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunCG(uniformNet(n, 0, 1e8), tr, tr, CGConfig{VectorSize: 2500, Ranks: n})
	if err != nil {
		t.Fatal(err)
	}
	if large.Iterations <= small.Iterations {
		t.Errorf("iterations %d vs %d", large.Iterations, small.Iterations)
	}
	if large.Breakdown.Communication <= small.Breakdown.Communication {
		t.Error("communication should grow with problem size")
	}
}

func TestCGErrors(t *testing.T) {
	tr := mpi.BinomialTree(4, 0)
	if _, err := RunCG(uniformNet(4, 0, 1), tr, tr, CGConfig{}); err == nil {
		t.Error("zero config should error")
	}
	if _, err := RunCG(uniformNet(4, 0, 1), tr, tr, CGConfig{VectorSize: 10, Ranks: 3}); err == nil {
		t.Error("rank mismatch should error")
	}
}

func TestFasterNetworkReducesOnlyCommunication(t *testing.T) {
	n := 4
	tr := mpi.BinomialTree(n, 0)
	slow, _ := RunNBody(uniformNet(n, 1e-4, 1e6), tr, tr, NBodyConfig{Bodies: 32, Steps: 3, Ranks: n, Seed: 2})
	fast, _ := RunNBody(uniformNet(n, 1e-4, 1e9), tr, tr, NBodyConfig{Bodies: 32, Steps: 3, Ranks: n, Seed: 2})
	if fast.Breakdown.Communication >= slow.Breakdown.Communication {
		t.Error("faster network should reduce communication time")
	}
	if math.Abs(fast.Breakdown.Computation-slow.Breakdown.Computation) > 1e-12 {
		t.Error("computation time should be unaffected by the network")
	}
}
