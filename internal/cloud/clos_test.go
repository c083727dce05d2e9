package cloud

import (
	"testing"

	"netconstant/internal/topo"
)

// TestClosRefillMatchesReference checks the component-sharded max-min
// fill on a loaded 4096-machine ECMP Clos fabric (one 32 MiB background
// source per 16 machines, a 16-VM cluster, 1 MiB probes). The
// whole-network reference fill is armed before the warm-up, so every
// incremental recompute of the warm-up and of 2000 engine steps is
// re-derived from scratch and must agree bit for bit. Whole-network
// refills are semantic no-ops, so two more must not move a rate bit.
func TestClosRefillMatchesReference(t *testing.T) {
	const machines = 4096
	fabric, err := topo.NewClosE(topo.ClosShape(machines))
	if err != nil {
		t.Fatal(err)
	}
	sc := NewSimCluster(SimClusterConfig{
		Topo:      fabric,
		VMs:       16,
		Seed:      42,
		BgLinks:   machines / 16,
		BgBytes:   32 << 20,
		BgLambda:  1,
		ProbeBulk: 1 << 20,
	})
	defer sc.StopBackground()
	s := sc.Sim
	s.SetVerifyGlobal(true)

	sc.AdvanceTime(2)
	for n := 0; n < 2000; n++ {
		if !s.Eng.Step() {
			t.Fatalf("event queue drained after %d steps", n)
		}
	}
	if err := s.VerifyError(); err != nil {
		t.Fatalf("incremental fill diverged from the reference fill: %v", err)
	}

	before := s.RateFingerprint()
	comps, flows := s.RefillAll()
	s.RefillAll()
	if after := s.RateFingerprint(); after != before {
		t.Fatalf("refill moved the rate fingerprint: %#x -> %#x", before, after)
	}
	if err := s.VerifyError(); err != nil {
		t.Fatalf("refill diverged from the reference fill: %v", err)
	}
	if flows == 0 || flows != s.ActiveFlows() {
		t.Fatalf("refill visited %d flows, want all %d active flows (> 0)", flows, s.ActiveFlows())
	}
	total, multi := s.ECMPPairs()
	if multi == 0 {
		t.Fatalf("none of %d routed pairs is multipath: the fabric exercised no ECMP", total)
	}
	t.Logf("%d active flows in %d components; %d routed pairs, %d multipath", flows, comps, total, multi)
}
