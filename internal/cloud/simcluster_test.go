package cloud

import (
	"testing"

	"netconstant/internal/topo"
)

// TestSnapshotRecomputesMatchReference arms the whole-network reference
// fill on Fig 13's cluster shrunk to 8×8 racks (uplinks twice the server
// links, hot-rack 64 MB Poisson background, 1 MB probes) and takes three
// SnapshotTP rows, then drains. Pingpong probes make most departures
// quiet, so rates are restored without a fill hundreds of times, and the
// single-flow server links fold into most fill rounds; every update,
// restore or fill, must agree with the reference bit for bit.
func TestSnapshotRecomputesMatchReference(t *testing.T) {
	sc := NewSimCluster(SimClusterConfig{
		Tree:      topo.TreeConfig{Racks: 8, ServersPerRack: 8, IntraRackBps: 1e9 / 8, InterRackBps: 2e9 / 8},
		VMs:       8,
		Seed:      3,
		BgLinks:   16,
		BgBytes:   64 << 20,
		BgLambda:  1,
		HotRacks:  4,
		ProbeBulk: 1 << 20,
	})
	s := sc.Sim
	s.SetVerifyGlobal(true)
	SnapshotTP(sc, 3, 5)
	sc.StopBackground()
	for steps := 0; s.Eng.Step(); steps++ {
		if steps > 1_000_000 {
			t.Fatalf("simulator still busy after %d events with the background stopped", steps)
		}
	}
	if err := s.VerifyError(); err != nil {
		t.Fatalf("incremental allocation diverged from the reference fill: %v", err)
	}
}

// BenchmarkSimClusterSnapshot times the simulator side of one Fig 13
// point: the golden test's cluster at seed 1, ten SnapshotTP rows, then
// the background stopped and the simulator drained. Nearly all of it is
// simnet's max-min recompute.
func BenchmarkSimClusterSnapshot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := NewSimCluster(SimClusterConfig{
			Tree:      topo.TreeConfig{Racks: 32, ServersPerRack: 32, IntraRackBps: 1e9 / 8, InterRackBps: 2e9 / 8},
			VMs:       32,
			Seed:      1,
			BgLinks:   64,
			BgBytes:   64 << 20,
			BgLambda:  1,
			HotRacks:  16,
			ProbeBulk: 1 << 20,
		})
		SnapshotTP(sc, 10, 5)
		sc.StopBackground()
		for sc.Sim.Eng.Step() {
		}
	}
}
