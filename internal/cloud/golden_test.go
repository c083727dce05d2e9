package cloud

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"netconstant/internal/netmodel"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// skipOffAMD64 skips a golden hash computed on amd64, where the compiler
// never fuses x*y+z. On arm64, ppc64, s390x and riscv64 it may emit one
// fused multiply-add, which rounds once and so moves the hashed bits.
func skipOffAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hash is for amd64 floating point, not %s", runtime.GOARCH)
	}
}

// hashFloats writes the bits of every value to h.
func hashFloats(h hash.Hash64, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// simTraceGolden is the hash of the simulator trace below. It pins the
// flow simulator's output across commits: a change to the event engine,
// the max-min fill or the route cache that moves a single bit of a
// measured latency, bandwidth or clock reading changes it. Recompute it
// only for a change that is meant to alter simulated results, and say
// so in the change.
const simTraceGolden = 0x29ccb4947409f519

// TestSimClusterTraceGolden runs Fig 13's simulated cluster (32×32 tree,
// 32 VMs, 64 hot-rack 64 MB Poisson sources, 1 MB probes) at two seeds:
// three SnapshotTP rows, then the background stopped and the simulator
// drained. Every latency and bandwidth entry, every row time and the
// clock before and after the drain are hashed bit for bit.
func TestSimClusterTraceGolden(t *testing.T) {
	skipOffAMD64(t)
	h := fnv.New64a()
	word := func(v float64) { hashFloats(h, v) }
	for _, seed := range []int64{1, 2} {
		sc := NewSimCluster(SimClusterConfig{
			Tree:      topo.TreeConfig{Racks: 32, ServersPerRack: 32, IntraRackBps: 1e9 / 8, InterRackBps: 2e9 / 8},
			VMs:       32,
			Seed:      seed,
			BgLinks:   64,
			BgBytes:   64 << 20,
			BgLambda:  1,
			HotRacks:  16,
			ProbeBulk: 1 << 20,
		})
		tc := SnapshotTP(sc, 3, 5)
		for _, tp := range []*netmodel.TPMatrix{tc.Latency, tc.Bandwidth} {
			for _, v := range tp.Times {
				word(v)
			}
			for _, v := range tp.Matrix().Data() {
				word(v)
			}
		}
		word(sc.Now())
		sc.StopBackground()
		for steps := 0; sc.Sim.Eng.Step(); steps++ {
			if steps > 1_000_000 {
				t.Fatalf("seed %d: simulator still busy after %d events with the background stopped", seed, steps)
			}
		}
		if n, q := sc.Sim.ActiveFlows(), sc.Sim.Eng.Pending(); n != 0 || q != 0 {
			t.Fatalf("seed %d: drained simulator left %d flows and %d events", seed, n, q)
		}
		word(sc.Now())
	}
	if got := h.Sum64(); got != simTraceGolden {
		t.Fatalf("simulator trace hash %#x, want %#x: simulated output moved", got, uint64(simTraceGolden))
	}
}

// providerGroundTruthGolden is the hash of the synthetic provider's
// output below. Like simTraceGolden it changes only with a change meant
// to move results.
const providerGroundTruthGolden = 0x261532ac653a8f8c

// TestProviderGroundTruthGolden pins the synthetic provider at the
// daemon's tenant shapes (16×16 tree; 32 and 64 VMs; seeds 1 and 2, with
// the daemon's seed offsets): the TruePerf matrices at provisioning, one
// ten-step CalibrateTPCtx trace, and TruePerf again after a forced
// migration rebuilds the ground truth. Every value is hashed bit for bit.
func TestProviderGroundTruthGolden(t *testing.T) {
	skipOffAMD64(t)
	h := fnv.New64a()
	truth := func(vc *VirtualCluster) {
		pm := vc.TruePerf()
		hashFloats(h, pm.Latency.Data()...)
		hashFloats(h, pm.Bandwth.Data()...)
	}
	for _, vms := range []int{32, 64} {
		for _, seed := range []int64{1, 2} {
			p := NewProvider(ProviderConfig{Tree: topo.TreeConfig{Racks: 16, ServersPerRack: 16}, Seed: seed})
			vc, err := p.Provision(vms, seed+1)
			if err != nil {
				t.Fatal(err)
			}
			truth(vc)
			tc, err := CalibrateTPCtx(context.Background(), vc, stats.NewRNG(seed+2), 10, 5, CalibrationConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for _, tp := range []*netmodel.TPMatrix{tc.Latency, tc.Bandwidth} {
				hashFloats(h, tp.Times...)
				hashFloats(h, tp.Matrix().Data()...)
			}
			hashFloats(h, tc.TotalCost)
			vc.migrate(vms / 2)
			truth(vc)
		}
	}
	if got := h.Sum64(); got != providerGroundTruthGolden {
		t.Fatalf("provider ground-truth hash %#x, want %#x: synthetic provider output moved", got, uint64(providerGroundTruthGolden))
	}
}
