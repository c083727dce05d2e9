package cloud

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"netconstant/internal/netmodel"
	"netconstant/internal/topo"
)

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
	if runtime.GOARCH != "amd64" {
		// The hash was computed on amd64, where the compiler never fuses
		// x*y+z. On arm64, ppc64, s390x and riscv64 it may emit one fused
		// multiply-add, which rounds once and so moves simulated bits.
		t.Skipf("golden hash is for amd64 floating point, not %s", runtime.GOARCH)
	}
	h := fnv.New64a()
	word := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
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
