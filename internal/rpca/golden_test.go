package rpca_test

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"netconstant/internal/cloud"
	"netconstant/internal/mat"
	"netconstant/internal/rpca"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// decomposeGolden is the hash of every decomposition below. It pins the
// IALM solver's output across commits: a change to a kernel, the SVT
// routes or the iteration that moves a single bit of D or E, or one
// iteration count, changes it. Recompute it only for a change that is
// meant to alter RPCA results, and say so in the change.
const decomposeGolden = 0x56c7c134a97b0965

// hashFloats writes the bits of every value to h.
func hashFloats(h hash.Hash64, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// randomMask observes each cell with probability 0.9, every row at
// least once.
func randomMask(seed int64, r, c int) *mat.Dense {
	rng := stats.NewRNG(seed)
	m := mat.NewDense(r, c)
	for i := 0; i < r; i++ {
		row := m.Row(i)
		for j := range row {
			if rng.Float64() < 0.9 {
				row[j] = 1
			}
		}
		row[rng.Intn(c)] = 1
	}
	return m
}

// TestDecomposeGolden hashes D, E and the iteration count of the plain
// and the masked IALM route on planted rank-1 + sparse TP-matrices at
// 10×256, 10×1024 and 10×4096, on one tall (transposed) planted matrix,
// and on real latency and bandwidth calibration traces of 16, 32 and 64
// VMs (fault-free for the plain route, resilient with probe loss for the
// masked one), at the production λ = 1/√min(r,c).
func TestDecomposeGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hash is for amd64 floating point, not %s", runtime.GOARCH)
	}
	h := fnv.New64a()
	solve := func(name string, a, mask *mat.Dense) {
		t.Helper()
		r, c := a.Dims()
		res, err := rpca.DecomposeMasked(a, mask, rpca.Options{Lambda: 1 / math.Sqrt(float64(min(r, c)))})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		one := fnv.New64a()
		for _, w := range []hash.Hash64{h, one} {
			hashFloats(w, res.D.Data()...)
			hashFloats(w, res.E.Data()...)
			hashFloats(w, float64(res.Iterations))
		}
		t.Logf("%-28s %dx%d: %3d iterations, rank %d, hash %#016x", name, r, c, res.Iterations, res.RankD, one.Sum64())
	}

	for i, cols := range []int{256, 1024, 4096} {
		a := plantedTP(int64(40+i), 10, cols, 0.08)
		solve("planted", a, nil)
		solve("planted masked", a, randomMask(int64(50+i), 10, cols))
	}
	tall := plantedTP(43, 10, 256, 0.08).T()
	solve("planted tall", tall, nil)
	solve("planted tall masked", tall, randomMask(53, 256, 10))

	lossy := cloud.CalibrationConfig{Resilient: true, DropProb: 0.3, MaxRetries: 1}
	for i, vms := range []int{16, 32, 64} {
		seed := int64(60 + 10*i)
		p := cloud.NewProvider(cloud.ProviderConfig{Tree: topo.TreeConfig{Racks: 16, ServersPerRack: 16}, Seed: seed})
		for _, route := range []struct {
			name string
			cfg  cloud.CalibrationConfig
		}{{"calibration", cloud.CalibrationConfig{}}, {"calibration masked", lossy}} {
			vc, err := p.Provision(vms, seed+1)
			if err != nil {
				t.Fatal(err)
			}
			tc, err := cloud.CalibrateTPCtx(context.Background(), vc, stats.NewRNG(seed+2), 10, 5, route.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if route.cfg.Resilient && tc.Coverage() == 1 {
				t.Fatalf("%d VMs: the lossy calibration left no gap to mask", vms)
			}
			solve(route.name+" latency", tc.Latency.Matrix(), tc.Mask)
			solve(route.name+" bandwidth", tc.Bandwidth.Matrix(), tc.Mask)
		}
	}
	if got := h.Sum64(); got != decomposeGolden {
		t.Fatalf("decomposition hash %#x, want %#x: RPCA output moved", got, uint64(decomposeGolden))
	}
}
