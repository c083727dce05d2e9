package cloud

import (
	"math"
	"math/rand"

	"netconstant/internal/mat"
	"netconstant/internal/netmodel"
	"netconstant/internal/stats"
)

// Cluster is the abstraction the calibration and optimization layers work
// against: a set of VMs with time-varying pair-wise network performance.
// Implementations include the synthetic VirtualCluster, the trace-replay
// cluster, and the simnet-backed cluster.
type Cluster interface {
	// Size returns the number of VMs.
	Size() int
	// Now returns the cluster-local simulated time in seconds.
	Now() float64
	// AdvanceTime moves the cluster clock forward, letting dynamics
	// (volatility regime, migrations) evolve.
	AdvanceTime(dt float64)
	// PairPerf returns the instantaneous network performance of the
	// directed VM pair (i, j) — what a transfer started now experiences.
	PairPerf(i, j int) netmodel.Link
}

// VirtualCluster is a set of VMs provisioned on the synthetic provider.
// Each directed pair has a constant ground-truth α-β performance plus
// dynamics; migrations change the ground truth (the paper's "significant
// changes").
type VirtualCluster struct {
	provider *Provider
	Hosts    []int // server node per VM
	rng      *rand.Rand
	now      float64

	vmFactor []float64 // per-VM virtualization bandwidth multiplier
	pairBW   *mat.Dense
	pairLat  *mat.Dense

	migrations     int
	lastMigCheck   float64
	migrationHook  func(vm int)
	freezeDynamics bool
}

func newVirtualCluster(p *Provider, hosts []int, seed int64) *VirtualCluster {
	vc := &VirtualCluster{
		provider: p,
		Hosts:    hosts,
		rng:      stats.NewRNG(seed ^ 0x5eed),
		vmFactor: make([]float64, len(hosts)),
	}
	for i := range vc.vmFactor {
		vc.vmFactor[i] = stats.Uniform(vc.rng, p.cfg.VirtFactorMin, p.cfg.VirtFactorMax)
	}
	vc.rebuildGroundTruth()
	return vc
}

// rebuildGroundTruth derives the constant per-pair α-β parameters from the
// current placement and virtualization factors. One routing search per
// source host yields the path bottleneck of its whole row; pairs are
// still visited row-major, because rackPairFactor draws lazily from the
// provider rng.
func (vc *VirtualCluster) rebuildGroundTruth() {
	n := len(vc.Hosts)
	if vc.pairBW == nil {
		vc.pairBW = mat.NewDense(n, n)
		vc.pairLat = mat.NewDense(n, n)
	}
	for i := 0; i < n; i++ {
		bott, err := vc.provider.Topo.BottlenecksFrom(vc.Hosts[i], vc.Hosts)
		if err != nil {
			panic(err) // the provider's tree gives every host pair one route
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			vc.pairBW.Set(i, j, vc.groundTruthBW(i, j, bott[j]))
			vc.pairLat.Set(i, j, vc.groundTruthLat(i, j))
		}
	}
}

// pairRand returns a deterministic per-pair unit-interval value so that
// pair jitter is stable across migrations of *other* VMs.
func (vc *VirtualCluster) pairRand(i, j, salt int) float64 {
	h := uint64(i)*0x9E37_79B9 + uint64(j)*0x85EB_CA6B + uint64(salt)*0xC2B2_AE35
	h ^= h >> 33
	h *= 0xFF51_AFD7_ED55_8CCD
	h ^= h >> 33
	return float64(h%1_000_000) / 1_000_000
}

// groundTruthBW is pair (i, j)'s constant bandwidth; base is the
// bottleneck capacity of the route between their hosts.
func (vc *VirtualCluster) groundTruthBW(i, j int, base float64) float64 {
	p := vc.provider
	hi, hj := vc.Hosts[i], vc.Hosts[j]
	if hi == hj {
		base = 4 * p.cfg.Tree.IntraRackBps // loop through the hypervisor switch
		if base == 0 {
			base = 4 * 1e9 / 8
		}
	}
	ri, rj := p.Topo.Node(hi).Rack, p.Topo.Node(hj).Rack
	f := p.rackPairFactor(ri, rj)
	jit := 1 + p.cfg.PairJitter*(2*vc.pairRand(i, j, 1)-1)
	return base * f * vc.vmFactor[i] * vc.vmFactor[j] * jit
}

func (vc *VirtualCluster) groundTruthLat(i, j int) float64 {
	p := vc.provider
	hi, hj := vc.Hosts[i], vc.Hosts[j]
	lat := p.cfg.BaseLatency
	if !p.Topo.SameRack(hi, hj) {
		lat += p.cfg.CrossRackLatency
	}
	jit := 1 + p.cfg.LatencyJitter*(2*vc.pairRand(i, j, 2)-1)
	return lat * jit
}

// Size returns the number of VMs.
func (vc *VirtualCluster) Size() int { return len(vc.Hosts) }

// Now returns the cluster-local clock.
func (vc *VirtualCluster) Now() float64 { return vc.now }

// Migrations returns how many VM migrations (regime changes) occurred.
func (vc *VirtualCluster) Migrations() int { return vc.migrations }

// OnMigration registers a hook invoked with the migrated VM index.
func (vc *VirtualCluster) OnMigration(f func(vm int)) { vc.migrationHook = f }

// SetFreezeDynamics disables volatility, spikes and migration when true —
// used by tests that need the pure constant component.
func (vc *VirtualCluster) SetFreezeDynamics(freeze bool) { vc.freezeDynamics = freeze }

// AdvanceTime moves the clock by dt seconds and stochastically triggers VM
// migrations at the configured rate.
func (vc *VirtualCluster) AdvanceTime(dt float64) {
	if dt < 0 {
		panic("cloud: negative time advance")
	}
	vc.now += dt
	if vc.freezeDynamics {
		return
	}
	perVMProb := vc.provider.cfg.MigrationRate * dt / 86400
	if perVMProb <= 0 {
		return
	}
	// A single migration check per call keeps cost linear in cluster size.
	for vm := range vc.Hosts {
		if stats.Bernoulli(vc.rng, perVMProb) {
			vc.migrate(vm)
		}
	}
}

// migrate re-places one VM on a random server and redraws its
// virtualization factor — the paper's "virtual machine is migrated to
// another rack" significant change.
func (vc *VirtualCluster) migrate(vm int) {
	p := vc.provider
	if p.used[vc.Hosts[vm]] > 0 {
		p.used[vc.Hosts[vm]]--
	}
	for {
		s := p.servers[vc.rng.Intn(len(p.servers))]
		if p.used[s] < p.cfg.SlotsPerServer {
			p.used[s]++
			vc.Hosts[vm] = s
			break
		}
	}
	vc.vmFactor[vm] = stats.Uniform(vc.rng, p.cfg.VirtFactorMin, p.cfg.VirtFactorMax)
	vc.rebuildGroundTruth()
	vc.migrations++
	if vc.migrationHook != nil {
		vc.migrationHook(vm)
	}
}

// PairPerf returns the instantaneous performance of the directed pair:
// ground truth perturbed by band volatility and occasional interference
// spikes.
func (vc *VirtualCluster) PairPerf(i, j int) netmodel.Link {
	if i == j {
		return netmodel.Link{Alpha: 0, Beta: math.Inf(1)}
	}
	bw := vc.pairBW.At(i, j)
	lat := vc.pairLat.At(i, j)
	if vc.freezeDynamics {
		return netmodel.Link{Alpha: lat, Beta: bw}
	}
	cfg := vc.provider.cfg
	bw *= clampPositive(1 + cfg.Volatility*vc.rng.NormFloat64())
	lat *= clampPositive(1 + cfg.Volatility*vc.rng.NormFloat64())
	if stats.Bernoulli(vc.rng, cfg.SpikeProb) {
		slow := 1 + cfg.SpikeAmp*vc.rng.Float64()
		bw /= slow
		lat *= slow
	}
	return netmodel.Link{Alpha: lat, Beta: bw}
}

// TruePerf returns the ground-truth constant performance matrix — the
// oracle the RPCA pipeline tries to recover. Only the synthetic cluster
// can provide this.
func (vc *VirtualCluster) TruePerf() *netmodel.PerfMatrix {
	n := vc.Size()
	pm := netmodel.NewPerfMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			pm.SetLink(i, j, netmodel.Link{Alpha: vc.pairLat.At(i, j), Beta: vc.pairBW.At(i, j)})
		}
	}
	return pm
}

// SnapshotPerf samples the instantaneous all-link performance — one
// performance matrix P_A(t) of paper §III.
func (vc *VirtualCluster) SnapshotPerf() *netmodel.PerfMatrix {
	n := vc.Size()
	pm := netmodel.NewPerfMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			pm.SetLink(i, j, vc.PairPerf(i, j))
		}
	}
	return pm
}

func clampPositive(x float64) float64 {
	if x < 0.05 {
		return 0.05
	}
	return x
}

func (vc *VirtualCluster) racksUsed() map[int]bool {
	out := make(map[int]bool)
	for _, h := range vc.Hosts {
		out[vc.provider.Topo.Node(h).Rack] = true
	}
	return out
}

// RackSpread returns the number of distinct racks hosting the cluster —
// larger clusters spread over more racks, which is why the paper sees
// bigger optimization gains at 196 instances than at 64 (Fig 8).
func (vc *VirtualCluster) RackSpread() int { return len(vc.racksUsed()) }
