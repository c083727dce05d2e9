package cloud

import (
	"math/rand"

	"netconstant/internal/netmodel"
	"netconstant/internal/simnet"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// SimCluster is a virtual cluster whose network performance comes from the
// flow-level simulator instead of the synthetic closed-form model: pair
// measurements run actual probe flows that contend with Poisson background
// traffic on a simulated data-center topology. It is the substrate of the
// paper's ns-2 experiments (§V-E).
type SimCluster struct {
	Sim   *simnet.Sim
	Hosts []int // server node per VM
	rng   *rand.Rand

	backgrounds []*simnet.Background
	bulkBytes   float64
}

// SimClusterConfig parameterizes NewSimCluster.
type SimClusterConfig struct {
	Tree topo.TreeConfig
	// Topo, when non-nil, is used instead of building a tree from Tree —
	// e.g. a Clos or fat-tree fabric from the topo builders. Multi-path
	// fabrics are fine: the simulator routes with deterministic ECMP.
	Topo *topo.Topology
	// VMs is the number of cluster members, placed on distinct servers
	// chosen uniformly at random.
	VMs  int
	Seed int64
	// Background traffic (paper §V-A): BgLinks random machine pairs, each
	// repeatedly sending BgBytes after an exponential wait with mean
	// BgLambda seconds.
	BgLinks  int
	BgBytes  float64
	BgLambda float64
	// HotRacks, when positive, confines background sources to cross-rack
	// pairs within the first HotRacks racks. This concentrates persistent
	// congestion on a subset of uplinks — the stable interference pattern
	// that makes some virtual-cluster links durably slower than others
	// (the constant component RPCA recovers in the §V-E simulations).
	// Zero scatters sources uniformly.
	HotRacks int
	// ProbeBulk is the bandwidth-probe size (default 8 MB).
	ProbeBulk float64
}

// NewSimCluster builds the simulated cluster with its background traffic
// already running.
func NewSimCluster(cfg SimClusterConfig) *SimCluster {
	t := cfg.Topo
	if t == nil {
		t = topo.NewTree(cfg.Tree)
	}
	s := simnet.New(t)
	rng := stats.NewRNG(cfg.Seed)
	servers := t.Servers()
	if cfg.VMs <= 0 || cfg.VMs > len(servers) {
		panic("cloud: SimCluster VM count out of range")
	}
	if cfg.ProbeBulk == 0 {
		cfg.ProbeBulk = 8 << 20
	}
	hostIdx := stats.SampleWithoutReplacement(rng, len(servers), cfg.VMs)
	hosts := make([]int, cfg.VMs)
	for i, k := range hostIdx {
		hosts[i] = servers[k]
	}
	sc := &SimCluster{Sim: s, Hosts: hosts, rng: rng, bulkBytes: cfg.ProbeBulk}

	// Install background sources on random server pairs (possibly
	// including cluster members' hosts — interference is the point). With
	// HotRacks set, sources are cross-rack pairs inside the hot-rack
	// subset so their uplinks stay durably congested.
	pool := servers
	if cfg.HotRacks > 0 {
		pool = pool[:0:0]
		for _, srv := range servers {
			if t.Node(srv).Rack < cfg.HotRacks {
				pool = append(pool, srv)
			}
		}
	}
	wantCrossRack := cfg.HotRacks > 1
	for k := 0; k < cfg.BgLinks && len(pool) > 1; k++ {
		var a, b int
		for attempt := 0; ; attempt++ {
			a = pool[rng.Intn(len(pool))]
			b = pool[rng.Intn(len(pool))]
			if a != b && (!wantCrossRack || t.Node(a).Rack != t.Node(b).Rack || attempt > 32) {
				break
			}
		}
		bg := s.AddBackground(stats.Split(rng, int64(k)), a, b, cfg.BgBytes, cfg.BgLambda)
		sc.backgrounds = append(sc.backgrounds, bg)
	}
	return sc
}

// Size returns the number of VMs.
func (sc *SimCluster) Size() int { return len(sc.Hosts) }

// Now returns the simulator clock.
func (sc *SimCluster) Now() float64 { return sc.Sim.Now() }

// AdvanceTime runs the simulator forward by dt seconds (background flows
// progress meanwhile).
func (sc *SimCluster) AdvanceTime(dt float64) {
	if dt < 0 {
		panic("cloud: negative time advance")
	}
	sc.Sim.Eng.RunUntil(sc.Sim.Now() + dt)
}

// PairPerf measures the directed pair by running probe flows through the
// simulator — an actual measurement, so it advances simulated time and
// experiences whatever contention exists right now.
func (sc *SimCluster) PairPerf(i, j int) netmodel.Link {
	alpha, beta := sc.Sim.Pingpong(sc.Hosts[i], sc.Hosts[j], sc.bulkBytes)
	return netmodel.Link{Alpha: alpha, Beta: beta}
}

// StopBackground halts all background sources (e.g. to drain the
// simulation at the end of an experiment).
func (sc *SimCluster) StopBackground() {
	for _, b := range sc.backgrounds {
		b.Stop()
	}
}

// Transfer runs one data transfer between two VMs through the simulator
// and returns its elapsed time — the execution primitive used when
// collectives run on the simulated cluster.
func (sc *SimCluster) Transfer(i, j int, bytes float64) float64 {
	return sc.Sim.Transfer(sc.Hosts[i], sc.Hosts[j], bytes)
}

// CalibratePaired performs one all-link calibration on the simulated
// cluster using the paper's paired schedule with *genuinely concurrent*
// probes: in every round, ⌊N/2⌋ disjoint pairs run their bulk transfers
// simultaneously on the simulator, so probe flows contend with each other
// and with background traffic exactly as the paper's concern about
// "interference of concurrent message transfers" describes (§IV-B). It
// returns the measured performance matrix and the simulated time consumed.
func (sc *SimCluster) CalibratePaired() (*netmodel.PerfMatrix, float64) {
	n := sc.Size()
	perf := netmodel.NewPerfMatrix(n)
	start := sc.Now()
	for _, round := range PairSchedule(n) {
		// Latency probes: 1-byte flows, all pairs at once.
		alphas := make([]float64, len(round))
		pending := 0
		for k, pr := range round {
			k, pr := k, pr
			pending++
			probeStart := sc.Now()
			sc.Sim.StartFlow(sc.Hosts[pr[0]], sc.Hosts[pr[1]], 1, func(at float64) {
				alphas[k] = at - probeStart
				pending--
			})
		}
		for pending > 0 {
			if !sc.Sim.Eng.Step() {
				panic("cloud: simulator drained during paired calibration")
			}
		}
		// Bandwidth probes: bulk flows, all pairs at once.
		pending = 0
		for k, pr := range round {
			k, pr := k, pr
			pending++
			probeStart := sc.Now()
			sc.Sim.StartFlow(sc.Hosts[pr[0]], sc.Hosts[pr[1]], sc.bulkBytes, func(at float64) {
				elapsed := at - probeStart
				data := elapsed - alphas[k]
				if data <= 0 {
					data = elapsed
				}
				perf.SetLink(pr[0], pr[1], netmodel.Link{Alpha: alphas[k], Beta: sc.bulkBytes / data})
				pending--
			})
		}
		for pending > 0 {
			if !sc.Sim.Eng.Step() {
				panic("cloud: simulator drained during paired calibration")
			}
		}
	}
	return perf, sc.Now() - start
}
