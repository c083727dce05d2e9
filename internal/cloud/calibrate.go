package cloud

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"netconstant/internal/cancel"
	"netconstant/internal/mat"
	"netconstant/internal/netmodel"
)

// PairProber is an optional Cluster extension for substrates where a probe
// can fail outright — timeout, blackout, VM churn — rather than always
// return a value. The fault-injection layer (internal/faults) implements
// it; clusters without it are treated as never failing on their own (the
// legacy DropProb coin still applies).
type PairProber interface {
	ProbePair(i, j int) (netmodel.Link, error)
}

// CalibrationConfig tunes the all-link calibration procedure (paper §IV-B,
// "Model calibration").
type CalibrationConfig struct {
	// BulkBytes is the large-message size used for the bandwidth probe.
	// The paper uses 8 MB, above which results are stable.
	BulkBytes float64
	// Sequential measures pairs one at a time (N(N−1) rounds) instead of
	// the paper's paired schedule (N/2 disjoint pairs per round, ≈2N
	// rounds). Sequential is the expensive baseline of the pairing
	// ablation.
	Sequential bool
	// RoundSync is the per-round synchronization overhead in seconds.
	RoundSync float64
	// InterferenceNoise is the extra relative measurement noise caused by
	// the N/2 concurrent transfers in paired mode.
	InterferenceNoise float64
	// DropProb injects measurement failures: each pair probe fails with
	// this probability (timeout, packet loss). In legacy mode a failed
	// probe is retried once; a pair that fails twice is left unmeasured
	// and repaired from the reverse direction or column statistics after
	// the pass (netmodel.PerfMatrix.Repair). In resilient mode the retry
	// budget below applies instead.
	DropProb float64

	// Resilient enables the fault-tolerant measurement path: per-probe
	// retry budgets with exponential backoff, optional repeated probes
	// with MAD outlier rejection, a quality score per cell, and *honest*
	// gaps — pairs that exhaust their budget are marked missing for masked
	// decomposition instead of being silently repaired.
	Resilient bool
	// MaxRetries is the number of re-attempts after a failed probe
	// (resilient mode; default 2).
	MaxRetries int
	// ProbeTimeout is the cluster time charged for each failed probe
	// attempt, seconds (default 1).
	ProbeTimeout float64
	// RetryBackoff is the base of the exponential backoff slept (and
	// charged to cluster time) before the k-th retry: RetryBackoff·2^(k−1)
	// seconds (default 0.1).
	RetryBackoff float64
	// Repeats is how many times each pair is probed in resilient mode;
	// with ≥3 repeats the per-pair estimate is the median of the repeats
	// that survive MAD outlier rejection (default 1 — no repetition).
	Repeats int
	// MADCutoff is the modified-z-score threshold for rejecting a repeat
	// as an outlier (default 3.5, the standard Iglewicz–Hoaglin value).
	MADCutoff float64
}

func (c *CalibrationConfig) applyDefaults() {
	if c.BulkBytes == 0 {
		c.BulkBytes = 8 << 20
	}
	if c.RoundSync == 0 {
		c.RoundSync = 0.05
	}
	if c.InterferenceNoise == 0 {
		c.InterferenceNoise = 0.02
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 1
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 0.1
	}
	if c.Repeats == 0 {
		c.Repeats = 1
	}
	if c.MADCutoff == 0 {
		c.MADCutoff = 3.5
	}
}

// Calibration is the result of one all-link measurement pass.
type Calibration struct {
	Perf   *netmodel.PerfMatrix
	Cost   float64 // elapsed cluster time consumed, seconds
	Rounds int
	// Dropped counts probe attempts that failed; Failed counts pairs whose
	// whole budget failed (left missing / for Repair); Repaired counts
	// cells filled in afterwards (legacy mode only).
	Dropped  int
	Failed   int
	Repaired int

	// Resilient-mode accounting.
	Retries  int // re-attempts that were actually spent
	Outliers int // probe repeats rejected by MAD screening
	Missing  int // cells left unmeasured (masked, not repaired)
}

// MeanQuality returns the average per-cell quality score (1 for legacy
// calibrations without quality tracking).
func (cal *Calibration) MeanQuality() float64 { return cal.Perf.MeanQuality() }

// pingpongTime is the SKaMPI-style probe duration under the α-β model: a
// 1-byte latency probe plus a bulk bandwidth probe.
func pingpongTime(l netmodel.Link, bulk float64) float64 {
	return l.TransferTime(1) + l.TransferTime(bulk)
}

// PairSchedule builds the paired measurement schedule: a sequence of
// rounds, each containing ⌊N/2⌋ disjoint ordered pairs, covering every
// ordered pair exactly once. It uses the circle method for the round-robin
// pairing and then mirrors each round for the reverse direction.
func PairSchedule(n int) [][][2]int {
	if n < 2 {
		return nil
	}
	// Circle method over m participants (m even; a bye for odd n).
	m := n
	if m%2 == 1 {
		m++
	}
	ids := make([]int, m)
	for i := range ids {
		ids[i] = i
	}
	var rounds [][][2]int
	for r := 0; r < m-1; r++ {
		var fwd, rev [][2]int
		for k := 0; k < m/2; k++ {
			a, b := ids[k], ids[m-1-k]
			if a < n && b < n {
				fwd = append(fwd, [2]int{a, b})
				rev = append(rev, [2]int{b, a})
			}
		}
		if len(fwd) > 0 {
			rounds = append(rounds, fwd, rev)
		}
		// Rotate all but the first.
		last := ids[m-1]
		copy(ids[2:], ids[1:m-1])
		ids[1] = last
	}
	return rounds
}

// probeOnce runs a single probe attempt against the cluster, honouring the
// DropProb coin and, when the cluster supports it, genuine probe failures.
func probeOnce(c Cluster, rng *rand.Rand, cfg *CalibrationConfig, i, j int) (netmodel.Link, bool) {
	if cfg.DropProb > 0 && rng.Float64() < cfg.DropProb {
		return netmodel.Link{}, false
	}
	if pp, ok := c.(PairProber); ok {
		l, err := pp.ProbePair(i, j)
		if err != nil {
			return netmodel.Link{}, false
		}
		return l, true
	}
	return c.PairPerf(i, j), true
}

// madFilter returns the indices of samples surviving modified-z-score
// screening: |0.6745·(x−median)/MAD| ≤ cutoff. With MAD = 0 (at least
// half the samples identical) only exact-median samples survive a strict
// screen, so it degrades to keeping everything.
func madFilter(samples []float64, cutoff float64) []int {
	if len(samples) < 3 {
		idx := make([]int, len(samples))
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	med := median(sorted)
	dev := make([]float64, len(samples))
	for i, v := range samples {
		dev[i] = math.Abs(v - med)
	}
	devSorted := append([]float64(nil), dev...)
	sort.Float64s(devSorted)
	mad := median(devSorted)
	if mad == 0 {
		idx := make([]int, len(samples))
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	var keep []int
	for i := range samples {
		if 0.6745*dev[i]/mad <= cutoff {
			keep = append(keep, i)
		}
	}
	return keep
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return 0.5 * (sorted[n/2-1] + sorted[n/2])
}

// pairProbe is the resilient measurement of one directed pair: up to
// 1+MaxRetries attempts with exponential backoff, then (on success)
// Repeats−1 further probes with MAD outlier rejection. It reports the
// final link estimate, whether any measurement succeeded, the cluster
// time consumed, and the quality score of the cell.
func pairProbe(c Cluster, rng *rand.Rand, cfg *CalibrationConfig, cal *Calibration, i, j int, interference bool) (netmodel.Link, bool, float64, float64) {
	elapsed := 0.0
	attempt := func() (netmodel.Link, bool) {
		l, ok := probeOnce(c, rng, cfg, i, j)
		if !ok {
			return netmodel.Link{}, false
		}
		if interference && cfg.InterferenceNoise > 0 {
			f := clampPositive(1 + cfg.InterferenceNoise*rng.NormFloat64())
			l.Beta *= f
			l.Alpha /= f
		}
		return l, true
	}

	var links []netmodel.Link
	retriesUsed := 0
	for rep := 0; rep < cfg.Repeats; rep++ {
		got := false
		for try := 0; try <= cfg.MaxRetries; try++ {
			if try > 0 {
				// Backoff is slept on the cluster clock before the retry.
				elapsed += cfg.RetryBackoff * math.Pow(2, float64(try-1))
				retriesUsed++
				cal.Retries++
			}
			l, ok := attempt()
			if !ok {
				cal.Dropped++
				elapsed += cfg.ProbeTimeout
				continue
			}
			if t := pingpongTime(l, cfg.BulkBytes); !math.IsInf(t, 1) && !math.IsNaN(t) {
				elapsed += t
			}
			links = append(links, l)
			got = true
			break
		}
		if !got && rep == 0 {
			// First repeat exhausted the budget: the pair is unmeasurable
			// right now; further repeats would only burn more budget.
			return netmodel.Link{}, false, elapsed, 0
		}
	}
	if len(links) == 0 {
		return netmodel.Link{}, false, elapsed, 0
	}

	// MAD screening on the bandwidth estimates; the median of the
	// survivors is the cell value.
	kept := links
	if len(links) >= 3 {
		betas := make([]float64, len(links))
		for k, l := range links {
			betas[k] = l.Beta
		}
		keep := madFilter(betas, cfg.MADCutoff)
		cal.Outliers += len(links) - len(keep)
		kept = kept[:0:0]
		for _, k := range keep {
			kept = append(kept, links[k])
		}
		if len(kept) == 0 {
			kept = links // degenerate screen: keep everything
		}
	}
	betas := make([]float64, len(kept))
	alphas := make([]float64, len(kept))
	for k, l := range kept {
		betas[k], alphas[k] = l.Beta, l.Alpha
	}
	sort.Float64s(betas)
	sort.Float64s(alphas)
	link := netmodel.Link{Alpha: median(alphas), Beta: median(betas)}

	// Quality: a clean full-agreement measurement scores 1; every retry
	// and every rejected repeat erodes trust in the cell.
	quality := 1.0
	quality *= math.Pow(0.7, float64(retriesUsed))
	quality *= float64(len(kept)) / float64(len(links))
	return link, true, elapsed, quality
}

// pairedSchedule returns the paired schedule of c's VMs, or nil when cfg
// measures pairs sequentially.
func pairedSchedule(c Cluster, cfg CalibrationConfig) [][][2]int {
	if cfg.Sequential {
		return nil
	}
	return PairSchedule(c.Size())
}

// calibrate performs one all-link calibration on the cluster with the
// paired schedule built by the caller (nil measures pairs sequentially),
// so a temporal calibration builds it once for all its passes. It
// advances the cluster clock by the measurement cost as it goes, so that
// later rounds observe later network conditions.
//
// In resilient mode (cfg.Resilient) failed probes are retried within a
// backoff budget, repeated probes are screened for outliers, every cell
// carries a quality score, and pairs that stay unmeasurable are marked
// missing rather than repaired — callers run masked RPCA over the gaps.
//
// The context is checked once per measurement round, and a cancelled
// context aborts with a *cancel.Error (matching cancel.ErrCanceled)
// carrying the rounds completed. The abandoned pass's partial
// measurements are discarded; cluster time already consumed stays
// consumed, exactly as a real interrupted measurement campaign would
// leave the cluster older but yield no trace.
func calibrate(ctx context.Context, c Cluster, rng *rand.Rand, cfg CalibrationConfig, schedule [][][2]int) (*Calibration, error) {
	cfg.applyDefaults()
	n := c.Size()
	perf := netmodel.NewPerfMatrix(n)
	cal := &Calibration{Perf: perf}
	if cfg.Resilient {
		perf.EnsureQuality()
	}

	// measure handles one directed pair and returns the cluster time it
	// consumed (always finite).
	measure := func(i, j int, interference bool) float64 {
		if cfg.Resilient {
			l, ok, dt, quality := pairProbe(c, rng, &cfg, cal, i, j, interference)
			if !ok {
				cal.Failed++
				cal.Missing++
				perf.MarkMissing(i, j)
				return dt
			}
			perf.SetLinkQ(i, j, l, quality)
			return dt
		}
		// Legacy path: one blind retry, repair afterwards.
		l, ok := probeOnce(c, rng, &cfg, i, j)
		if !ok {
			cal.Dropped++
			l, ok = probeOnce(c, rng, &cfg, i, j)
			if !ok { // retry also failed
				cal.Failed++
				perf.SetLink(i, j, netmodel.Link{})
				return 0
			}
		}
		if interference && cfg.InterferenceNoise > 0 {
			f := clampPositive(1 + cfg.InterferenceNoise*rng.NormFloat64())
			l.Beta *= f
			l.Alpha /= f
		}
		perf.SetLink(i, j, l)
		if t := pingpongTime(l, cfg.BulkBytes); !math.IsInf(t, 1) && !math.IsNaN(t) {
			return t
		}
		return 0
	}

	if cfg.Sequential {
		total := n * (n - 1)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if err := cancel.Check(ctx, "cloud.Calibrate", cal.Rounds, total); err != nil {
					return nil, err
				}
				dt := measure(i, j, false) + cfg.RoundSync
				c.AdvanceTime(dt)
				cal.Cost += dt
				cal.Rounds++
			}
		}
	} else {
		for _, round := range schedule {
			if err := cancel.Check(ctx, "cloud.Calibrate", cal.Rounds, len(schedule)); err != nil {
				return nil, err
			}
			roundTime := 0.0
			for _, pr := range round {
				if t := measure(pr[0], pr[1], true); t > roundTime {
					roundTime = t
				}
			}
			dt := roundTime + cfg.RoundSync
			c.AdvanceTime(dt)
			cal.Cost += dt
			cal.Rounds++
		}
	}
	if !cfg.Resilient {
		cal.Repaired = perf.Repair()
	}
	return cal, nil
}

// TemporalCalibration is a series of calibrations assembled into the two
// TP-matrices of paper §III (latency and bandwidth).
type TemporalCalibration struct {
	Latency   *netmodel.TPMatrix
	Bandwidth *netmodel.TPMatrix
	TotalCost float64

	// Steps holds the per-row calibration results (nil for snapshot-based
	// temporal matrices, which have no measurement procedure to account
	// for).
	Steps []*Calibration
	// Mask is the steps×N² observation mask aligned with the TP-matrix
	// rows: 1 where the cell was measured, 0 where the probe budget was
	// exhausted. Nil means fully observed.
	Mask *mat.Dense
}

// Clone deep-copies the calibration, so a cached trace can be handed to
// multiple consumers without sharing mutable state.
func (tc *TemporalCalibration) Clone() *TemporalCalibration {
	if tc == nil {
		return nil
	}
	out := &TemporalCalibration{
		Latency:   tc.Latency.Clone(),
		Bandwidth: tc.Bandwidth.Clone(),
		TotalCost: tc.TotalCost,
	}
	if tc.Steps != nil {
		out.Steps = make([]*Calibration, len(tc.Steps))
		for i, cal := range tc.Steps {
			c := *cal
			c.Perf = cal.Perf.Clone()
			out.Steps[i] = &c
		}
	}
	if tc.Mask != nil {
		out.Mask = tc.Mask.Clone()
	}
	return out
}

// Coverage returns the observed fraction of the TP-matrix's off-diagonal
// cells (1 when no mask was recorded).
func (tc *TemporalCalibration) Coverage() float64 {
	if tc.Mask == nil {
		return 1
	}
	n := tc.Latency.N
	rows := tc.Mask.Rows()
	if rows == 0 || n < 2 {
		return 1
	}
	observed := 0
	for s := 0; s < rows; s++ {
		row := tc.Mask.Row(s)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && row[i*n+j] > 0.5 {
					observed++
				}
			}
		}
	}
	return float64(observed) / float64(rows*n*(n-1))
}

// CalibrateTP performs `steps` calibrations separated by `gap` seconds of
// idle time and stacks them into TP-matrices. steps is the paper's "time
// step" tuning parameter (default 10).
func CalibrateTP(c Cluster, rng *rand.Rand, steps int, gap float64, cfg CalibrationConfig) *TemporalCalibration {
	//netlint:allow cancelflow CalibrateTP is the documented no-cancellation compat shim over CalibrateTPCtx
	tc, _ := CalibrateTPCtx(context.Background(), c, rng, steps, gap, cfg)
	return tc
}

// CalibrateTPCtx is CalibrateTP with cancellation: the context is
// checked before every calibration step (and per round inside each
// step); a cancelled context aborts with a *cancel.Error and no trace.
func CalibrateTPCtx(ctx context.Context, c Cluster, rng *rand.Rand, steps int, gap float64, cfg CalibrationConfig) (*TemporalCalibration, error) {
	if steps <= 0 {
		steps = 10
	}
	n := c.Size()
	tc := &TemporalCalibration{
		Latency:   netmodel.NewTPMatrix(n),
		Bandwidth: netmodel.NewTPMatrix(n),
	}
	if cfg.Resilient {
		tc.Mask = mat.NewDense(steps, n*n)
	}
	schedule := pairedSchedule(c, cfg)
	for s := 0; s < steps; s++ {
		if err := cancel.Check(ctx, "cloud.CalibrateTP", s, steps); err != nil {
			return nil, err
		}
		cal, err := calibrate(ctx, c, rng, cfg, schedule)
		if err != nil {
			return nil, err
		}
		tc.TotalCost += cal.Cost
		tc.Steps = append(tc.Steps, cal)
		tc.Latency.Append(c.Now(), cal.Perf.Latency)
		tc.Bandwidth.Append(c.Now(), cal.Perf.Bandwth)
		if tc.Mask != nil {
			row := tc.Mask.Row(s)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i != j && !cal.Perf.IsMissing(i, j) {
						row[i*n+j] = 1
					}
				}
			}
			// Diagonal cells are structurally zero in every row; marking
			// them observed keeps the mask from treating them as gaps.
			for i := 0; i < n; i++ {
				row[i*n+i] = 1
			}
		}
		if s < steps-1 && gap > 0 {
			c.AdvanceTime(gap)
			tc.TotalCost += gap
		}
	}
	return tc, nil
}

// SnapshotTP samples `steps` all-pair performance matrices separated by
// `gap` seconds without charging measurement cost to TotalCost — used by
// trace generation and experiments that need ideal snapshots. A row is
// instantaneous only where PairPerf reads a model (VirtualCluster,
// ReplayCluster). On a SimCluster every PairPerf is a real pingpong that
// advances the simulated clock, so a row itself takes simulated time —
// about 20 s for Fig 13's 32 VMs, against its 5 s gap — and is stamped
// with the clock at its last pair.
func SnapshotTP(c Cluster, steps int, gap float64) *TemporalCalibration {
	n := c.Size()
	tc := &TemporalCalibration{
		Latency:   netmodel.NewTPMatrix(n),
		Bandwidth: netmodel.NewTPMatrix(n),
	}
	for s := 0; s < steps; s++ {
		pm := snapshotOf(c)
		tc.Latency.Append(c.Now(), pm.Latency)
		tc.Bandwidth.Append(c.Now(), pm.Bandwth)
		if s < steps-1 && gap > 0 {
			c.AdvanceTime(gap)
		}
	}
	return tc
}

// snapshotOf samples every pair of any Cluster implementation.
func snapshotOf(c Cluster) *netmodel.PerfMatrix {
	n := c.Size()
	pm := netmodel.NewPerfMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			pm.SetLink(i, j, c.PairPerf(i, j))
		}
	}
	return pm
}

// EstimateCalibrationCost predicts the wall-clock cost of one paired
// calibration pass for a cluster of n VMs with typical link performance,
// without touching a cluster — the analytic curve behind Fig 4.
func EstimateCalibrationCost(n int, typical netmodel.Link, cfg CalibrationConfig) float64 {
	cfg.applyDefaults()
	rounds := len(PairSchedule(n))
	if cfg.Sequential {
		rounds = n * (n - 1)
	}
	return float64(rounds) * (pingpongTime(typical, cfg.BulkBytes) + cfg.RoundSync)
}
