package serve

// A tenant is one journaled advisor: a seeded virtual cluster, the
// core.Advisor bound to it, and the checkpoint.Store holding the op log
// that makes both rebuildable. Restart equivalence rests on two facts:
// every mutation is a deterministic function of (TenantConfig, op
// sequence) — the synthetic substrate is fully seeded, and calibrations
// measure throwaway replicas provisioned from key seeds so memo hits and
// misses are invisible to the tenant's own rng streams — and ops are
// journaled only after they applied cleanly, so the journal never holds
// an op the acked state does not reflect.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"netconstant/internal/checkpoint"
	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/mpi"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// Op kinds. The journal stores the op struct as JSON — fixed field
// order, human-greppable, and free of gob's type-registry coupling.
const (
	opCreate      = "create"
	opCalibrate   = "calibrate"
	opObserve     = "observe"
	opAdvance     = "advance"
	opStreamBegin = "stream-begin"
	opStreamPair  = "stream-pair"
	opResolve     = "partial-resolve"
)

// op is one journaled logical mutation. Exactly the fields its kind
// needs are set; the rest stay at their zero values and are omitted
// from the encoding.
type op struct {
	Kind     string        `json:"kind"`
	Cfg      *TenantConfig `json:"cfg,omitempty"`
	Expected float64       `json:"expected,omitempty"`
	Actual   float64       `json:"actual,omitempty"`
	Dt       float64       `json:"dt,omitempty"`
	Src      int           `json:"src,omitempty"`
	Dst      int           `json:"dst,omitempty"`
	Lat      []float64     `json:"lat,omitempty"`
	Bw       []float64     `json:"bw,omitempty"`
}

// opResult carries the per-op response payload back to the handler.
type opResult struct {
	Triggered bool // observe: maintenance fired
}

type tenant struct {
	id      string
	cfg     TenantConfig // defaults applied
	pc      cloud.ProviderConfig
	calCfg  cloud.CalibrationConfig
	cluster *cloud.VirtualCluster
	adv     *core.Advisor
	store   *checkpoint.Store
	srv     *Server

	// calIndex counts completed full calibrations; it derives each
	// calibration's measurement-rng seed, so the Nth calibration of a
	// tenant measures the same trace in every replay — and in every
	// sibling tenant with the same config, which is what makes the
	// shared memo effective across tenants.
	calIndex int

	// advice memoizes encoded 200 advise bodies between mutations (see
	// adviseBody); adviceBytes is their summed length. Only the shard
	// goroutine touches either, and applyOp drops both.
	advice      map[adviceKey][]byte
	adviceBytes int
}

// adviceMemoBytes bounds the summed length of one tenant's cached advise
// bodies; each entry's key and slice header add ~50 B on top. A 64-VM
// body is ~400 B, so a tenant's 64 roots × 4 strategies × a few message
// sizes fit with room to spare; a workload that outgrows the bound
// drops the memo and refills it.
const adviceMemoBytes = 1 << 20

// adviceKey is everything an advise answer depends on besides tenant
// state: the parsed strategy, the root, and the message size's bits.
type adviceKey struct {
	strategy core.Strategy
	root     int
	msgBits  uint64
}

// newTenant builds the seeded in-memory state for a validated config.
// It performs no journaling; the caller owns the create record.
func newTenant(srv *Server, id string, cfg TenantConfig, store *checkpoint.Store) (*tenant, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pc := cloud.ProviderConfig{
		Tree: topo.TreeConfig{Racks: cfg.Racks, ServersPerRack: cfg.ServersPerRack},
		Seed: cfg.Seed,
	}
	vc, err := cloud.NewProvider(pc).Provision(cfg.VMs, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	advCfg := core.AdvisorConfig{
		TimeStep:  cfg.Steps,
		Threshold: cfg.Threshold,
		Gap:       cfg.Gap,
	}
	if cfg.Resilient {
		advCfg.Calibration.Resilient = true
	}
	adv := core.NewAdvisor(vc, stats.NewRNG(cfg.Seed+2), advCfg)
	t := &tenant{
		id:      id,
		cfg:     cfg,
		pc:      pc,
		calCfg:  advCfg.Calibration,
		cluster: vc,
		adv:     adv,
		store:   store,
		srv:     srv,
	}
	// Maintenance the regime detector fires autonomously must go through
	// the same memoized replica path as a client-requested calibrate, or
	// replays would measure on a different rng stream than the original.
	adv.SetRecalibrator(func(ctx context.Context) error {
		_, err := t.runCalibration(ctx)
		return err
	})
	return t, nil
}

// runCalibration measures (or replays from the shared memo) the
// tenant's next calibration trace on a throwaway replica cluster, then
// installs it. The memo provisions the replica from the key's seeds, so
// whether it hits or misses leaves the tenant's live cluster and rng
// streams untouched — the property that keeps replay byte-identical
// regardless of cache state. The returned bool reports whether tenant
// state was mutated (the caller rebuilds from the journal when a
// mutation failed partway).
func (t *tenant) runCalibration(ctx context.Context) (mutated bool, err error) {
	key := cloud.CalibrationKey{
		Provider: t.pc,
		N:        t.cfg.VMs,
		ProvSeed: t.cfg.Seed + 1,
		RNGSeed:  t.cfg.Seed + 2 + (1+int64(t.calIndex))*1_000_003,
		Steps:    t.cfg.Steps,
		Gap:      t.cfg.Gap,
		Cal:      t.calCfg,
	}
	tc, err := t.srv.memo.Calibrate(ctx, t.id, key)
	if err != nil {
		// Nothing installed: a failed measurement (typically a deadline)
		// leaves the tenant exactly as it was.
		return false, err
	}
	t.calIndex++
	// The tenant's own cluster pays the calibration's probe cost in
	// simulated time, as Algorithm 1 charges it.
	t.cluster.AdvanceTime(tc.TotalCost)
	return true, t.adv.AnalyzeCalibrationCtx(ctx, tc)
}

// applyOp executes one mutation against the tenant. mutated reports
// whether any state may have changed when err != nil — the shard
// rebuilds the tenant from its journal in that case, since a cancelled
// solver can leave the advisor half-updated.
func (t *tenant) applyOp(ctx context.Context, o op) (res opResult, mutated bool, err error) {
	// Every mutation, failed ones included, may move the advisor state an
	// advise answer derives from. Dropping the map rather than clearing it
	// lets an idle tenant's old table be collected.
	t.advice, t.adviceBytes = nil, 0
	switch o.Kind {
	case opCalibrate:
		mutated, err = t.runCalibration(ctx)
		return res, mutated, err
	case opObserve:
		if math.IsNaN(o.Expected) || math.IsNaN(o.Actual) {
			return res, false, errf("observe expected/actual must be numbers")
		}
		trig, err := t.adv.ObserveCtx(ctx, o.Expected, o.Actual)
		// ObserveCtx mutates the divergence tracker before any
		// maintenance runs, so any error is a possible partial mutation.
		return opResult{Triggered: trig}, err != nil, err
	case opAdvance:
		if o.Dt <= 0 || math.IsNaN(o.Dt) || math.IsInf(o.Dt, 0) {
			return res, false, errf("advance dt must be a positive number, got %v", o.Dt)
		}
		t.cluster.AdvanceTime(o.Dt)
		return res, false, nil
	case opStreamBegin:
		// The streaming session outlives this request: bind it to the
		// server's lifetime context, not the request deadline.
		return res, false, t.adv.BeginStreamingCtx(t.srv.baseCtx)
	case opStreamPair:
		n := t.cfg.VMs
		if o.Src < 0 || o.Src >= n || o.Dst < 0 || o.Dst >= n {
			return res, false, errf("stream pair (%d,%d) outside %d-VM cluster", o.Src, o.Dst, n)
		}
		if len(o.Lat) != t.cfg.Steps || len(o.Bw) != t.cfg.Steps {
			return res, false, errf("stream series must have %d samples, got lat=%d bw=%d", t.cfg.Steps, len(o.Lat), len(o.Bw))
		}
		// StreamPair checks both series before writing either, so a
		// rejected pair mutated nothing.
		return res, false, t.adv.StreamPair(o.Src, o.Dst, o.Lat, o.Bw)
	case opResolve:
		err := t.adv.PartialResolve()
		return res, err != nil, err
	}
	return res, false, errf("unknown op kind %q", o.Kind)
}

// journalOp appends the op to the tenant's store after it applied
// cleanly: one fsynced append, so an error means the op is not in the
// store.
func (t *tenant) journalOp(o op) error {
	payload, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = t.store.Append(payload)
	return err
}

// rebuildTenant reconstructs a tenant from its store's record history:
// the create record declares the config, every later record replays in
// order under the server's lifetime context. Any failure — a malformed
// record, a non-create head, a replay error — means the journal does
// not describe a reachable state, and the caller quarantines the
// tenant.
func rebuildTenant(srv *Server, id string, store *checkpoint.Store) (*tenant, error) {
	recs := store.Records()
	if len(recs) == 0 {
		return nil, fmt.Errorf("serve: tenant %s journal holds no create record", id)
	}
	var head op
	if err := json.Unmarshal(recs[0], &head); err != nil {
		return nil, fmt.Errorf("serve: tenant %s create record: %w", id, err)
	}
	if head.Kind != opCreate || head.Cfg == nil {
		return nil, fmt.Errorf("serve: tenant %s journal starts with %q, want create", id, head.Kind)
	}
	t, err := newTenant(srv, id, *head.Cfg, store)
	if err != nil {
		return nil, fmt.Errorf("serve: tenant %s create replay: %w", id, err)
	}
	for i, rec := range recs[1:] {
		var o op
		if err := json.Unmarshal(rec, &o); err != nil {
			return nil, fmt.Errorf("serve: tenant %s record %d: %w", id, i+2, err)
		}
		if _, _, err := t.applyOp(srv.baseCtx, o); err != nil {
			return nil, fmt.Errorf("serve: tenant %s record %d (%s) replay: %w", id, i+2, o.Kind, err)
		}
	}
	return t, nil
}

// status snapshots the tenant's advisor state into the wire struct.
func (t *tenant) status() StatusResponse {
	h := t.adv.Health()
	return StatusResponse{
		Tenant:          t.id,
		VMs:             t.cfg.VMs,
		Seq:             t.store.Seq(),
		ClusterTime:     t.cluster.Now(),
		Calibrations:    t.adv.Calibrations(),
		Recalibrations:  t.adv.Recalibrations(),
		PartialResolves: t.adv.PartialResolves(),
		CalibrationCost: t.adv.CalibrationCost(),
		NormE:           t.adv.NormE(),
		Effectiveness:   t.adv.Effectiveness().String(),
		Confidence:      t.adv.Confidence().String(),
		Coverage:        h.Coverage,
		MeanQuality:     h.MeanQuality,
		OutlierRate:     h.OutlierRate,
		RetryExhaustion: h.RetryExhaustion,
		Streaming:       t.adv.StreamingActive(),
	}
}

// adviseBody returns the encoded advise body for req — exactly the bytes
// writeJSON writes for a 200 — planning it at most once per mutation:
// every answer is a pure function of the tenant's state and the key, and
// applyOp empties the memo. hit reports whether the memo answered. Only
// 200 answers are stored, so a malformed request never hits and always
// gets its typed 400. Handlers read the returned slice after the shard
// task ends, so nothing may append to or write into a cached body.
func (t *tenant) adviseBody(req AdviseRequest) (body []byte, hit bool, err error) {
	requested, err := parseStrategy(req.Strategy)
	if err != nil {
		return nil, false, err
	}
	key := adviceKey{strategy: requested, root: req.Root, msgBits: math.Float64bits(req.MsgBytes)}
	if body, ok := t.advice[key]; ok {
		return body, true, nil
	}
	resp, err := t.advise(requested, req.Root, req.MsgBytes)
	if err != nil {
		return nil, false, err
	}
	if body, err = encodeJSON(resp); err != nil {
		return nil, false, err
	}
	t.remember(key, body)
	return body, false, nil
}

// remember stores body under key within adviceMemoBytes: an insert that
// would overflow the bound clears the memo first, and a body larger than
// the bound is not stored at all.
func (t *tenant) remember(key adviceKey, body []byte) {
	if len(body) > adviceMemoBytes {
		return
	}
	if t.adviceBytes+len(body) > adviceMemoBytes {
		t.advice, t.adviceBytes = nil, 0
	}
	if t.advice == nil {
		t.advice = map[adviceKey][]byte{}
	}
	t.advice[key] = body
	t.adviceBytes += len(body)
}

// advise plans a tree under the requested strategy and wraps it in the
// degraded-mode envelope. Degradation is an answer, not an error: when
// calibration health demotes the strategy down the
// RPCA→Heuristics→Baseline ladder (or no calibration exists yet), the
// response says so and carries the tree the surviving strategy builds.
func (t *tenant) advise(requested core.Strategy, root int, msgBytes float64) (AdviseResponse, error) {
	n := t.cfg.VMs
	if root < 0 || root >= n {
		return AdviseResponse{}, errf("root %d outside %d-VM cluster", root, n)
	}
	if msgBytes <= 0 || math.IsNaN(msgBytes) {
		return AdviseResponse{}, errf("msg_bytes must be a positive number, got %v", msgBytes)
	}
	effective := requested
	if t.adv.LastCalibration() == nil {
		// No guidance at all: the ladder bottoms out at Baseline.
		effective = core.Baseline
	} else {
		effective = t.adv.EffectiveStrategy(requested)
	}
	tree := t.adv.PlanTree(requested, root, msgBytes, nil, nil)
	exp := t.adv.ExpectedTime(tree, mpi.Broadcast, msgBytes)
	if math.IsNaN(exp) {
		exp = 0 // no calibration yet — JSON has no NaN, and 0 is unambiguous with Degraded set
	}
	return AdviseResponse{
		Tenant:        t.id,
		Requested:     wireStrategy(requested),
		Effective:     wireStrategy(effective),
		Degraded:      effective != requested,
		Confidence:    t.adv.Confidence().String(),
		Effectiveness: t.adv.Effectiveness().String(),
		NormE:         t.adv.NormE(),
		Root:          root,
		Parent:        tree.Parent,
		Depth:         tree.Depth(),
		ExpectedSec:   exp,
	}, nil
}
