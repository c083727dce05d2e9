package main

// The advise and recalibrate workloads drive an in-process advisor
// daemon through serve.Server's http.Handler, with its journals in a
// real directory on disk. Each client owns the tenants of its own
// shards, so two clients never queue behind each other.
//
// In the traced pass every tenant also has a replica: a core.Advisor
// built from the tenant's config with the constructors the daemon uses.
// After each op the replica repeats the layer calls the daemon made
// inside ServeHTTP — one span per public call — and must reproduce the
// daemon's answer exactly.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"netconstant/internal/checkpoint"
	"netconstant/internal/cloud"
	"netconstant/internal/core"
	"netconstant/internal/mpi"
	"netconstant/internal/netmodel"
	"netconstant/internal/rpca"
	"netconstant/internal/serve"
	"netconstant/internal/stats"
	"netconstant/internal/topo"
)

// Tenant counts. A recalibrate op's cost hangs on its tenant: RPCA on
// some clusters converges in ~140 iterations and on most others runs to
// the 500-iteration cap, so with a handful of tenants a run's cost
// depended on the few the seed drew. 32 tenants average that out.
const (
	adviseTenants = 4
	recalTenants  = 32
)

// daemonCfg shapes one daemon workload.
type daemonCfg struct {
	name    string
	tenants int
	vms     int  // per tenant; 64 is the paper's cluster
	recal   bool // each op calibrates before it advises
}

var (
	adviseCfg = daemonCfg{name: "advise", tenants: adviseTenants, vms: 64}
	recalCfg  = daemonCfg{name: "recalibrate", tenants: recalTenants, vms: 32, recal: true}
)

// msgSizes are the broadcast sizes an advise request asks about.
var msgSizes = []float64{64 << 10, 1 << 20, 8 << 20, 64 << 20}

// calibrateRecord is the journal record the daemon appends for a
// calibrate op; the traced pass appends one of the same size per op.
var calibrateRecord = []byte(`{"kind":"calibrate"}`)

// replicaPrefix names the traced pass's own journal files in the
// daemon's directory.
const replicaPrefix = "replica-"

type tenantState struct {
	id         string
	cfg        serve.TenantConfig
	advisePath string
	calPath    string
	cals       int           // calibrations the daemon has completed
	rep        *core.Advisor // traced pass only
}

type clientState struct {
	rng     *rand.Rand
	tenants []*tenantState
	cnt     counts
	// traced pass only
	solver    *rpca.Solver
	store     *checkpoint.Store
	storePath string
	storeSize int64
}

type daemon struct {
	cfg     daemonCfg
	srv     *serve.Server
	dir     string
	prefix  int
	bodies  [][]byte // advise request bodies by root*len(msgSizes)+size index
	clients []*clientState
	memo0   cloud.MemoStats
}

func setupDaemon(ctx context.Context, e env, cfg daemonCfg) (instance, error) {
	dir, err := os.MkdirTemp(e.work, cfg.name+"-*")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(ctx, serve.Config{Dir: dir})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	d := &daemon{cfg: cfg, srv: srv, dir: dir, prefix: e.prefix}
	if err := d.build(ctx, e); err != nil {
		return nil, errors.Join(err, d.close())
	}
	return d, nil
}

func (d *daemon) build(ctx context.Context, e env) error {
	for root := 0; root < d.cfg.vms; root++ {
		for _, size := range msgSizes {
			d.bodies = append(d.bodies, fmt.Appendf(nil, `{"strategy":"rpca","root":%d,"msg_bytes":%d}`, root, int64(size)))
		}
	}
	h, err := d.health(ctx)
	if err != nil {
		return err
	}
	shards := len(h.Shards)
	master := stats.NewRNG(e.seed)
	for c := 0; c < e.clients; c++ {
		d.clients = append(d.clients, &clientState{rng: stats.Split(master, int64(c))})
	}
	ids, shardOf := tenantIDs(d.cfg.tenants, shards)
	perShard := make([]int64, shards)
	for k, id := range ids {
		perShard[shardOf[k]]++
		t := &tenantState{
			id: id,
			// Every field explicit, so the traced pass's replicas are built
			// from exactly the config the daemon runs.
			cfg:        serve.TenantConfig{VMs: d.cfg.vms, Seed: master.Int63() >> 16, Steps: 10, Racks: 16, ServersPerRack: 16, Gap: 5},
			advisePath: "/v1/tenants/" + id + "/advise",
			calPath:    "/v1/tenants/" + id + "/calibrate",
		}
		// A client owns whole shards; with more clients than shards they
		// have to share.
		owner := shardOf[k] % e.clients
		if e.clients > shards {
			owner = k % e.clients
		}
		d.clients[owner].tenants = append(d.clients[owner].tenants, t)
	}
	errs := make([]error, e.clients)
	parallel(e.clients, func(c int) { errs[c] = d.buildClient(ctx, c, e.traced) })
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if h, err = d.health(ctx); err != nil {
		return err
	}
	for s, sh := range h.Shards {
		if sh.Tenants != perShard[s] {
			fmt.Fprintf(os.Stderr, "perfbench: shard %d holds %d tenants, expected %d — clients may share shards\n", s, sh.Tenants, perShard[s])
		}
	}
	d.memo0 = d.srv.MemoStats()
	return nil
}

// buildClient creates and calibrates client c's tenants and, for a
// traced pass, their replicas.
func (d *daemon) buildClient(ctx context.Context, c int, traced bool) error {
	cl := d.clients[c]
	for _, t := range cl.tenants {
		body, err := json.Marshal(t.cfg)
		if err != nil {
			return err
		}
		if code, out := d.call(ctx, http.MethodPut, "/v1/tenants/"+t.id, body); code != http.StatusCreated {
			return fmt.Errorf("create %s: status %d: %s", t.id, code, bytes.TrimSpace(out))
		}
		var st serve.StatusResponse
		code, out := d.call(ctx, http.MethodPost, t.calPath, nil)
		if err := checkCalibrate(t, code, out, &st); err != nil {
			return err
		}
		if !traced {
			continue
		}
		if t.rep, err = replicaOf(ctx, t, st.NormE); err != nil {
			return err
		}
	}
	if !traced {
		return nil
	}
	cl.solver = rpca.NewSolver()
	cl.storePath = filepath.Join(d.dir, fmt.Sprintf("%sc%d.journal", replicaPrefix, c))
	var err error
	cl.store, err = checkpoint.OpenStore(cl.storePath, filepath.Join(d.dir, fmt.Sprintf("%sc%d.snap", replicaPrefix, c)))
	return err
}

// tenantIDs picks n tenant IDs spread evenly over the daemon's shards
// (serve hashes an ID onto a shard with FNV-1a) and returns each one's
// shard; set-up checks the placement against /healthz.
func tenantIDs(n, shards int) (ids []string, shardOf []int) {
	quota := (n + shards - 1) / shards
	used := make([]int, shards)
	for k := 0; len(ids) < n; k++ {
		id := fmt.Sprintf("tenant-%d", k)
		h := fnv.New32a()
		h.Write([]byte(id))
		s := int(h.Sum32() % uint32(shards))
		if used[s] < quota {
			used[s]++
			ids = append(ids, id)
			shardOf = append(shardOf, s)
		}
	}
	return ids, shardOf
}

// call sends one request through the daemon's handler.
func (d *daemon) call(ctx context.Context, method, path string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	d.srv.ServeHTTP(rec, httptest.NewRequestWithContext(ctx, method, path, rd))
	return rec.Code, rec.Body.Bytes()
}

func (d *daemon) health(ctx context.Context) (serve.HealthResponse, error) {
	var h serve.HealthResponse
	code, body := d.call(ctx, http.MethodGet, "/healthz", nil)
	if code != http.StatusOK {
		return h, fmt.Errorf("healthz: status %d", code)
	}
	return h, json.Unmarshal(body, &h)
}

// checkCalibrate checks a calibrate response — a 200 whose status shows
// one more calibration and a finite Norm(N_E) — and counts the
// calibration.
func checkCalibrate(t *tenantState, code int, body []byte, st *serve.StatusResponse) error {
	if code != http.StatusOK {
		return fmt.Errorf("calibrate %s: status %d: %s", t.id, code, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, st); err != nil {
		return fmt.Errorf("calibrate %s: %w", t.id, err)
	}
	if st.Calibrations != t.cals+1 {
		return fmt.Errorf("calibrate %s: %d calibrations, want %d", t.id, st.Calibrations, t.cals+1)
	}
	if math.IsNaN(st.NormE) || math.IsInf(st.NormE, 0) {
		return fmt.Errorf("calibrate %s: norm_e %v", t.id, st.NormE)
	}
	t.cals++
	return nil
}

func (d *daemon) op(ctx context.Context, c, i int, tr *tracer) ([]byte, error) {
	cl := d.clients[c]
	t := cl.tenants[cl.rng.Intn(len(cl.tenants))]
	root := cl.rng.Intn(d.cfg.vms)
	k := cl.rng.Intn(len(msgSizes))
	size := msgSizes[k]

	var out []byte
	var st serve.StatusResponse
	rootSpan := tr.begin(c, i, -1, "op")
	calSpan := int32(-1)
	if d.cfg.recal {
		calSpan = tr.begin(c, i, rootSpan, "serve.ServeHTTP")
		code, body := d.call(ctx, http.MethodPost, t.calPath, nil)
		tr.end(c, calSpan)
		if err := checkCalibrate(t, code, body, &st); err != nil {
			tr.end(c, rootSpan)
			return nil, err
		}
		out = append(out, body...)
	}
	advSpan := tr.begin(c, i, rootSpan, "serve.ServeHTTP")
	code, body := d.call(ctx, http.MethodPost, t.advisePath, d.bodies[root*len(msgSizes)+k])
	tr.end(c, advSpan)
	var resp serve.AdviseResponse
	err := checkAdvice(code, body, root, d.cfg.vms, &resp)
	tr.end(c, rootSpan)
	if err != nil {
		return nil, fmt.Errorf("advise %s: %w", t.id, err)
	}
	out = append(out, body...)

	if t.rep == nil {
		return out, nil
	}
	counting := i >= 1 && i <= d.prefix
	if d.cfg.recal {
		if err := d.replicaCalibrate(ctx, c, i, tr, calSpan, t, st.NormE, counting); err != nil {
			return nil, err
		}
	}
	if err := replicaAdvise(c, i, tr, advSpan, t.rep, root, size, &resp); err != nil {
		return nil, fmt.Errorf("tenant %s: %w", t.id, err)
	}
	if tr != nil && i%8 == 0 {
		h, err := d.health(ctx)
		if err != nil {
			return nil, err
		}
		for _, sh := range h.Shards {
			cl.cnt.queueMax = max(cl.cnt.queueMax, sh.Queue)
		}
	}
	return out, nil
}

// checkAdvice decodes an advise response and checks it: a 200, an
// undegraded RPCA plan, finite numbers, and a valid tree at the root.
func checkAdvice(code int, body []byte, root, n int, resp *serve.AdviseResponse) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, resp); err != nil {
		return err
	}
	if resp.Degraded || resp.Effective != "rpca" {
		return fmt.Errorf("degraded to %q (confidence %s)", resp.Effective, resp.Confidence)
	}
	if math.IsNaN(resp.NormE) || math.IsInf(resp.NormE, 0) || math.IsNaN(resp.ExpectedSec) || math.IsInf(resp.ExpectedSec, 0) || resp.ExpectedSec <= 0 {
		return fmt.Errorf("non-finite answer: norm_e %v, expected_s %v", resp.NormE, resp.ExpectedSec)
	}
	if resp.Root != root || len(resp.Parent) != n {
		return fmt.Errorf("tree rooted at %d over %d ranks, want %d over %d", resp.Root, len(resp.Parent), root, n)
	}
	return treeOf(resp.Parent, root).Validate()
}

// treeOf rebuilds an mpi.Tree from a parent array.
func treeOf(parent []int, root int) *mpi.Tree {
	t := &mpi.Tree{Root: root, Parent: parent, Children: make([][]int, len(parent))}
	for v, p := range parent {
		if p >= 0 && p < len(parent) {
			t.Children[p] = append(t.Children[p], v)
		}
	}
	return t
}

// replicaOf builds a tenant's replica advisor the way the daemon builds
// the tenant's own, installs the daemon's first calibration, and checks
// that it reproduces the daemon's Norm(N_E).
func replicaOf(ctx context.Context, t *tenantState, normE float64) (*core.Advisor, error) {
	vc, err := provision(t.cfg)
	if err != nil {
		return nil, err
	}
	adv := core.NewAdvisor(vc, stats.NewRNG(t.cfg.Seed+2), core.AdvisorConfig{TimeStep: t.cfg.Steps, Threshold: t.cfg.Threshold, Gap: t.cfg.Gap})
	tc, err := calibrationTrace(ctx, t.cfg, 0)
	if err != nil {
		return nil, err
	}
	if err := adv.AnalyzeCalibrationCtx(ctx, tc); err != nil {
		return nil, err
	}
	if math.Float64bits(adv.NormE()) != math.Float64bits(normE) {
		return nil, fmt.Errorf("tenant %s replica: norm_e %v, daemon %v", t.id, adv.NormE(), normE)
	}
	return adv, nil
}

// provision provisions a tenant's cluster from its config the way the
// daemon does.
func provision(cfg serve.TenantConfig) (*cloud.VirtualCluster, error) {
	pc := cloud.ProviderConfig{Tree: topo.TreeConfig{Racks: cfg.Racks, ServersPerRack: cfg.ServersPerRack}, Seed: cfg.Seed}
	return cloud.NewProvider(pc).Provision(cfg.VMs, cfg.Seed+1)
}

// calibrationTrace measures a tenant's calIndex-th calibration the way
// the daemon does: on a freshly provisioned replica cluster, with the
// measurement rng seeded from the tenant seed and the calibration index.
func calibrationTrace(ctx context.Context, cfg serve.TenantConfig, calIndex int) (*cloud.TemporalCalibration, error) {
	vc, err := provision(cfg)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed + 2 + (1+int64(calIndex))*1_000_003)
	return cloud.CalibrateTPCtx(ctx, vc, rng, cfg.Steps, cfg.Gap, cloud.CalibrationConfig{})
}

// replicaCalibrate repeats the calibrate op's layer calls under the
// ServeHTTP span that made them: probes, the analysis, the analysis's
// two RPCA solves (re-run on the client's solver for their counts) and a
// journal append of a calibrate-sized record.
func (d *daemon) replicaCalibrate(ctx context.Context, c, i int, tr *tracer, parent int32, t *tenantState, normE float64, counting bool) error {
	cl := d.clients[c]
	s := tr.begin(c, i, parent, "cloud.CalibrateTP")
	tc, err := calibrationTrace(ctx, t.cfg, t.cals-1)
	tr.end(c, s)
	if err != nil {
		return err
	}
	a := tr.begin(c, i, parent, "core.AnalyzeCalibration")
	err = t.rep.AnalyzeCalibrationCtx(ctx, tc)
	tr.end(c, a)
	if err != nil {
		return err
	}
	bw, err := replicaSolves(c, i, tr, a, cl.solver, tc, &cl.cnt, counting)
	if err != nil {
		return err
	}
	j := tr.begin(c, i, parent, "checkpoint.Append")
	_, err = cl.store.Append(calibrateRecord)
	tr.end(c, j)
	if err != nil {
		return err
	}
	fi, err := os.Stat(cl.storePath)
	if err != nil {
		return err
	}
	cl.cnt.recordBytes = fi.Size() - cl.storeSize
	cl.storeSize = fi.Size()
	if math.Float64bits(bw) != math.Float64bits(t.rep.NormE()) || math.Float64bits(bw) != math.Float64bits(normE) {
		return fmt.Errorf("tenant %s replica calibration %d: norm_e %v / solver %v, daemon %v", t.id, t.cals-1, t.rep.NormE(), bw, normE)
	}
	return nil
}

// replicaSolves re-runs an analysis's two decompositions under its span
// and returns the bandwidth decomposition's Norm(N_E).
func replicaSolves(c, i int, tr *tracer, parent int32, solver *rpca.Solver, tc *cloud.TemporalCalibration, cnt *counts, counting bool) (float64, error) {
	var normE float64
	for _, tp := range []*netmodel.TPMatrix{tc.Latency, tc.Bandwidth} {
		full0, trunc0 := solver.SVTStats()
		s := tr.begin(c, i, parent, "rpca.DecomposeTP")
		dec, err := core.DecomposeTPWith(solver, tp, rpca.Options{}, core.AdvisorConfig{}.Extract)
		tr.end(c, s)
		if err != nil {
			return 0, err
		}
		if counting {
			full, trunc := solver.SVTStats()
			cnt.solve(dec, full-full0, trunc-trunc0)
		}
		normE = dec.NormE
	}
	return normE, nil
}

// replicaAdvise repeats an advise op's planning under its ServeHTTP
// span and checks the replica's tree and estimate against the daemon's.
func replicaAdvise(c, i int, tr *tracer, parent int32, adv *core.Advisor, root int, size float64, resp *serve.AdviseResponse) error {
	p := tr.begin(c, i, parent, "core.PlanTree")
	tree := adv.PlanTree(core.RPCA, root, size, nil, nil)
	tr.end(c, p)
	w0 := tr.begin(c, i, p, "netmodel.Weights")
	w := adv.Constant().Weights(size)
	tr.end(c, w0)
	f := tr.begin(c, i, p, "mpi.FNFTree")
	fnf := mpi.FNFTree(w, root)
	tr.end(c, f)
	e := tr.begin(c, i, parent, "mpi.RunCollective/analytic")
	est := mpi.RunCollective(mpi.NewAnalyticNet(adv.Constant()), tree, mpi.Broadcast, size)
	tr.end(c, e)
	if !slices.Equal(tree.Parent, resp.Parent) || !slices.Equal(fnf.Parent, resp.Parent) {
		return fmt.Errorf("replica tree for root %d, %v B differs from the daemon's", root, size)
	}
	if math.Float64bits(est) != math.Float64bits(resp.ExpectedSec) {
		return fmt.Errorf("replica estimate %v differs from the daemon's %v", est, resp.ExpectedSec)
	}
	return nil
}

func (d *daemon) layers(ctx context.Context, ops int) (map[string]float64, error) {
	var cnt counts
	for _, cl := range d.clients {
		cnt.add(cl.cnt)
	}
	m := cnt.metrics()
	h, err := d.health(ctx)
	if err != nil {
		return m, err
	}
	for _, sh := range h.Shards {
		m["serve.shed"] += float64(sh.Shed)
	}
	memo := d.srv.MemoStats()
	m["cloud.memo_hits"] = float64(memo.Hits-d.memo0.Hits) / float64(ops)
	m["cloud.memo_misses"] = float64(memo.Misses-d.memo0.Misses) / float64(ops)
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return m, err
	}
	for _, en := range entries {
		fi, err := en.Info()
		if err != nil {
			return m, err
		}
		if !strings.HasPrefix(en.Name(), replicaPrefix) {
			m["checkpoint.journal_kb"] += float64(fi.Size()) / 1e3
		}
	}
	return m, nil
}

func (d *daemon) close() error {
	var errs []error
	for _, cl := range d.clients {
		if cl.store != nil {
			errs = append(errs, cl.store.Close())
		}
	}
	errs = append(errs, d.srv.Close(), os.RemoveAll(d.dir))
	if _, err := os.Stat(d.dir); !errors.Is(err, fs.ErrNotExist) {
		errs = append(errs, fmt.Errorf("journal directory %s: %w", d.dir, errLeftBehind))
	}
	return errors.Join(errs...)
}
