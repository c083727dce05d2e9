package serve

// Server is the multi-tenant advisor daemon's engine: the HTTP surface,
// the shard set, the shared cross-tenant calibration memo, and the
// per-tenant journals under Dir. cmd/netconstantd wraps it in an
// http.Server and the two-stage signal drain; tests and the chaos
// oracle drive it directly.

import (
	"context"
	"encoding/json"
	"errors"

	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netconstant/internal/checkpoint"
	"netconstant/internal/cloud"
)

// Config tunes the server. Zero values select the defaults in
// parentheses.
type Config struct {
	// Dir is where per-tenant journals and snapshots live. Required.
	Dir string
	// Shards is the number of single-writer shard goroutines (4).
	Shards int
	// QueueDepth bounds each shard's admission queue (64); a full queue
	// sheds requests with a typed 429 instead of queueing unboundedly.
	QueueDepth int
	// SnapshotEvery compacts a tenant's journal after this many tail
	// records (64).
	SnapshotEvery int
	// MemoCapacity bounds the shared cross-tenant calibration memo (64).
	MemoCapacity int
	// DefaultTimeout bounds each request when the client sends no
	// ?timeout_ms (0 = unbounded).
	DefaultTimeout time.Duration
}

func (c *Config) applyDefaults() {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 64
	}
	if c.MemoCapacity == 0 {
		c.MemoCapacity = 64
	}
}

// Server owns the shards and implements http.Handler.
type Server struct {
	cfg     Config
	baseCtx context.Context // server lifetime; bounds replays and streaming sessions
	memo    *cloud.CalibrationMemo
	shards  []*shard
	mux     *http.ServeMux
	wg      sync.WaitGroup

	draining  atomic.Bool
	closeOnce sync.Once
	closeErr  error

	qmu         sync.Mutex
	quarantined map[string]string // tenant id → reason
}

var tenantIDPat = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// New opens (or creates) the journal directory, rebuilds every tenant
// found there — quarantining, not failing on, any whose journal cannot
// replay — and starts the shard goroutines. ctx is the server's
// lifetime: it bounds journal replays and tenant streaming sessions,
// and should be cancelled only after Close.
func New(ctx context.Context, cfg Config) (*Server, error) {
	cfg.applyDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("serve: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		baseCtx:     ctx,
		memo:        cloud.NewCalibrationMemo(cfg.MemoCapacity),
		quarantined: map[string]string{},
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, newShard(s, cfg.QueueDepth))
	}
	if err := s.loadExisting(); err != nil {
		return nil, err
	}
	s.wg.Add(len(s.shards))
	for _, sh := range s.shards {
		go sh.loop()
	}
	s.routes()
	return s, nil
}

// loadExisting scans Dir and rebuilds each tenant before the shard
// goroutines start (so the tenant maps are still single-owner). Damage
// is contained per tenant: an unopenable store or unreplayable journal
// quarantines that tenant and the scan continues.
func (s *Server) loadExisting() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return err
	}
	ids := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if id, ok := strings.CutSuffix(name, ".nclog"); ok {
			ids[id] = true
		} else if id, ok := strings.CutSuffix(name, ".ncsnap"); ok {
			ids[id] = true
		}
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	for _, id := range sorted {
		store, err := checkpoint.OpenStore(s.journalPath(id), s.snapPath(id))
		if err != nil {
			s.quarantine(id, err)
			continue
		}
		t, err := rebuildTenant(s, id, store)
		if err != nil {
			store.Close()
			s.quarantine(id, err)
			continue
		}
		s.shardFor(id).install(t)
	}
	return nil
}

func (s *Server) journalPath(id string) string { return filepath.Join(s.cfg.Dir, id+".nclog") }
func (s *Server) snapPath(id string) string    { return filepath.Join(s.cfg.Dir, id+".ncsnap") }

func (s *Server) shardFor(id string) *shard {
	return s.shards[shardIndex(id, len(s.shards))]
}

// quarantine marks a tenant unreachable; every request for it gets the
// typed refusal until an operator repairs or removes its files.
func (s *Server) quarantine(id string, err error) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	s.quarantined[id] = err.Error()
}

func (s *Server) quarantineReason(id string) (string, bool) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	reason, ok := s.quarantined[id]
	return reason, ok
}

// Quarantined returns the sorted quarantined tenant IDs.
func (s *Server) Quarantined() []string {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	ids := make([]string, 0, len(s.quarantined))
	for id := range s.quarantined {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// MemoStats exposes the shared calibration memo's effectiveness.
//
//netlint:allow testonly perfbench, a module of its own, reports cloud.memo_hits and cloud.memo_misses from it
func (s *Server) MemoStats() cloud.MemoStats { return s.memo.Stats() }

// Drain stops admitting requests: handlers and shard submission refuse
// with the typed draining error while in-flight work completes. Call
// before http.Server.Shutdown so keep-alive connections see refusals
// rather than hangs.
func (s *Server) Drain() { s.draining.Store(true) }

// Close drains (if not already), closes every shard queue, waits for
// the shard goroutines to finish their admitted work and seal
// snapshots, and reports the first seal failure.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.Drain()
		for _, sh := range s.shards {
			sh.close()
		}
		s.wg.Wait()
		for _, sh := range s.shards {
			if sh.sealErr != nil && s.closeErr == nil {
				s.closeErr = sh.sealErr
			}
		}
	})
	return s.closeErr
}

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("PUT /v1/tenants/{id}", s.handleCreate)
	mux.HandleFunc("GET /v1/tenants/{id}", s.handleStatus)
	mux.HandleFunc("POST /v1/tenants/{id}/calibrate", s.opHandler(func(r *http.Request) (op, error) {
		return op{Kind: opCalibrate}, nil
	}))
	mux.HandleFunc("POST /v1/tenants/{id}/observe", s.handleObserve)
	mux.HandleFunc("POST /v1/tenants/{id}/advance", s.opHandler(func(r *http.Request) (op, error) {
		var req AdvanceRequest
		if err := decodeBody(r, &req); err != nil {
			return op{}, err
		}
		return op{Kind: opAdvance, Dt: req.Dt}, nil
	}))
	mux.HandleFunc("POST /v1/tenants/{id}/stream/begin", s.opHandler(func(r *http.Request) (op, error) {
		return op{Kind: opStreamBegin}, nil
	}))
	mux.HandleFunc("POST /v1/tenants/{id}/stream/pair", s.opHandler(func(r *http.Request) (op, error) {
		var req StreamPairRequest
		if err := decodeBody(r, &req); err != nil {
			return op{}, err
		}
		return op{Kind: opStreamPair, Src: req.Src, Dst: req.Dst, Lat: req.Lat, Bw: req.Bw}, nil
	}))
	mux.HandleFunc("POST /v1/tenants/{id}/resolve", s.opHandler(func(r *http.Request) (op, error) {
		return op{Kind: opResolve}, nil
	}))
	mux.HandleFunc("POST /v1/tenants/{id}/advise", s.handleAdvise)
	s.mux = mux
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// requestCtx derives the per-request deadline: ?timeout_ms wins,
// DefaultTimeout otherwise, unbounded when both are absent.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	d := s.cfg.DefaultTimeout
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms <= 0 {
			return nil, nil, errf("timeout_ms must be a positive integer, got %q", v)
		}
		d = time.Duration(ms) * time.Millisecond
	}
	if d > 0 {
		ctx, cancelCtx := context.WithTimeout(ctx, d)
		return ctx, cancelCtx, nil
	}
	ctx, cancelCtx := context.WithCancel(ctx)
	return ctx, cancelCtx, nil
}

// admit runs the shared front-door checks: drain state and tenant ID
// shape.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (string, bool) {
	if s.draining.Load() {
		writeError(w, ErrDraining)
		return "", false
	}
	id := r.PathValue("id")
	if !tenantIDPat.MatchString(id) {
		writeError(w, errf("tenant id must match %s", tenantIDPat))
		return "", false
	}
	return id, true
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errf("request body: %v", err)
	}
	return nil
}

// mutate submits a journaled mutation to the tenant's shard: apply,
// then journal, then ack. An apply error that may have left partial
// state rebuilds the tenant from its journal before the error returns,
// so no half-applied mutation survives into later requests. The
// returned status is read in the same shard task, right after the
// journal append, so it reports the state this mutation produced even
// when other requests mutate the tenant concurrently.
func (s *Server) mutate(ctx context.Context, id string, o op) (opResult, StatusResponse, error) {
	sh := s.shardFor(id)
	var res opResult
	var status StatusResponse
	err := sh.submit(ctx, func(ctx context.Context) error {
		t, err := sh.tenantFor(id)
		if err != nil {
			return err
		}
		r, mutated, err := t.applyOp(ctx, o)
		if err != nil {
			if mutated {
				sh.rebuild(t)
			}
			return err
		}
		if err := t.journalOp(o); err != nil {
			// Applied but not durable: roll the in-memory state back to
			// the journaled prefix so acks and the journal never diverge.
			sh.rebuild(t)
			return err
		}
		sh.mutations.Add(1)
		sh.updateTail()
		res, status = r, t.status()
		return nil
	})
	return res, status, err
}

// inspect submits a read-only task to the tenant's shard (reads are
// serialized with mutations by the single-writer loop, not locks).
func (s *Server) inspect(ctx context.Context, id string, fn func(t *tenant) error) error {
	sh := s.shardFor(id)
	return sh.submit(ctx, func(context.Context) error {
		t, err := sh.tenantFor(id)
		if err != nil {
			return err
		}
		return fn(t)
	})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	id, ok := s.admit(w, r)
	if !ok {
		return
	}
	var cfg TenantConfig
	if err := decodeBody(r, &cfg); err != nil {
		writeError(w, err)
		return
	}
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		writeError(w, err)
		return
	}
	ctx, done, err := s.requestCtx(r)
	if err != nil {
		writeError(w, err)
		return
	}
	defer done()
	sh := s.shardFor(id)
	var status StatusResponse
	err = sh.submit(ctx, func(ctx context.Context) error {
		if reason, quarantined := s.quarantineReason(id); quarantined {
			return wrapf(errQuarantined, "%s: %s", id, reason)
		}
		if _, exists := sh.tenants[id]; exists {
			return wrapf(errExists, "%s", id)
		}
		store, err := checkpoint.OpenStore(s.journalPath(id), s.snapPath(id))
		if err != nil {
			return err
		}
		t, err := newTenant(s, id, cfg, store)
		if err == nil {
			err = t.journalOp(op{Kind: opCreate, Cfg: &t.cfg})
		}
		if err != nil {
			// Nothing admitted: drop the empty store files so a later
			// create (or restart) doesn't trip over a record-less journal.
			store.Close()
			os.Remove(s.journalPath(id))
			os.Remove(s.snapPath(id))
			return err
		}
		sh.install(t)
		sh.mutations.Add(1)
		status = t.status()
		return nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, status)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id, ok := s.admit(w, r)
	if !ok {
		return
	}
	ctx, done, err := s.requestCtx(r)
	if err != nil {
		writeError(w, err)
		return
	}
	defer done()
	var status StatusResponse
	if err := s.inspect(ctx, id, func(t *tenant) error {
		status = t.status()
		return nil
	}); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

// opHandler builds the POST handler for a journaled mutation whose
// response is the tenant's refreshed status.
func (s *Server) opHandler(parse func(r *http.Request) (op, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, ok := s.admit(w, r)
		if !ok {
			return
		}
		o, err := parse(r)
		if err != nil {
			writeError(w, err)
			return
		}
		ctx, done, err := s.requestCtx(r)
		if err != nil {
			writeError(w, err)
			return
		}
		defer done()
		_, status, err := s.mutate(ctx, id, o)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, status)
	}
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	id, ok := s.admit(w, r)
	if !ok {
		return
	}
	var req ObserveRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	ctx, done, err := s.requestCtx(r)
	if err != nil {
		writeError(w, err)
		return
	}
	defer done()
	res, status, err := s.mutate(ctx, id, op{Kind: opObserve, Expected: req.Expected, Actual: req.Actual})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ObserveResponse{Tenant: id, Triggered: res.Triggered, Seq: status.Seq})
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	id, ok := s.admit(w, r)
	if !ok {
		return
	}
	var req AdviseRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	ctx, done, err := s.requestCtx(r)
	if err != nil {
		writeError(w, err)
		return
	}
	defer done()
	sh := s.shardFor(id)
	var body []byte
	if err := s.inspect(ctx, id, func(t *tenant) error {
		b, hit, err := t.adviseBody(req)
		if err != nil {
			return err
		}
		if hit {
			sh.adviceHits.Add(1)
		} else {
			sh.adviceMisses.Add(1)
		}
		body = b
		return nil
	}); err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, http.StatusOK, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok", Quarantined: s.Quarantined()}
	if s.draining.Load() {
		resp.Status = "draining"
	}
	if resp.Quarantined == nil {
		resp.Quarantined = []string{}
	}
	for _, sh := range s.shards {
		resp.Shards = append(resp.Shards, ShardHealth{
			Queue:        len(sh.ch),
			Served:       sh.served.Load(),
			Shed:         sh.shed.Load(),
			Mutations:    sh.mutations.Load(),
			Tenants:      sh.tenantN.Load(),
			JournalTail:  sh.tail.Load(),
			AdviceHits:   sh.adviceHits.Load(),
			AdviceMisses: sh.adviceMisses.Load(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
