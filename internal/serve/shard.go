package serve

// Sharding and admission control. Tenants hash onto N shards; each shard
// is a single-writer goroutine draining a bounded queue, so all access to
// a tenant's advisor is serialized without per-tenant locks, and overload
// becomes a typed shed at the queue instead of unbounded goroutine and
// memory growth. The waiter keeps its own deadline: a request whose
// context ends while queued (or while running) returns a typed
// cancellation immediately — the shard discovers queued-but-dead tasks
// at dequeue and skips their work.

import (
	"context"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"netconstant/internal/cancel"
)

// task is one unit of shard work. err is written by the shard goroutine
// before done closes; the waiter may have abandoned the task by then, in
// which case the result is simply unobserved.
type task struct {
	ctx  context.Context
	run  func(ctx context.Context) error
	err  error
	done chan struct{}
}

type shard struct {
	srv *Server
	ch  chan *task

	// mu guards ch against the send-after-close race during drain:
	// submitters hold it shared, Close holds it exclusively while
	// flipping closed and closing the channel.
	mu     sync.RWMutex
	closed bool

	// tenants is owned by the shard goroutine (and by startup loading,
	// which runs before the goroutine starts).
	tenants map[string]*tenant

	served    atomic.Int64
	shed      atomic.Int64
	mutations atomic.Int64
	tenantN   atomic.Int64

	adviceHits   atomic.Int64 // advise answers served from a tenant's memo
	adviceMisses atomic.Int64 // advise answers planned afresh

	closeErr error // first journal-close failure during drain, read after wg.Wait
}

func newShard(srv *Server, depth int) *shard {
	return &shard{srv: srv, ch: make(chan *task, depth), tenants: map[string]*tenant{}}
}

// submit enqueues run and waits for it under ctx. A full queue sheds
// with ErrOverloaded; a draining shard refuses with ErrDraining; a
// context that ends first returns a typed cancellation (the task, if
// already queued, is skipped at dequeue).
func (sh *shard) submit(ctx context.Context, run func(ctx context.Context) error) error {
	tk := &task{ctx: ctx, run: run, done: make(chan struct{})}
	sh.mu.RLock()
	if sh.closed {
		sh.mu.RUnlock()
		return ErrDraining
	}
	select {
	case sh.ch <- tk:
		sh.mu.RUnlock()
	default:
		sh.mu.RUnlock()
		sh.shed.Add(1)
		return ErrOverloaded
	}
	select {
	case <-tk.done:
		return tk.err
	case <-ctx.Done():
		return cancel.Wrap("serve.shard", 0, 0, context.Cause(ctx))
	}
}

// loop is the shard goroutine: drain the queue until Close closes the
// channel, then close every tenant's journal.
func (sh *shard) loop() {
	defer sh.srv.wg.Done()
	for tk := range sh.ch {
		if err := cancel.Check(tk.ctx, "serve.shard", 0, 0); err != nil {
			// The waiter is already gone; don't spend shard time on work
			// nobody can observe.
			tk.err = err
		} else {
			tk.err = tk.run(tk.ctx)
		}
		sh.served.Add(1)
		close(tk.done)
	}
	for _, t := range sh.tenants {
		if err := t.store.Close(); err != nil && sh.closeErr == nil {
			sh.closeErr = err
		}
	}
}

// close stops admission and closes the queue; the shard goroutine
// finishes whatever was admitted, closes the journals, and exits.
func (sh *shard) close() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return
	}
	sh.closed = true
	close(sh.ch)
}

// tenantFor resolves a tenant inside the shard goroutine, translating
// absence into the quarantine-aware refusal.
func (sh *shard) tenantFor(id string) (*tenant, error) {
	if t, ok := sh.tenants[id]; ok {
		return t, nil
	}
	if reason, ok := sh.srv.QuarantineReason(id); ok {
		return nil, wrapf(errQuarantined, "%s: %s", id, reason)
	}
	return nil, wrapf(errNotFound, "%s", id)
}

// install registers a tenant (startup load or create op) and refreshes
// the tenant gauge.
func (sh *shard) install(t *tenant) {
	sh.tenants[t.id] = t
	sh.tenantN.Store(int64(len(sh.tenants)))
}

// drop removes a tenant (quarantine) and refreshes the tenant gauge.
func (sh *shard) drop(id string) {
	delete(sh.tenants, id)
	sh.tenantN.Store(int64(len(sh.tenants)))
}

// rebuild replaces a tenant whose last mutation failed partway with a
// clean replay of its journal; an unreplayable journal quarantines the
// tenant (and only it).
func (sh *shard) rebuild(t *tenant) {
	fresh, err := rebuildTenant(sh.srv, t.id, t.store)
	if err != nil {
		t.store.Close()
		sh.drop(t.id)
		sh.srv.quarantine(t.id, err)
		return
	}
	sh.tenants[t.id] = fresh
}

// shardIndex maps a tenant ID onto its shard by provenance-key hash.
func shardIndex(id string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(n))
}
