package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"netconstant/internal/checkpoint"
)

// testConfig keeps tenants small so a full calibrate runs in
// milliseconds.
func testTenantBody(seed int64) string {
	return fmt.Sprintf(`{"vms":6,"seed":%d,"steps":3,"racks":4,"servers_per_rack":4,"gap":5,"threshold":0.5}`, seed)
}

func newTestServer(t *testing.T, ctx context.Context, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Dir = dir
	s, err := New(ctx, cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(s)
	return s, hs
}

func doReq(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(buf)
}

func mustStatus(t *testing.T, wantCode int, gotCode int, body string) {
	t.Helper()
	if gotCode != wantCode {
		t.Fatalf("status %d, want %d; body: %s", gotCode, wantCode, body)
	}
}

// probeAdvise is the advise request every restart probe sends.
const probeAdvise = `{"strategy":"rpca","root":0,"msg_bytes":1048576}`

// runTrace drives a representative multi-tenant request trace and
// returns each tenant's post-trace probe responses (status + advise),
// the byte-level state the restart oracle compares. Every mutation is
// followed by the probe's advise request, so a memoized answer that
// outlived the mutation would reach the final probe and differ from the
// restarted server's freshly planned one.
func runTrace(t *testing.T, base string, tenants []string) map[string]string {
	t.Helper()
	mutate := func(id, path, body string, want int) string {
		t.Helper()
		code, resp := doReq(t, http.MethodPost, base+"/v1/tenants/"+id+path, body)
		mustStatus(t, want, code, resp)
		code, advise := doReq(t, http.MethodPost, base+"/v1/tenants/"+id+"/advise", probeAdvise)
		mustStatus(t, http.StatusOK, code, advise)
		return resp
	}
	for i, id := range tenants {
		code, body := doReq(t, http.MethodPut, base+"/v1/tenants/"+id, testTenantBody(int64(100+i)))
		mustStatus(t, http.StatusCreated, code, body)
		code, body = doReq(t, http.MethodPost, base+"/v1/tenants/"+id+"/advise", probeAdvise)
		mustStatus(t, http.StatusOK, code, body)
	}
	for _, id := range tenants {
		mutate(id, "/calibrate", "", http.StatusOK)
		mutate(id, "/advance", `{"dt":30}`, http.StatusOK)
		// A quiet observation, then a spike that forces maintenance.
		mutate(id, "/observe", `{"expected":1,"actual":1.1}`, http.StatusOK)
		body := mutate(id, "/observe", `{"expected":1,"actual":9}`, http.StatusOK)
		var ob ObserveResponse
		if err := json.Unmarshal([]byte(body), &ob); err != nil || !ob.Triggered {
			t.Fatalf("spike observe should trigger maintenance: %s (err %v)", body, err)
		}
	}
	// One tenant opens a streaming session and resolves.
	id := tenants[0]
	mutate(id, "/stream/begin", "", http.StatusOK)
	mutate(id, "/stream/pair", `{"src":0,"dst":1,"lat":[0.001,0.0011,0.0012],"bw":[1e8,1.1e8,0.9e8]}`, http.StatusOK)
	mutate(id, "/resolve", "", http.StatusOK)
	return probeAll(t, base, tenants)
}

// probeAll captures the deterministic read surface for each tenant.
func probeAll(t *testing.T, base string, tenants []string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, id := range tenants {
		code, status := doReq(t, http.MethodGet, base+"/v1/tenants/"+id, "")
		mustStatus(t, http.StatusOK, code, status)
		code, advise := doReq(t, http.MethodPost, base+"/v1/tenants/"+id+"/advise", probeAdvise)
		mustStatus(t, http.StatusOK, code, advise)
		out[id] = status + advise
	}
	return out
}

// TestServerRestartEquivalence: a server closed cleanly and reopened
// from its journals answers byte-identically — including tenants whose
// state came from observe-triggered recalibrations and streaming
// partial resolves.
func TestServerRestartEquivalence(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	dir := t.TempDir()
	tenants := []string{"alpha", "beta", "gamma"}

	s1, hs1 := newTestServer(t, ctx, dir, Config{Shards: 2})
	before := runTrace(t, hs1.URL, tenants)
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2, hs2 := newTestServer(t, ctx, dir, Config{Shards: 2})
	defer s2.Close()
	defer hs2.Close()
	if q := s2.Quarantined(); len(q) != 0 {
		t.Fatalf("clean restart quarantined %v", q)
	}
	after := probeAll(t, hs2.URL, tenants)
	for _, id := range tenants {
		if before[id] != after[id] {
			t.Fatalf("tenant %s diverged across restart:\nbefore: %s\nafter:  %s", id, before[id], after[id])
		}
	}
	// The restarted server keeps accepting mutations.
	code, body := doReq(t, http.MethodPost, hs2.URL+"/v1/tenants/alpha/observe", `{"expected":1,"actual":1.05}`)
	mustStatus(t, http.StatusOK, code, body)
}

// TestServerRestartEquivalenceDifferentShardCount: restart equivalence
// must not depend on the shard layout, only on the journals.
func TestServerRestartEquivalenceDifferentShardCount(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	dir := t.TempDir()
	tenants := []string{"alpha", "beta"}
	s1, hs1 := newTestServer(t, ctx, dir, Config{Shards: 1})
	before := runTrace(t, hs1.URL, tenants)
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, hs2 := newTestServer(t, ctx, dir, Config{Shards: 4})
	defer s2.Close()
	defer hs2.Close()
	after := probeAll(t, hs2.URL, tenants)
	for _, id := range tenants {
		if before[id] != after[id] {
			t.Fatalf("tenant %s diverged across shard-count change", id)
		}
	}
}

// TestServerQuarantineIsolation: damaging one tenant's files quarantines
// exactly that tenant — a typed refusal for it that names the corrupt
// frame, byte-identical answers for its neighbors, and a /healthz listing.
func TestServerQuarantineIsolation(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	dir := t.TempDir()
	tenants := []string{"alpha", "beta", "gamma"}
	s1, hs1 := newTestServer(t, ctx, dir, Config{})
	before := runTrace(t, hs1.URL, tenants)
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	damageCreateRecord(t, filepath.Join(dir, "alpha.nclog"))

	s2, hs2 := newTestServer(t, ctx, dir, Config{})
	defer s2.Close()
	defer hs2.Close()
	// The reason is the corrupt frame: the create record fails its CRC.
	code, body := doReq(t, http.MethodGet, hs2.URL+"/v1/tenants/alpha", "")
	mustQuarantine(t, s2, "alpha", code, body, "alpha.nclog", "payload CRC mismatch")
	// Mutations are refused too.
	code, body = doReq(t, http.MethodPost, hs2.URL+"/v1/tenants/alpha/calibrate", "")
	mustQuarantine(t, s2, "alpha", code, body, "alpha.nclog", "payload CRC mismatch")
	// Neighbors are untouched.
	after := probeAll(t, hs2.URL, tenants[1:])
	for _, id := range tenants[1:] {
		if before[id] != after[id] {
			t.Fatalf("healthy tenant %s diverged after neighbor quarantine", id)
		}
	}
	// healthz lists the quarantined tenant.
	code, body = doReq(t, http.MethodGet, hs2.URL+"/healthz", "")
	mustStatus(t, http.StatusOK, code, body)
	var h HealthResponse
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if len(h.Quarantined) != 1 || h.Quarantined[0] != "alpha" {
		t.Fatalf("healthz quarantined = %v, want [alpha]", h.Quarantined)
	}
}

// damageCreateRecord flips a byte inside the journal's first frame, the
// tenant's create record: past the 8-byte magic and the frame's 8-byte
// length and checksum header, halfway into its payload. A tenant with
// any mutation journals later frames, so the damage cannot pass as a
// torn tail.
func damageCreateRecord(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := int(binary.LittleEndian.Uint32(buf[8:12]))
	buf[16+n/2] ^= 0x20
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// mustQuarantine checks a typed 410 for tenant id: its error is the
// sentinel, the id and the reason the server recorded (what
// netconstantd's startup line prints), the reason names its cause in
// each of words, and the body does not carry the server's Dir.
func mustQuarantine(t *testing.T, s *Server, id string, code int, body string, words ...string) {
	t.Helper()
	mustStatus(t, http.StatusGone, code, body)
	if strings.Contains(body, s.cfg.Dir) {
		t.Fatalf("410 publishes the journal directory %s: %s", s.cfg.Dir, body)
	}
	reason, ok := s.QuarantineReason(id)
	if !ok {
		t.Fatalf("%s answered 410 but has no recorded reason", id)
	}
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Code != "quarantined" {
		t.Fatalf("quarantined refusal not typed: %s", body)
	}
	if want := "serve: tenant quarantined: " + id + ": " + reason; eb.Error != want {
		t.Fatalf("410 error %q, want %q", eb.Error, want)
	}
	for _, w := range words {
		if !strings.Contains(reason, w) {
			t.Fatalf("quarantine reason %q does not say %q", reason, w)
		}
	}
}

// TestServerLegacySnapshotQuarantines: an older build drained a tenant
// by sealing its records into <id>.ncsnap and truncating <id>.nclog to
// its magic. This build keeps every record in the journal, so it must
// quarantine that tenant with a typed 410 whose reason names the
// snapshot, not serve an empty or missing tenant, while its neighbor
// answers byte-identically.
func TestServerLegacySnapshotQuarantines(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	dir := t.TempDir()
	tenants := []string{"alpha", "beta"}
	s1, hs1 := newTestServer(t, ctx, dir, Config{})
	before := runTrace(t, hs1.URL, tenants)
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite alpha as the older build left it: the snapshot payload is
	// the high-water sequence, then each record behind its 4-byte length.
	jp, sp := filepath.Join(dir, "alpha.nclog"), filepath.Join(dir, "alpha.ncsnap")
	store, err := checkpoint.OpenStore(jp, sp)
	if err != nil {
		t.Fatal(err)
	}
	payload := binary.LittleEndian.AppendUint64(nil, store.Seq())
	for _, r := range store.Records() {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(r)))
		payload = append(payload, r...)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.SaveSnapshot(sp, payload); err != nil {
		t.Fatal(err)
	}
	j, err := checkpoint.Create(jp) // truncates to the magic
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s2, hs2 := newTestServer(t, ctx, dir, Config{})
	defer s2.Close()
	defer hs2.Close()
	if q := s2.Quarantined(); len(q) != 1 || q[0] != "alpha" {
		t.Fatalf("quarantined %v, want [alpha]", q)
	}
	code, body := doReq(t, http.MethodGet, hs2.URL+"/v1/tenants/alpha", "")
	mustQuarantine(t, s2, "alpha", code, body, "alpha.ncsnap", "snapshot left by an older build")
	if after := probeAll(t, hs2.URL, tenants[1:]); after["beta"] != before["beta"] {
		t.Fatalf("beta diverged beside a quarantined legacy tenant:\nbefore: %s\nafter:  %s", before["beta"], after["beta"])
	}
}

// TestFailedJournalAppendIsNotAcked: a mutation whose journal append
// fails is not in the store, so it must not be acknowledged or leave a
// trace. The calibrate answers a typed 5xx, the tenant's status still
// reads the pre-mutation seq and calibrations, and a restart on the
// directory answers byte-identically to the probe taken before it.
func TestFailedJournalAppendIsNotAcked(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	dir := t.TempDir()
	s1, hs1 := newTestServer(t, ctx, dir, Config{})
	code, body := doReq(t, http.MethodPut, hs1.URL+"/v1/tenants/alpha", testTenantBody(11))
	mustStatus(t, http.StatusCreated, code, body)
	code, body = doReq(t, http.MethodPost, hs1.URL+"/v1/tenants/alpha/calibrate", "")
	mustStatus(t, http.StatusOK, code, body)
	before := probeAll(t, hs1.URL, []string{"alpha"})
	var pre StatusResponse
	if err := json.Unmarshal([]byte(body), &pre); err != nil {
		t.Fatal(err)
	}

	// Close alpha's store from inside its shard, the tenant's single
	// writer, so the next Append fails.
	sh := s1.shardFor("alpha")
	if err := sh.submit(ctx, func(context.Context) error { return sh.tenants["alpha"].store.Close() }); err != nil {
		t.Fatal(err)
	}
	code, body = doReq(t, http.MethodPost, hs1.URL+"/v1/tenants/alpha/calibrate", "")
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil || code < 500 || eb.Code != "internal" {
		t.Fatalf("calibrate with a failing journal answered %d %s, want a typed 5xx", code, body)
	}
	code, body = doReq(t, http.MethodGet, hs1.URL+"/v1/tenants/alpha", "")
	mustStatus(t, http.StatusOK, code, body)
	var post StatusResponse
	if err := json.Unmarshal([]byte(body), &post); err != nil {
		t.Fatal(err)
	}
	if post.Seq != pre.Seq || post.Calibrations != pre.Calibrations {
		t.Fatalf("unjournaled calibrate moved the tenant: seq %d → %d, calibrations %d → %d", pre.Seq, post.Seq, pre.Calibrations, post.Calibrations)
	}
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, hs2 := newTestServer(t, ctx, dir, Config{})
	defer s2.Close()
	defer hs2.Close()
	if after := probeAll(t, hs2.URL, []string{"alpha"}); after["alpha"] != before["alpha"] {
		t.Fatalf("restart after a failed append diverged from the pre-mutation probe:\nbefore: %s\nafter:  %s", before["alpha"], after["alpha"])
	}
}

// TestServerSheddingAndDeadline: a wedged shard sheds excess load with
// the typed 429 and returns typed deadline errors to bounded requests,
// instead of queueing unboundedly. A burst of 96 advise requests at a
// shard wedged behind a queue of 8 is deterministic: exactly 8 queue and
// are served once the shard is released, and the other 88 are refused at
// admission. No request may fail any other way.
func TestServerSheddingAndDeadline(t *testing.T) {
	const depth, burst = 8, 96
	ctx, done := context.WithCancel(context.Background())
	defer done()
	dir := t.TempDir()
	s, hs := newTestServer(t, ctx, dir, Config{Shards: 1, QueueDepth: depth})
	defer s.Close()
	defer hs.Close()

	code, body := doReq(t, http.MethodPut, hs.URL+"/v1/tenants/alpha", testTenantBody(7))
	mustStatus(t, http.StatusCreated, code, body)
	code, body = doReq(t, http.MethodPost, hs.URL+"/v1/tenants/alpha/calibrate", "")
	mustStatus(t, http.StatusOK, code, body)
	before := shardHealth(t, hs.URL)

	// Wedge the only shard. The release defer is registered after the
	// Close defers, so it runs first and a test failure can never leave
	// the shard (and s.Close) deadlocked.
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	blocked := make(chan struct{})
	go s.shards[0].submit(context.Background(), func(context.Context) error {
		close(blocked)
		<-release
		return nil
	})
	<-blocked

	type outcome struct {
		code       int
		retryAfter string
		body       string
		err        error
	}
	outcomes := make([]outcome, burst)
	var wg sync.WaitGroup
	for i := range outcomes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &outcomes[i]
			resp, err := http.Post(hs.URL+"/v1/tenants/alpha/advise", "application/json", strings.NewReader(probeAdvise))
			if err != nil {
				o.err = err
				return
			}
			defer resp.Body.Close()
			buf, err := io.ReadAll(resp.Body)
			o.code, o.retryAfter, o.body, o.err = resp.StatusCode, resp.Header.Get("Retry-After"), string(buf), err
		}()
	}
	// Every request is admitted or refused before any is served: the
	// queue holds exactly depth of them and the shed count covers the rest.
	waitFor(t, func() bool {
		h := shardHealth(t, hs.URL)
		return h.Queue == depth && h.Shed-before.Shed == burst-depth
	})
	releaseOnce()
	wg.Wait()

	served, shed := 0, 0
	for i, o := range outcomes {
		switch {
		case o.err != nil:
			t.Errorf("request %d: transport error %v", i, o.err)
		case o.code == http.StatusOK:
			served++
		case o.code == http.StatusTooManyRequests:
			shed++
			var eb errorBody
			if err := json.Unmarshal([]byte(o.body), &eb); err != nil || eb.Code != "overloaded" {
				t.Errorf("request %d: shed response not typed: %s", i, o.body)
			}
			if o.retryAfter == "" {
				t.Errorf("request %d: shed response has no Retry-After", i)
			}
		default:
			t.Errorf("request %d: status %d, want 200 or 429; body: %s", i, o.code, o.body)
		}
	}
	if served != depth || shed != burst-depth {
		t.Fatalf("burst of %d: served %d, shed %d; want %d and %d", burst, served, shed, depth, burst-depth)
	}
	// The shed counter is visible in /healthz.
	if h := shardHealth(t, hs.URL); h.Shed-before.Shed != burst-depth {
		t.Fatalf("healthz shed count grew by %d, want %d", h.Shed-before.Shed, burst-depth)
	}
}

// shardHealth returns /healthz's view of the first shard.
func shardHealth(t *testing.T, base string) ShardHealth {
	t.Helper()
	code, body := doReq(t, http.MethodGet, base+"/healthz", "")
	mustStatus(t, http.StatusOK, code, body)
	var h HealthResponse
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	return h.Shards[0]
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerDeadlineOnSlowMutation: a request whose deadline expires
// while its work runs gets the typed 504.
func TestServerDeadlineOnSlowMutation(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	dir := t.TempDir()
	s, hs := newTestServer(t, ctx, dir, Config{Shards: 1})
	defer s.Close()
	defer hs.Close()
	code, body := doReq(t, http.MethodPut, hs.URL+"/v1/tenants/alpha", testTenantBody(9))
	mustStatus(t, http.StatusCreated, code, body)

	// Wedge the shard so the HTTP request waits in queue past its
	// deadline. The release defer is registered after the Close defers,
	// so it runs first and a failure can never leave s.Close deadlocked.
	release := make(chan struct{})
	defer sync.OnceFunc(func() { close(release) })()
	blocked := make(chan struct{})
	go s.shards[0].submit(context.Background(), func(context.Context) error {
		close(blocked)
		<-release
		return nil
	})
	<-blocked
	code, body = doReq(t, http.MethodGet, hs.URL+"/v1/tenants/alpha?timeout_ms=50", "")
	mustStatus(t, http.StatusGatewayTimeout, code, body)
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Code != "deadline" {
		t.Fatalf("deadline response not typed: %s", body)
	}
}

// TestServerMemoSharedAcrossTenants: tenants with identical provenance
// share calibration traces through the cross-tenant memo tier.
func TestServerMemoSharedAcrossTenants(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	dir := t.TempDir()
	s, hs := newTestServer(t, ctx, dir, Config{})
	defer s.Close()
	defer hs.Close()
	for _, id := range []string{"twin-a", "twin-b"} {
		code, body := doReq(t, http.MethodPut, hs.URL+"/v1/tenants/"+id, testTenantBody(55))
		mustStatus(t, http.StatusCreated, code, body)
		code, body = doReq(t, http.MethodPost, hs.URL+"/v1/tenants/"+id+"/calibrate", "")
		mustStatus(t, http.StatusOK, code, body)
	}
	st := s.MemoStats()
	if st.Hits < 1 {
		t.Fatalf("twin tenants shared no calibration: %+v", st)
	}
}

// TestServerDrainRefusesTyped: after Drain every request gets the typed
// 503, and after Close the tenant's journal, the only file in the
// directory, reopens with every record.
func TestServerDrainRefusesTyped(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	dir := t.TempDir()
	s, hs := newTestServer(t, ctx, dir, Config{})
	defer hs.Close()
	code, body := doReq(t, http.MethodPut, hs.URL+"/v1/tenants/alpha", testTenantBody(3))
	mustStatus(t, http.StatusCreated, code, body)
	code, body = doReq(t, http.MethodPost, hs.URL+"/v1/tenants/alpha/calibrate", "")
	mustStatus(t, http.StatusOK, code, body)

	s.Drain()
	code, body = doReq(t, http.MethodGet, hs.URL+"/v1/tenants/alpha", "")
	mustStatus(t, http.StatusServiceUnavailable, code, body)
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Code != "draining" {
		t.Fatalf("drain refusal not typed: %s", body)
	}
	// healthz still answers, reporting the drain.
	code, body = doReq(t, http.MethodGet, hs.URL+"/healthz", "")
	mustStatus(t, http.StatusOK, code, body)
	if !bytes.Contains([]byte(body), []byte(`"status":"draining"`)) {
		t.Fatalf("healthz should report draining: %s", body)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "alpha.nclog" {
		t.Fatalf("drained directory holds %v, want only alpha.nclog", entries)
	}
	store, err := checkpoint.OpenStore(filepath.Join(dir, "alpha.nclog"), filepath.Join(dir, "alpha.ncsnap"))
	if err != nil {
		t.Fatalf("reopen drained journal: %v", err)
	}
	defer store.Close()
	var kinds []string
	for _, rec := range store.Records() {
		var o op
		if err := json.Unmarshal(rec, &o); err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, o.Kind)
	}
	if store.Seq() != 2 || strings.Join(kinds, ",") != opCreate+","+opCalibrate {
		t.Fatalf("drained journal replays seq %d with %v, want seq 2 with [create calibrate]", store.Seq(), kinds)
	}
}

// TestServerTenantValidation: malformed IDs and configs refuse with the
// typed 400 before touching any shard.
func TestServerTenantValidation(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	s, hs := newTestServer(t, ctx, t.TempDir(), Config{})
	defer s.Close()
	defer hs.Close()
	code, body := doReq(t, http.MethodPut, hs.URL+"/v1/tenants/bad..id", testTenantBody(1))
	mustStatus(t, http.StatusBadRequest, code, body)
	code, body = doReq(t, http.MethodPut, hs.URL+"/v1/tenants/ok", `{"vms":1}`)
	mustStatus(t, http.StatusBadRequest, code, body)
	code, body = doReq(t, http.MethodGet, hs.URL+"/v1/tenants/missing", "")
	mustStatus(t, http.StatusNotFound, code, body)
	code, body = doReq(t, http.MethodPut, hs.URL+"/v1/tenants/ok", testTenantBody(1))
	mustStatus(t, http.StatusCreated, code, body)
	code, body = doReq(t, http.MethodPut, hs.URL+"/v1/tenants/ok", testTenantBody(1))
	mustStatus(t, http.StatusConflict, code, body)
	code, body = doReq(t, http.MethodPost, hs.URL+"/v1/tenants/ok/resolve", "")
	mustStatus(t, http.StatusConflict, code, body) // not streaming
	// Shapes just over the caps, and a racks×servers_per_rack product
	// that wraps to a small positive number, refuse before any tree or
	// pair matrix is built.
	for _, cfg := range []string{
		`{"vms":257,"racks":17,"servers_per_rack":16}`,
		`{"vms":6,"steps":31,"racks":4,"servers_per_rack":4}`,
		`{"vms":6,"racks":131073,"servers_per_rack":1}`,
		`{"vms":6,"racks":4294967297,"servers_per_rack":4294967297}`,
	} {
		code, body = doReq(t, http.MethodPut, hs.URL+"/v1/tenants/big", cfg)
		mustStatus(t, http.StatusBadRequest, code, body)
		var eb errorBody
		if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Code != "bad-request" {
			t.Fatalf("%s: refusal not typed: %s", cfg, body)
		}
	}
}

// TestStreamBeginWithoutCalibrationIs409: stream/begin on a tenant that
// has not calibrated, or whose calibration is not completely observed (a
// resilient tenant's masked trace), is a well-formed request the tenant's
// state refuses: a typed 409 not-streaming, never a 5xx.
func TestStreamBeginWithoutCalibrationIs409(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	s, hs := newTestServer(t, ctx, t.TempDir(), Config{})
	defer s.Close()
	defer hs.Close()
	resilient := strings.Replace(testTenantBody(2), `"vms":6,`, `"vms":6,"resilient":true,`, 1)
	for _, c := range []struct {
		id, body  string
		calibrate bool
	}{{"fresh", testTenantBody(1), false}, {"masked", resilient, true}} {
		code, body := doReq(t, http.MethodPut, hs.URL+"/v1/tenants/"+c.id, c.body)
		mustStatus(t, http.StatusCreated, code, body)
		if c.calibrate {
			code, body = doReq(t, http.MethodPost, hs.URL+"/v1/tenants/"+c.id+"/calibrate", "")
			mustStatus(t, http.StatusOK, code, body)
		}
		code, body = doReq(t, http.MethodPost, hs.URL+"/v1/tenants/"+c.id+"/stream/begin", "")
		mustStatus(t, http.StatusConflict, code, body)
		var eb errorBody
		if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Code != "not-streaming" {
			t.Fatalf("%s: stream/begin refusal not typed not-streaming: %s", c.id, body)
		}
	}
}

// TestServerOverCapJournalQuarantines: a create record over the shape
// caps, found in the journal at startup, fails the same validation on
// replay, so that tenant is quarantined (a typed 410 naming the create
// record and the cap) and the rest load.
func TestServerOverCapJournalQuarantines(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	dir := t.TempDir()
	store, err := checkpoint.OpenStore(filepath.Join(dir, "big.nclog"), filepath.Join(dir, "big.ncsnap"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(op{Kind: opCreate, Cfg: &TenantConfig{VMs: 6, Steps: 31, Racks: 4, ServersPerRack: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	s, hs := newTestServer(t, ctx, dir, Config{})
	defer s.Close()
	defer hs.Close()
	if q := s.Quarantined(); len(q) != 1 || q[0] != "big" {
		t.Fatalf("quarantined %v, want [big]", q)
	}
	code, body := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/big", "")
	mustQuarantine(t, s, "big", code, body, "create replay", "steps must be between 1 and 30, got 31")
	code, body = doReq(t, http.MethodPut, hs.URL+"/v1/tenants/ok", testTenantBody(1))
	mustStatus(t, http.StatusCreated, code, body)
}
