package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"netconstant/internal/mpi"
)

// serveReq runs one request through the server's handler in-process.
func serveReq(s *Server, method, path, body string) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec
}

func mustServe(t *testing.T, s *Server, method, path, body string, want int) *httptest.ResponseRecorder {
	t.Helper()
	rec := serveReq(s, method, path, body)
	mustStatus(t, want, rec.Code, rec.Body.String())
	return rec
}

// adviceCounts sums the memo counters /healthz reports over all shards.
func adviceCounts(t *testing.T, s *Server) (hits, misses int64) {
	t.Helper()
	var h HealthResponse
	if err := json.Unmarshal(mustServe(t, s, http.MethodGet, "/healthz", "", http.StatusOK).Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	for _, sh := range h.Shards {
		hits += sh.AdviceHits
		misses += sh.AdviceMisses
	}
	return hits, misses
}

// adviseKey is one advise request of the fixed key sets below.
type adviseKey struct {
	strategy string
	root     int
	msg      float64
}

func (k adviseKey) body() string {
	return fmt.Sprintf(`{"strategy":%q,"root":%d,"msg_bytes":%v}`, k.strategy, k.root, k.msg)
}

// adviseKeys covers every strategy at two roots and two message sizes
// of a 6-VM test tenant.
func adviseKeys() []adviseKey {
	var keys []adviseKey
	for _, strategy := range []string{"baseline", "heuristics", "rpca", "topology"} {
		for _, root := range []int{0, 5} {
			for _, msg := range []float64{4096, 1 << 20} {
				keys = append(keys, adviseKey{strategy, root, msg})
			}
		}
	}
	return keys
}

// uncachedAdvice plans k on the shard goroutine without the memo and
// encodes it the way a 200 advise body is written.
func uncachedAdvice(t *testing.T, s *Server, id string, k adviseKey) string {
	t.Helper()
	var body []byte
	err := s.inspect(context.Background(), id, func(tn *tenant) error {
		strategy, err := parseStrategy(k.strategy)
		if err != nil {
			return err
		}
		resp, err := tn.advise(strategy, k.root, k.msg)
		if err != nil {
			return err
		}
		buf, err := json.Marshal(resp)
		body = append(buf, '\n')
		return err
	})
	if err != nil {
		t.Fatalf("uncached advise %+v: %v", k, err)
	}
	return string(body)
}

// TestAdviceMemoCoherence: after every kind of mutation, a fixed key set
// asked twice misses and then hits, and both answers equal, byte for
// byte, the answer planned without the memo at that moment — including
// the Baseline answers before any calibration and the state left by a
// failed mutation.
func TestAdviceMemoCoherence(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	s, err := New(ctx, Config{Dir: t.TempDir(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const base = "/v1/tenants/alpha"
	mustServe(t, s, http.MethodPut, base, testTenantBody(21), http.StatusCreated)
	keys := adviseKeys()

	steps := []struct {
		name, path, body string
		want             int
	}{
		{"create", "", "", 0},
		{"calibrate", "/calibrate", "", http.StatusOK},
		{"failed stream pair", "/stream/pair", `{"src":0,"dst":1,"lat":[1,1,1],"bw":[1,1,1]}`, http.StatusConflict},
		{"quiet observe", "/observe", `{"expected":1,"actual":1.1}`, http.StatusOK},
		{"spike observe", "/observe", `{"expected":1,"actual":9}`, http.StatusOK},
		{"advance", "/advance", `{"dt":30}`, http.StatusOK},
		{"stream begin", "/stream/begin", "", http.StatusOK},
		{"stream pair", "/stream/pair", `{"src":0,"dst":1,"lat":[0.001,0.0011,0.0012],"bw":[1e8,1.1e8,0.9e8]}`, http.StatusOK},
		{"resolve", "/resolve", "", http.StatusOK},
	}
	for _, st := range steps {
		if st.want != 0 {
			rec := mustServe(t, s, http.MethodPost, base+st.path, st.body, st.want)
			if st.name == "spike observe" && !strings.Contains(rec.Body.String(), `"triggered":true`) {
				t.Fatalf("spike observe did not trigger maintenance: %s", rec.Body)
			}
		}
		// The mutation dropped the memo's table, not just its entries.
		if err := s.inspect(ctx, "alpha", func(tn *tenant) error {
			if tn.advice != nil || tn.adviceBytes != 0 {
				return fmt.Errorf("after %s the memo holds %d answers in %d bytes", st.name, len(tn.advice), tn.adviceBytes)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := make([]string, len(keys))
		for i, k := range keys {
			want[i] = uncachedAdvice(t, s, "alpha", k)
		}
		for pass, kind := range []string{"miss", "hit"} {
			hits0, misses0 := adviceCounts(t, s)
			for i, k := range keys {
				rec := mustServe(t, s, http.MethodPost, base+"/advise", k.body(), http.StatusOK)
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Fatalf("after %s, %s %+v: Content-Type %q", st.name, kind, k, ct)
				}
				if got := rec.Body.String(); got != want[i] {
					t.Fatalf("after %s, %s %+v:\ngot:  %swant: %s", st.name, kind, k, got, want[i])
				}
			}
			hits, misses := adviceCounts(t, s)
			wantHits, wantMisses := int64(0), int64(len(keys))
			if pass == 1 {
				wantHits, wantMisses = wantMisses, wantHits
			}
			if hits-hits0 != wantHits || misses-misses0 != wantMisses {
				t.Fatalf("after %s, %s pass: %d hits and %d misses, want %d and %d",
					st.name, kind, hits-hits0, misses-misses0, wantHits, wantMisses)
			}
		}
	}
}

// TestAdviceErrorsNeverCached: malformed advise requests stay typed 400s
// even right after a valid request for a neighbouring key, and neither
// count as memo traffic nor occupy it.
func TestAdviceErrorsNeverCached(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	s, err := New(ctx, Config{Dir: t.TempDir(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const base = "/v1/tenants/alpha"
	mustServe(t, s, http.MethodPut, base, testTenantBody(22), http.StatusCreated)
	mustServe(t, s, http.MethodPost, base+"/calibrate", "", http.StatusOK)
	for _, c := range []struct{ valid, bad string }{
		{`{"strategy":"rpca","root":5,"msg_bytes":1024}`, `{"strategy":"rpca","root":6,"msg_bytes":1024}`},
		{`{"strategy":"rpca","root":0,"msg_bytes":1024}`, `{"strategy":"rpca","root":-1,"msg_bytes":1024}`},
		{`{"strategy":"rpca","root":0,"msg_bytes":1}`, `{"strategy":"rpca","root":0,"msg_bytes":0}`},
		{`{"strategy":"rpca","root":0,"msg_bytes":1024}`, `{"strategy":"rpca","root":0,"msg_bytes":-1024}`},
		{`{"strategy":"rpca","root":0,"msg_bytes":1024}`, `{"strategy":"rpca","root":0,"msg_bytes":-0}`},
		{`{"strategy":"topology","root":0,"msg_bytes":1024}`, `{"strategy":"TOPOLOGY","root":0,"msg_bytes":1024}`},
		{`{"strategy":"","root":0,"msg_bytes":1024}`, `{"strategy":"bogus","root":0,"msg_bytes":1024}`},
	} {
		for range 2 {
			mustServe(t, s, http.MethodPost, base+"/advise", c.valid, http.StatusOK)
			hits0, misses0 := adviceCounts(t, s)
			rec := mustServe(t, s, http.MethodPost, base+"/advise", c.bad, http.StatusBadRequest)
			if !strings.Contains(rec.Body.String(), `"code":"bad-request"`) {
				t.Fatalf("%s: 400 not typed: %s", c.bad, rec.Body)
			}
			if hits, misses := adviceCounts(t, s); hits != hits0 || misses != misses0 {
				t.Fatalf("%s counted as memo traffic", c.bad)
			}
		}
	}
	// Only the four distinct valid keys are stored ("" is "rpca").
	if err := s.inspect(ctx, "alpha", func(tn *tenant) error {
		if len(tn.advice) != 4 {
			return fmt.Errorf("memo holds %d answers, want 4", len(tn.advice))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAdviceMemoBound: the cached bytes never exceed adviceMemoBytes; an
// oversized body is not stored, and an insert that would overflow drops
// the memo first.
func TestAdviceMemoBound(t *testing.T) {
	var tn tenant
	tn.remember(adviceKey{root: 1}, make([]byte, adviceMemoBytes+1))
	if len(tn.advice) != 0 || tn.adviceBytes != 0 {
		t.Fatalf("oversized body stored: %d answers, %d bytes", len(tn.advice), tn.adviceBytes)
	}
	half := make([]byte, adviceMemoBytes/2+1)
	tn.remember(adviceKey{root: 1}, half)
	tn.remember(adviceKey{root: 2}, half)
	if _, ok := tn.advice[adviceKey{root: 2}]; len(tn.advice) != 1 || !ok || tn.adviceBytes != len(half) {
		t.Fatalf("overflow kept %d answers, %d bytes; want only the new one", len(tn.advice), tn.adviceBytes)
	}
	tn.remember(adviceKey{root: 3}, make([]byte, adviceMemoBytes))
	if len(tn.advice) != 1 || tn.adviceBytes != adviceMemoBytes {
		t.Fatalf("a body of exactly the bound: %d answers, %d bytes", len(tn.advice), tn.adviceBytes)
	}

	// Real answers: distinct message sizes until the memo has overflowed
	// twice, checking the bound after every insert.
	ctx, done := context.WithCancel(context.Background())
	defer done()
	s, err := New(ctx, Config{Dir: t.TempDir(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustServe(t, s, http.MethodPut, "/v1/tenants/alpha", testTenantBody(23), http.StatusCreated)
	if err := s.inspect(ctx, "alpha", func(tn *tenant) error {
		clears, prev := 0, 0
		for i := 1; clears < 2; i++ {
			if _, hit, err := tn.adviseBody(AdviseRequest{Root: 0, MsgBytes: float64(i)}); err != nil || hit {
				return fmt.Errorf("request %d: hit %v, err %v", i, hit, err)
			}
			if tn.adviceBytes > adviceMemoBytes {
				return fmt.Errorf("request %d: %d cached bytes exceed the %d bound", i, tn.adviceBytes, adviceMemoBytes)
			}
			if len(tn.advice) < prev {
				if len(tn.advice) != 1 {
					return fmt.Errorf("request %d: overflow left %d answers, want only the new one", i, len(tn.advice))
				}
				clears++
			}
			prev = len(tn.advice)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAdviceCounters: K distinct keys over N requests are K misses and
// N−K hits; a calibrate-then-advise loop never hits.
func TestAdviceCounters(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	s, err := New(ctx, Config{Dir: t.TempDir(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, id := range []string{"alpha", "beta"} {
		mustServe(t, s, http.MethodPut, "/v1/tenants/"+id, testTenantBody(24), http.StatusCreated)
		mustServe(t, s, http.MethodPost, "/v1/tenants/"+id+"/calibrate", "", http.StatusOK)
	}
	keys := adviseKeys()
	const n = 100
	for i := range n {
		id := []string{"alpha", "beta"}[i%2]
		mustServe(t, s, http.MethodPost, "/v1/tenants/"+id+"/advise", keys[(i/2)%len(keys)].body(), http.StatusOK)
	}
	// Each tenant saw every key (50 requests over 16 keys).
	k := int64(2 * len(keys))
	if hits, misses := adviceCounts(t, s); misses != k || hits != n-k {
		t.Fatalf("%d hits and %d misses, want %d and %d", hits, misses, n-k, k)
	}
	hits0, misses0 := adviceCounts(t, s)
	for range 3 {
		mustServe(t, s, http.MethodPost, "/v1/tenants/alpha/calibrate", "", http.StatusOK)
		mustServe(t, s, http.MethodPost, "/v1/tenants/alpha/advise", probeAdvise, http.StatusOK)
	}
	if hits, misses := adviceCounts(t, s); hits != hits0 || misses != misses0+3 {
		t.Fatalf("calibrate-then-advise: %d hits and %d misses, want 0 and 3", hits-hits0, misses-misses0)
	}
}

// TestAdviceMemoConcurrent: readers advising the same keys while a
// writer calibrates and advances always get a 200 with a valid tree.
// Run it under -race -count=10: cached bodies are shared by handler
// goroutines after their shard task ends.
func TestAdviceMemoConcurrent(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	s, err := New(ctx, Config{Dir: t.TempDir(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const base, vms = "/v1/tenants/alpha", 6
	mustServe(t, s, http.MethodPut, base, testTenantBody(25), http.StatusCreated)
	mustServe(t, s, http.MethodPost, base+"/calibrate", "", http.StatusOK)
	keys := adviseKeys()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[i%len(keys)]
				rec := serveReq(s, http.MethodPost, base+"/advise", k.body())
				if rec.Code != http.StatusOK {
					t.Errorf("advise %+v: status %d: %s", k, rec.Code, rec.Body)
					return
				}
				var resp AdviseResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Errorf("advise %+v: %v", k, err)
					return
				}
				tree := &mpi.Tree{Root: resp.Root, Parent: resp.Parent, Children: make([][]int, len(resp.Parent))}
				for v, p := range resp.Parent {
					if p >= 0 && p < len(resp.Parent) {
						tree.Children[p] = append(tree.Children[p], v)
					}
				}
				if resp.Root != k.root || len(resp.Parent) != vms {
					t.Errorf("advise %+v: tree rooted at %d over %d ranks", k, resp.Root, len(resp.Parent))
					return
				}
				if err := tree.Validate(); err != nil {
					t.Errorf("advise %+v: %v", k, err)
					return
				}
			}
		}()
	}
	for range 4 {
		for _, path := range []string{"/calibrate", "/advance"} {
			body := ""
			if path == "/advance" {
				body = `{"dt":10}`
			}
			if rec := serveReq(s, http.MethodPost, base+path, body); rec.Code != http.StatusOK {
				t.Errorf("%s: status %d: %s", path, rec.Code, rec.Body)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestMutationResponseReportsItsOwnSeq: concurrent mutations of one
// tenant each report the state they produced — N advances after the
// create record return the seqs 2..N+1, each exactly once.
func TestMutationResponseReportsItsOwnSeq(t *testing.T) {
	ctx, done := context.WithCancel(context.Background())
	defer done()
	s, err := New(ctx, Config{Dir: t.TempDir(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const base, n = "/v1/tenants/alpha", 32
	mustServe(t, s, http.MethodPut, base, testTenantBody(26), http.StatusCreated)
	seqs := make([]int, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := serveReq(s, http.MethodPost, base+"/advance", `{"dt":1}`)
			var st StatusResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &st); rec.Code != http.StatusOK || err != nil {
				t.Errorf("advance %d: status %d (%v): %s", i, rec.Code, err, rec.Body)
				return
			}
			seqs[i] = int(st.Seq)
		}()
	}
	wg.Wait()
	sort.Ints(seqs)
	for i, seq := range seqs {
		if seq != i+2 {
			t.Fatalf("advance responses carry seqs %v, want 2..%d each once", seqs, n+1)
		}
	}
}
