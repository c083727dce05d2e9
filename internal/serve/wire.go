package serve

// The HTTP/JSON wire surface of the advisor daemon. Every response body
// is a fixed-field struct (never a map), so json.Marshal produces
// byte-identical output for identical state — the property the chaos
// restart-equivalence oracle byte-diffs. Errors travel as
// {"code","error"} with the code drawn from a closed vocabulary that
// clients (and the oracle) can switch on.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"netconstant/internal/cancel"
	"netconstant/internal/core"
)

// ErrOverloaded is the typed admission-control refusal: the target
// shard's queue is full, so the request is shed instead of queued
// unboundedly. Clients should back off and retry (HTTP 429).
var ErrOverloaded = errors.New("serve: shard queue full — request shed")

// ErrDraining is returned once the server has begun its shutdown drain:
// no new work is admitted, in-flight work finishes, journals close.
var ErrDraining = errors.New("serve: draining — not admitting new requests")

// Sentinels for the remaining refusal classes; writeError maps them to
// status codes and wire codes.
var (
	errNotFound    = errors.New("serve: no such tenant")
	errExists      = errors.New("serve: tenant already exists")
	errBadRequest  = errors.New("serve: bad request")
	errQuarantined = errors.New("serve: tenant quarantined")
	errEncoding    = errors.New("serve: response encoding failed")
)

// TenantConfig declares a tenant's virtual cluster and advisor. The
// zero value of each field selects the defaults in parentheses; the
// config is journaled verbatim as the tenant's create record, so a
// restarted daemon rebuilds the identical seeded substrate.
type TenantConfig struct {
	VMs            int     `json:"vms"`              // cluster size (16)
	Seed           int64   `json:"seed"`             // provenance seed for provider, provisioning, and measurement rng streams
	Steps          int     `json:"steps"`            // TP-matrix calibration rows (10)
	Racks          int     `json:"racks"`            // datacenter racks (16)
	ServersPerRack int     `json:"servers_per_rack"` // servers per rack (16)
	Gap            float64 `json:"gap"`              // idle seconds between calibration rows (5)
	Threshold      float64 `json:"threshold"`        // maintenance threshold (advisor default 1.0)
	Resilient      bool    `json:"resilient"`        // retrying, outlier-rejecting calibration probes
}

func (c *TenantConfig) applyDefaults() {
	if c.VMs == 0 {
		c.VMs = 16
	}
	if c.Steps == 0 {
		c.Steps = 10
	}
	if c.Racks == 0 {
		c.Racks = 16
	}
	if c.ServersPerRack == 0 {
		c.ServersPerRack = 16
	}
	if c.Gap == 0 {
		c.Gap = 5
	}
}

// Caps on a tenant's shape. A tenant builds a racks×servers_per_rack
// tree and vms² pair matrices inside its shard, so a create beyond them
// is refused with the typed 400 rather than allowed to allocate without
// bound. The same check runs when a journaled create is replayed.
const (
	maxTenantVMs      = 256     // cmd/netconstant's cap; the paper's largest cluster is 196 VMs
	maxTenantSteps    = 30      // Fig 5's largest time step
	maxTenantMachines = 131_072 // the largest fabric the repo simulates (topo.ClosShape)
)

func (c TenantConfig) validate() error {
	if c.VMs < 2 || c.VMs > maxTenantVMs {
		return errf("vms must be between 2 and %d, got %d", maxTenantVMs, c.VMs)
	}
	if c.Racks < 1 || c.ServersPerRack < 1 {
		return errf("racks and servers_per_rack must be ≥ 1, got %d×%d", c.Racks, c.ServersPerRack)
	}
	// Divide rather than multiply: the product of two large ints wraps.
	if c.Racks > maxTenantMachines/c.ServersPerRack {
		return errf("racks × servers_per_rack must be ≤ %d, got %d×%d", maxTenantMachines, c.Racks, c.ServersPerRack)
	}
	if c.VMs > c.Racks*c.ServersPerRack {
		return errf("vms %d exceed datacenter capacity %d", c.VMs, c.Racks*c.ServersPerRack)
	}
	if c.Steps < 1 || c.Steps > maxTenantSteps {
		return errf("steps must be between 1 and %d, got %d", maxTenantSteps, c.Steps)
	}
	if c.Gap < 0 || c.Threshold < 0 {
		return errf("gap and threshold must be ≥ 0")
	}
	return nil
}

// ObserveRequest reports a measured collective duration against the
// advisor's expectation (Algorithm 1 lines 4–9).
type ObserveRequest struct {
	Expected float64 `json:"expected"`
	Actual   float64 `json:"actual"`
}

// ObserveResponse reports whether the divergence triggered maintenance.
type ObserveResponse struct {
	Tenant    string `json:"tenant"`
	Triggered bool   `json:"triggered"`
	Seq       uint64 `json:"seq"`
}

// AdvanceRequest moves the tenant's cluster clock forward dt seconds.
type AdvanceRequest struct {
	Dt float64 `json:"dt"`
}

// StreamPairRequest feeds a re-measured pair column into the tenant's
// streaming session: the latency and bandwidth time series (length =
// Steps) for the src→dst column of the TP-matrices.
type StreamPairRequest struct {
	Src int       `json:"src"`
	Dst int       `json:"dst"`
	Lat []float64 `json:"lat"`
	Bw  []float64 `json:"bw"`
}

// AdviseRequest asks for a collective tree under a strategy. Strategy is
// one of "baseline", "heuristics", "rpca" (default), "topology".
type AdviseRequest struct {
	Strategy string  `json:"strategy"`
	Root     int     `json:"root"`
	MsgBytes float64 `json:"msg_bytes"`
}

// AdviseResponse is the planned tree plus the degraded-mode envelope:
// the strategy actually used after the RPCA→Heuristics→Baseline fallback
// ladder, and the calibration-health grade that drove it. A degraded
// answer is still an answer — the fallback surfaces in the body, not as
// an error.
type AdviseResponse struct {
	Tenant        string  `json:"tenant"`
	Requested     string  `json:"requested"`
	Effective     string  `json:"effective"`
	Degraded      bool    `json:"degraded"`
	Confidence    string  `json:"confidence"`
	Effectiveness string  `json:"effectiveness"`
	NormE         float64 `json:"norm_e"`
	Root          int     `json:"root"`
	Parent        []int   `json:"parent"`
	Depth         int     `json:"depth"`
	ExpectedSec   float64 `json:"expected_s"`
}

// StatusResponse is the tenant's full advisor state summary.
type StatusResponse struct {
	Tenant          string  `json:"tenant"`
	VMs             int     `json:"vms"`
	Seq             uint64  `json:"seq"` // journaled mutations over the tenant's lifetime
	ClusterTime     float64 `json:"cluster_time_s"`
	Calibrations    int     `json:"calibrations"`
	Recalibrations  int     `json:"recalibrations"`
	PartialResolves int     `json:"partial_resolves"`
	CalibrationCost float64 `json:"calibration_cost_s"`
	NormE           float64 `json:"norm_e"`
	Effectiveness   string  `json:"effectiveness"`
	Confidence      string  `json:"confidence"`
	Coverage        float64 `json:"coverage"`
	MeanQuality     float64 `json:"mean_quality"`
	OutlierRate     float64 `json:"outlier_rate"`
	RetryExhaustion float64 `json:"retry_exhaustion"`
	Streaming       bool    `json:"streaming"`
}

// ShardHealth is one shard's progress counters: queue depth and the
// served and mutation counts are the "progress, not liveness" signals a
// supervisor watches. AdviceHits and AdviceMisses split the shard's 200
// advise answers by whether the tenant's advice memo held the body or it
// was planned afresh.
type ShardHealth struct {
	Queue        int   `json:"queue"`
	Served       int64 `json:"served"`
	Shed         int64 `json:"shed"`
	Mutations    int64 `json:"mutations"`
	Tenants      int64 `json:"tenants"`
	AdviceHits   int64 `json:"advice_hits"`
	AdviceMisses int64 `json:"advice_misses"`
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status      string        `json:"status"` // "ok" or "draining"
	Shards      []ShardHealth `json:"shards"`
	Quarantined []string      `json:"quarantined"`
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

func errf(format string, args ...any) error {
	return wrapf(errBadRequest, format, args...)
}

func wrapf(sentinel error, format string, args ...any) error {
	return &wireError{sentinel: sentinel, msg: fmt.Sprintf(format, args...)}
}

type wireError struct {
	sentinel error
	msg      string
}

func (e *wireError) Error() string { return e.sentinel.Error() + ": " + e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

// parseStrategy maps the wire strategy vocabulary onto core.Strategy.
func parseStrategy(s string) (core.Strategy, error) {
	switch s {
	case "", "rpca":
		return core.RPCA, nil
	case "baseline":
		return core.Baseline, nil
	case "heuristics":
		return core.Heuristics, nil
	case "topology":
		return core.TopologyAware, nil
	}
	return 0, errf("unknown strategy %q (want baseline|heuristics|rpca|topology)", s)
}

// wireStrategy is the inverse mapping for response bodies.
func wireStrategy(s core.Strategy) string {
	switch s {
	case core.Baseline:
		return "baseline"
	case core.Heuristics:
		return "heuristics"
	case core.RPCA:
		return "rpca"
	case core.TopologyAware:
		return "topology"
	}
	return "unknown"
}

// encodeJSON returns the response body writeJSON writes for v: its JSON
// encoding with a trailing newline. Marshal fails only on a NaN or ±Inf
// float field, which surfaces as errEncoding.
func encodeJSON(v any) ([]byte, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return nil, errEncoding
	}
	return append(buf, '\n'), nil
}

// writeJSON writes v with a trailing newline; an unencodable v becomes
// the encoding-failure 500.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, status, body)
}

// writeBody writes an already encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeError maps an error to its HTTP status and wire code. The order
// matters only for wrapped chains; each request error matches exactly
// one sentinel.
func writeError(w http.ResponseWriter, err error) {
	if errors.Is(err, errEncoding) {
		http.Error(w, `{"code":"internal","error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	status, code := http.StatusInternalServerError, "internal"
	switch {
	case errors.Is(err, ErrOverloaded):
		status, code = http.StatusTooManyRequests, "overloaded"
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrDraining):
		status, code = http.StatusServiceUnavailable, "draining"
	case errors.Is(err, cancel.ErrCanceled):
		status, code = http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, errQuarantined):
		status, code = http.StatusGone, "quarantined"
	case errors.Is(err, errNotFound):
		status, code = http.StatusNotFound, "not-found"
	case errors.Is(err, errExists):
		status, code = http.StatusConflict, "exists"
	case errors.Is(err, errBadRequest):
		status, code = http.StatusBadRequest, "bad-request"
	case errors.Is(err, core.ErrNotStreaming):
		status, code = http.StatusConflict, "not-streaming"
	}
	writeJSON(w, status, errorBody{Code: code, Error: err.Error()})
}
