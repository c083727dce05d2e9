// Package plan implements Testground-style experiment compositions: a
// declarative, serializable campaign plan (figure set × scale × seed ×
// workers, expanded into tasks) with strict upfront validation, and a
// supervisor that executes each task as a child expdriver process with
// its own checkpoint journal — healthchecked by journal progress,
// relaunched with -resume under capped exponential backoff after a
// crash, and quarantined with a minimal diagnosis when it fails
// permanently, while the rest of the campaign completes.
//
// A plan validates entirely before anything runs: unknown figures,
// invalid scales, duplicate task names, unsafe extra flags and
// malformed sabotage ops are all typed *ValidationError rejections, so
// a long campaign can never die hours in on a misspelling the parser
// could have caught.
package plan

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"netconstant/internal/exp"
)

// Scales a task may run at, mapping to expdriver's quick/full profiles.
const (
	ScaleQuick = "quick"
	ScaleFull  = "full"
)

// Sabotage kinds the supervisor can inject into a campaign (the chaos
// harness's supervisor-level ops). Kill and stall ride the driver's own
// deterministic testing aids (-crashafter / -stallafter), so they fire
// after an exact number of journaled points; corrupt-manifest damages
// the task's checkpoint manifest on disk before an attempt launches.
const (
	SabotageKill            = "kill-child"
	SabotageStall           = "stall-child"
	SabotageCorruptManifest = "corrupt-manifest"
)

// sabotageKinds is the validation allowlist.
var sabotageKinds = map[string]bool{
	SabotageKill:            true,
	SabotageStall:           true,
	SabotageCorruptManifest: true,
}

// ErrInvalidPlan is the sentinel matched by every *ValidationError.
var ErrInvalidPlan = errors.New("plan: invalid")

// ValidationError reports one reason a plan cannot run. It wraps
// ErrInvalidPlan.
type ValidationError struct {
	Field string // the offending field, e.g. "tasks[2].figures"
	Msg   string // what is wrong, with the valid alternatives when enumerable
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("plan: invalid %s: %s", e.Field, e.Msg)
}

// Unwrap makes errors.Is(err, ErrInvalidPlan) true.
func (e *ValidationError) Unwrap() error { return ErrInvalidPlan }

func invalidf(field, format string, args ...any) *ValidationError {
	return &ValidationError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Task is one campaign unit: a set of figures run by one expdriver
// child at one scale, seed and worker count, journaling into its own
// per-task checkpoint directory.
type Task struct {
	// Name keys the task's directory and report rows. Must be unique in
	// the plan and filename-safe.
	Name string `json:"name"`
	// Figures is the -only set handed to the child. Every entry must be
	// a registered experiment figure.
	Figures []string `json:"figures"`
	// Scale is "quick" (default) or "full".
	Scale string `json:"scale,omitempty"`
	// Seed is the experiment seed; 0 inherits the plan seed.
	Seed int64 `json:"seed,omitempty"`
	// Workers is the child's sweep-point fan-out; 0 lets the child
	// default to GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// Extra holds additional expdriver flags (e.g. -cpuprofile or the
	// -failafter testing aid). Flags the supervisor
	// owns (-only, -seed, -ckpt, -resume, -json, -md, -full) are
	// rejected at validation.
	Extra []string `json:"extra,omitempty"`
}

// seed resolves the task's effective experiment seed.
func (t Task) seed(planSeed int64) int64 {
	if t.Seed != 0 {
		return t.Seed
	}
	return planSeed
}

// Retry is the supervisor's relaunch policy for a crashed task.
// Backoff is capped exponential with seeded deterministic jitter: the
// delay before attempt k (k ≥ 2) is
//
//	min(MaxDelay, BaseDelay·2^(k-2)) · (1 + JitterFrac·(u−0.5))
//
// where u ∈ [0,1) is drawn from a generator seeded purely by (plan
// seed, task name, k) — identical campaigns back off identically.
type Retry struct {
	// MaxAttempts bounds launches per task (first run included).
	// Default 3.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// BaseDelaySec is the pre-jitter delay before the first retry.
	// Default 0.5.
	BaseDelaySec float64 `json:"base_delay_sec,omitempty"`
	// MaxDelaySec caps the exponential growth. Default 15.
	MaxDelaySec float64 `json:"max_delay_sec,omitempty"`
	// JitterFrac spreads the delay by ±JitterFrac/2. Default 0.2.
	JitterFrac float64 `json:"jitter_frac,omitempty"`
}

// Sabotage is one supervisor-level chaos op, declared in the plan so a
// disturbed campaign is as replayable as a clean one. Each op fires at
// most once, against one (task, attempt) pair.
type Sabotage struct {
	Kind string `json:"kind"` // kill-child | stall-child | corrupt-manifest
	Task string `json:"task"` // name of the task to sabotage
	// Attempt is which launch to hit (1 = the first). Default 1.
	Attempt int `json:"attempt,omitempty"`
	// AfterPoints parameterizes kill-child/stall-child: the child dies
	// (or stalls) right after this many sweep points have journaled in
	// that attempt. Default 1.
	AfterPoints int `json:"after_points,omitempty"`
}

// Matrix generates tasks as a cross product of axes, in deterministic
// axis-major order. Generated task names are
// "m<index>-<figures joined by .>-<scale>-s<seed>-w<workers>".
type Matrix struct {
	// Figures is a list of figure sets; each set becomes one axis value
	// (one child runs the whole set).
	Figures [][]string `json:"figures"`
	// Scales defaults to ["quick"].
	Scales []string `json:"scales,omitempty"`
	// Seeds defaults to [plan seed].
	Seeds []int64 `json:"seeds,omitempty"`
	// Workers defaults to [0].
	Workers []int `json:"workers,omitempty"`
}

// Plan is a full declarative campaign.
type Plan struct {
	// Name labels the campaign in reports. Filename-safe.
	Name string `json:"name"`
	// Seed drives every derived stream: task seeds left at 0, backoff
	// jitter, and sabotage scheduling.
	Seed int64 `json:"seed"`
	// Tasks lists explicit tasks; Matrix, when present, appends its
	// expansion. At least one task must result.
	Tasks  []Task  `json:"tasks,omitempty"`
	Matrix *Matrix `json:"matrix,omitempty"`
	// MaxProcs bounds concurrently running children. Default 2.
	MaxProcs int `json:"max_procs,omitempty"`
	// Retry is the relaunch policy (defaults documented on Retry).
	Retry Retry `json:"retry,omitempty"`
	// StallTimeoutSec declares a running child stalled when its journal
	// has not grown for this long; the supervisor kills and relaunches
	// it. Default 120.
	StallTimeoutSec float64 `json:"stall_timeout_sec,omitempty"`
	// PollIntervalSec is the healthcheck cadence. Default 0.25.
	PollIntervalSec float64 `json:"poll_interval_sec,omitempty"`
	// Sabotage lists supervisor-level chaos ops to inject (empty for a
	// clean campaign).
	Sabotage []Sabotage `json:"sabotage,omitempty"`
}

// Parse decodes a plan from JSON, rejecting unknown fields — a typo'd
// key is a validation error, not a silently ignored knob — and then
// validates it. The returned plan has Matrix expanded into Tasks and
// defaults resolved.
func Parse(data []byte) (*Plan, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, invalidf("json", "%v", err)
	}
	if dec.More() {
		return nil, invalidf("json", "trailing data after the plan object")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// filenameSafe reports whether s can name a directory entry on any
// filesystem we care about.
func filenameSafe(s string) bool {
	if s == "" || len(s) > 128 || s == "." || s == ".." {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
		default:
			return false
		}
	}
	return true
}

// reservedFlags are expdriver flags the supervisor owns; a task's Extra
// list may not re-set them.
var reservedFlags = map[string]bool{
	"-only": true, "-seed": true, "-workers": true, "-full": true,
	"-ckpt": true, "-resume": true, "-json": true, "-md": true,
}

// validFigures returns the registered figure names, sorted.
func validFigures() (map[string]bool, []string) {
	figs := exp.Figures()
	set := make(map[string]bool, len(figs))
	names := make([]string, 0, len(figs))
	for _, f := range figs {
		set[f.Name] = true
		names = append(names, f.Name)
	}
	sort.Strings(names)
	return set, names
}

// Validate checks the whole plan up front, expands Matrix into Tasks,
// and resolves defaults in place. It returns the first violation as a
// typed *ValidationError; a valid plan returns nil and is ready for a
// Supervisor.
func (p *Plan) Validate() error {
	if !filenameSafe(p.Name) {
		return invalidf("name", "%q is not a safe campaign name (letters, digits, - _ . only)", p.Name)
	}
	if p.Seed < 0 {
		return invalidf("seed", "must be ≥ 0, got %d", p.Seed)
	}
	if p.Matrix != nil {
		expanded, err := p.Matrix.expand(p.Seed)
		if err != nil {
			return err
		}
		p.Tasks = append(p.Tasks, expanded...)
		p.Matrix = nil
	}
	if len(p.Tasks) == 0 {
		return invalidf("tasks", "a plan needs at least one task")
	}
	figSet, figNames := validFigures()
	seen := make(map[string]bool, len(p.Tasks))
	for i := range p.Tasks {
		t := &p.Tasks[i]
		field := fmt.Sprintf("tasks[%d]", i)
		if !filenameSafe(t.Name) {
			return invalidf(field+".name", "%q is not a safe task name (letters, digits, - _ . only)", t.Name)
		}
		if seen[t.Name] {
			return invalidf(field+".name", "duplicate task name %q", t.Name)
		}
		seen[t.Name] = true
		if len(t.Figures) == 0 {
			return invalidf(field+".figures", "a task needs at least one figure")
		}
		for _, f := range t.Figures {
			if !figSet[f] {
				return invalidf(field+".figures", "unknown figure %q; valid figures: %s", f, strings.Join(figNames, ", "))
			}
		}
		switch t.Scale {
		case "":
			t.Scale = ScaleQuick
		case ScaleQuick, ScaleFull:
		default:
			return invalidf(field+".scale", "unknown scale %q (want %q or %q)", t.Scale, ScaleQuick, ScaleFull)
		}
		if t.Seed < 0 {
			return invalidf(field+".seed", "must be ≥ 0, got %d", t.Seed)
		}
		if t.Workers < 0 {
			return invalidf(field+".workers", "must be ≥ 0, got %d", t.Workers)
		}
		for _, e := range t.Extra {
			flagName := e
			if k := strings.IndexByte(flagName, '='); k >= 0 {
				flagName = flagName[:k]
			}
			if reservedFlags[flagName] {
				return invalidf(field+".extra", "flag %s is owned by the supervisor", flagName)
			}
		}
	}
	if p.MaxProcs == 0 {
		p.MaxProcs = 2
	}
	if p.MaxProcs < 1 {
		return invalidf("max_procs", "must be ≥ 1, got %d", p.MaxProcs)
	}
	if err := p.Retry.validate(); err != nil {
		return err
	}
	if p.StallTimeoutSec == 0 {
		p.StallTimeoutSec = 120
	}
	if p.StallTimeoutSec < 0 {
		return invalidf("stall_timeout_sec", "must be > 0, got %v", p.StallTimeoutSec)
	}
	if p.PollIntervalSec == 0 {
		p.PollIntervalSec = 0.25
	}
	if p.PollIntervalSec < 0 {
		return invalidf("poll_interval_sec", "must be > 0, got %v", p.PollIntervalSec)
	}
	for i := range p.Sabotage {
		s := &p.Sabotage[i]
		field := fmt.Sprintf("sabotage[%d]", i)
		if !sabotageKinds[s.Kind] {
			return invalidf(field+".kind", "unknown sabotage kind %q (want %s, %s or %s)",
				s.Kind, SabotageKill, SabotageStall, SabotageCorruptManifest)
		}
		if !seen[s.Task] {
			return invalidf(field+".task", "sabotage targets unknown task %q", s.Task)
		}
		if s.Attempt == 0 {
			s.Attempt = 1
		}
		if s.Attempt < 1 {
			return invalidf(field+".attempt", "must be ≥ 1, got %d", s.Attempt)
		}
		if s.AfterPoints == 0 {
			s.AfterPoints = 1
		}
		if s.AfterPoints < 1 {
			return invalidf(field+".after_points", "must be ≥ 1, got %d", s.AfterPoints)
		}
	}
	return nil
}

// validate checks and defaults the retry policy.
func (r *Retry) validate() error {
	if r.MaxAttempts == 0 {
		r.MaxAttempts = 3
	}
	if r.MaxAttempts < 1 {
		return invalidf("retry.max_attempts", "must be ≥ 1, got %d", r.MaxAttempts)
	}
	if r.BaseDelaySec == 0 {
		r.BaseDelaySec = 0.5
	}
	if r.BaseDelaySec < 0 {
		return invalidf("retry.base_delay_sec", "must be ≥ 0, got %v", r.BaseDelaySec)
	}
	if r.MaxDelaySec == 0 {
		r.MaxDelaySec = 15
	}
	if r.MaxDelaySec < r.BaseDelaySec {
		return invalidf("retry.max_delay_sec", "must be ≥ base_delay_sec (%v), got %v", r.BaseDelaySec, r.MaxDelaySec)
	}
	if r.JitterFrac == 0 {
		r.JitterFrac = 0.2
	}
	if r.JitterFrac < 0 || r.JitterFrac > 1 {
		return invalidf("retry.jitter_frac", "must be in [0, 1], got %v", r.JitterFrac)
	}
	return nil
}

// expand generates the matrix's cross product in deterministic
// axis-major order (figures outermost, workers innermost).
func (m *Matrix) expand(planSeed int64) ([]Task, error) {
	if len(m.Figures) == 0 {
		return nil, invalidf("matrix.figures", "a matrix needs at least one figure set")
	}
	scales := m.Scales
	if len(scales) == 0 {
		scales = []string{ScaleQuick}
	}
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []int64{planSeed}
	}
	workers := m.Workers
	if len(workers) == 0 {
		workers = []int{0}
	}
	var out []Task
	for _, figs := range m.Figures {
		for _, sc := range scales {
			for _, sd := range seeds {
				for _, w := range workers {
					name := fmt.Sprintf("m%d-%s-%s-s%d-w%d",
						len(out), strings.Join(figs, "."), sc, sd, w)
					out = append(out, Task{
						Name:    name,
						Figures: append([]string(nil), figs...),
						Scale:   sc,
						Seed:    sd,
						Workers: w,
					})
				}
			}
		}
	}
	return out, nil
}

// Clean returns a copy of the plan with every sabotage op stripped —
// the "undisturbed twin" a chaos oracle compares a sabotaged campaign
// against.
func (p *Plan) Clean() *Plan {
	cp := *p
	cp.Sabotage = nil
	cp.Tasks = append([]Task(nil), p.Tasks...)
	return &cp
}

// backoff returns the deterministic post-jitter delay to wait before
// launching the given attempt (attempt ≥ 2) of the named task.
func (p *Plan) backoff(task string, attempt int) time.Duration {
	d := p.Retry.BaseDelaySec
	for k := 2; k < attempt; k++ {
		d *= 2
		if d >= p.Retry.MaxDelaySec {
			break
		}
	}
	if d > p.Retry.MaxDelaySec {
		d = p.Retry.MaxDelaySec
	}
	u := jitterU(p.Seed, task, attempt)
	d *= 1 + p.Retry.JitterFrac*(u-0.5)
	return time.Duration(d * float64(time.Second))
}

// jitterU derives a uniform [0,1) draw purely from (seed, task,
// attempt) — splitmix64 over an FNV-1a hash, the same construction as
// exp.PointSeed — so backoff schedules replay identically.
func jitterU(seed int64, task string, attempt int) float64 {
	x := uint64(14695981039346656037)
	for i := 0; i < len(task); i++ {
		x ^= uint64(task[i])
		x *= 1099511628211
	}
	x ^= uint64(seed) * 0x9e3779b97f4a7c15
	x ^= uint64(attempt) * 0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
