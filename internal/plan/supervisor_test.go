package plan

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// writeScript installs an executable shell script to act as a fake
// driver. Scripts receive the real expdriver command line; $RESULTS is
// pre-resolved to the task's -json path for convenience.
func writeScript(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fakedriver.sh")
	script := `#!/bin/sh
RESULTS=""
prev=""
for a in "$@"; do
	if [ "$prev" = "-json" ]; then RESULTS="$a"; fi
	prev="$a"
done
` + body + "\n"
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

// fastPlan builds a validated single-task plan with test-speed retry
// and healthcheck settings.
func fastPlan(t *testing.T, tasks ...Task) *Plan {
	t.Helper()
	p := &Plan{
		Name:            "t",
		Seed:            1,
		Tasks:           tasks,
		MaxProcs:        2,
		Retry:           Retry{MaxAttempts: 2, BaseDelaySec: 0.01, MaxDelaySec: 0.02, JitterFrac: 0.1},
		StallTimeoutSec: 5,
		PollIntervalSec: 0.02,
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return p
}

func newSupervisor(t *testing.T, p *Plan, driver string) *Supervisor {
	t.Helper()
	return &Supervisor{Plan: p, Driver: driver, Dir: t.TempDir(), Now: time.Now}
}

func TestSupervisorRequiresClock(t *testing.T) {
	s := &Supervisor{Plan: fastPlan(t, Task{Name: "a", Figures: []string{"fig7"}}), Driver: "/bin/true", Dir: t.TempDir()}
	if _, err := s.Run(context.Background()); err == nil {
		t.Fatal("Run accepted a nil Now")
	}
}

func TestSupervisorSuccess(t *testing.T) {
	driver := writeScript(t, `echo '{"figure":"fig7"}' > "$RESULTS"; exit 0`)
	p := fastPlan(t,
		Task{Name: "a", Figures: []string{"fig7"}},
		Task{Name: "b", Figures: []string{"fig8"}})
	s := newSupervisor(t, p, driver)
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, tr := range rep.Tasks {
		if tr.Outcome != OutcomeOK || tr.Attempts != 1 {
			t.Errorf("task[%d] = %+v, want ok on first attempt", i, tr)
		}
	}
	if rep.Tasks[0].Name != "a" || rep.Tasks[1].Name != "b" {
		t.Error("report rows are not in plan order")
	}
	res, err := rep.DeterministicResults(s)
	if err != nil {
		t.Fatalf("DeterministicResults: %v", err)
	}
	want := "{\"campaign\":\"t\",\"seed\":1}\n" +
		"{\"task\":\"a\",\"outcome\":\"ok\"}\n{\"figure\":\"fig7\"}\n" +
		"{\"task\":\"b\",\"outcome\":\"ok\"}\n{\"figure\":\"fig7\"}\n"
	if string(res) != want {
		t.Errorf("results = %q, want %q", res, want)
	}
	if !strings.Contains(rep.Render(), "outcome: 2 ok, 0 quarantined") {
		t.Errorf("Render tally wrong:\n%s", rep.Render())
	}
}

func TestSupervisorQuarantinesAfterRetries(t *testing.T) {
	driver := writeScript(t, `echo "synthetic failure" >&2; exit 1`)
	p := fastPlan(t, Task{Name: "a", Figures: []string{"fig7"}})
	s := newSupervisor(t, p, driver)
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr := rep.Tasks[0]
	if tr.Outcome != OutcomeQuarantined {
		t.Fatalf("outcome = %s, want quarantined", tr.Outcome)
	}
	if tr.Attempts != p.Retry.MaxAttempts {
		t.Errorf("Attempts = %d, want %d (every attempt should be retried)", tr.Attempts, p.Retry.MaxAttempts)
	}
	if tr.Diagnosis == nil {
		t.Fatal("quarantined task has no diagnosis")
	}
	if tr.Diagnosis.ExitStatus != "exit status 1" {
		t.Errorf("ExitStatus = %q", tr.Diagnosis.ExitStatus)
	}
	if !strings.Contains(tr.Diagnosis.StderrTail, "synthetic failure") {
		t.Errorf("StderrTail = %q, want the child's stderr", tr.Diagnosis.StderrTail)
	}
}

func TestSupervisorUsageErrorSkipsRetry(t *testing.T) {
	driver := writeScript(t, `echo "flag provided but not defined" >&2; exit 2`)
	p := fastPlan(t, Task{Name: "a", Figures: []string{"fig7"}})
	s := newSupervisor(t, p, driver)
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr := rep.Tasks[0]
	if tr.Outcome != OutcomeQuarantined || tr.Attempts != 1 {
		t.Errorf("usage error should quarantine on attempt 1, got %+v", tr)
	}
	if tr.ExitCode != 2 {
		t.Errorf("ExitCode = %d, want 2", tr.ExitCode)
	}
}

func TestSupervisorKillsStalledChild(t *testing.T) {
	// The fake driver journals nothing and never exits: the journal-
	// progress healthcheck must declare it stalled and kill it.
	driver := writeScript(t, `exec sleep 60`)
	p := fastPlan(t, Task{Name: "a", Figures: []string{"fig7"}})
	p.StallTimeoutSec = 0.2
	s := newSupervisor(t, p, driver)
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr := rep.Tasks[0]
	if tr.Outcome != OutcomeQuarantined {
		t.Fatalf("outcome = %s, want quarantined", tr.Outcome)
	}
	if tr.Stalls != p.Retry.MaxAttempts {
		t.Errorf("Stalls = %d, want %d (every attempt stalled)", tr.Stalls, p.Retry.MaxAttempts)
	}
	if tr.Diagnosis == nil || !strings.Contains(tr.Diagnosis.ExitStatus, "stalled") {
		t.Errorf("diagnosis should report the stall, got %+v", tr.Diagnosis)
	}
}

func TestSupervisorDrainSkipsQueuedTasks(t *testing.T) {
	// Task a ignores nothing: on SIGTERM it writes results and exits
	// 130 like a draining expdriver. Task b never gets a slot.
	driver := writeScript(t, `trap 'exit 130' TERM
for i in $(seq 1 600); do sleep 0.1; done`)
	p := fastPlan(t,
		Task{Name: "a", Figures: []string{"fig7"}},
		Task{Name: "b", Figures: []string{"fig8"}})
	p.MaxProcs = 1
	s := newSupervisor(t, p, driver)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	rep, err := s.Run(ctx)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Tasks[0].Outcome != OutcomeInterrupted {
		t.Errorf("task a outcome = %s, want interrupted", rep.Tasks[0].Outcome)
	}
	if rep.Tasks[1].Outcome != OutcomeSkipped {
		t.Errorf("task b outcome = %s, want skipped", rep.Tasks[1].Outcome)
	}
}

func TestSupervisorForceKillsStubborn(t *testing.T) {
	// The child ignores SIGTERM; only Force (SIGKILL) ends it.
	driver := writeScript(t, `trap '' TERM
for i in $(seq 1 600); do sleep 0.1; done`)
	p := fastPlan(t, Task{Name: "a", Figures: []string{"fig7"}})
	s := newSupervisor(t, p, driver)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Millisecond)
		cancel()
		time.Sleep(200 * time.Millisecond)
		s.Force()
	}()
	done := make(chan *Report, 1)
	go func() {
		rep, _ := s.Run(ctx)
		done <- rep
	}()
	select {
	case rep := <-done:
		if rep.Tasks[0].Outcome != OutcomeInterrupted {
			t.Errorf("outcome = %s, want interrupted", rep.Tasks[0].Outcome)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Force did not terminate a SIGTERM-ignoring child")
	}
}

// --- integration with the real expdriver -----------------------------

var (
	buildOnce   sync.Once
	builtDriver string
	buildErr    error
)

// realDriver builds cmd/expdriver once per test run.
func realDriver(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping real-driver integration")
	}
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "expfleet-driver-*")
		if err != nil {
			buildErr = err
			return
		}
		builtDriver = filepath.Join(dir, "expdriver")
		out, err := exec.Command("go", "build", "-o", builtDriver, "netconstant/cmd/expdriver").CombinedOutput()
		if err != nil {
			buildErr = err
			builtDriver = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building expdriver: %v: %s", buildErr, builtDriver)
	}
	return builtDriver
}

// TestCampaignSabotageByteIdentical is the supervision contract end to
// end: a campaign whose children are killed after one journaled point,
// wedged with SIGSTOP, and handed a corrupted manifest must still
// produce a deterministic results file byte-identical to its
// undisturbed twin.
func TestCampaignSabotageByteIdentical(t *testing.T) {
	driver := realDriver(t)
	sabotaged := &Plan{
		Name: "chaos",
		Seed: 11,
		Tasks: []Task{
			{Name: "a", Figures: []string{"fig7"}},
			{Name: "b", Figures: []string{"fig8"}},
		},
		MaxProcs:        2,
		Retry:           Retry{MaxAttempts: 4, BaseDelaySec: 0.01, MaxDelaySec: 0.05, JitterFrac: 0.1},
		StallTimeoutSec: 1.0,
		PollIntervalSec: 0.05,
		// Task a: killed on attempt 1, resumes on attempt 2 and is killed
		// again, then finds its manifest corrupted before attempt 3 —
		// which wipes the checkpoint and restarts fresh. Task b wedges
		// (SIGSTOP) on attempt 1 and must be caught by the journal-
		// progress healthcheck.
		Sabotage: []Sabotage{
			{Kind: SabotageKill, Task: "a", Attempt: 1, AfterPoints: 1},
			{Kind: SabotageKill, Task: "a", Attempt: 2, AfterPoints: 1},
			{Kind: SabotageCorruptManifest, Task: "a", Attempt: 3},
			{Kind: SabotageStall, Task: "b", Attempt: 1, AfterPoints: 1},
		},
	}
	if err := sabotaged.Validate(); err != nil {
		t.Fatal(err)
	}

	run := func(p *Plan) (*Supervisor, *Report, []byte) {
		s := &Supervisor{Plan: p, Driver: driver, Dir: t.TempDir(), Now: time.Now}
		rep, err := s.Run(context.Background())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		res, err := rep.DeterministicResults(s)
		if err != nil {
			t.Fatalf("DeterministicResults: %v\nreport:\n%s", err, rep.Render())
		}
		return s, rep, res
	}

	_, sabRep, sabRes := run(sabotaged)
	_, cleanRep, cleanRes := run(sabotaged.Clean())

	for i, tr := range sabRep.Tasks {
		if tr.Outcome != OutcomeOK {
			t.Fatalf("sabotaged task %s: outcome %s (%+v)\n%s", tr.Name, tr.Outcome, tr.Diagnosis, sabRep.Render())
		}
		if tr.Attempts < 2 {
			t.Errorf("sabotaged task[%d] recovered without a relaunch (attempts=%d)", i, tr.Attempts)
		}
	}
	// The killed child resumed its journal at least once (attempt 2);
	// the wedged child was detected via journal stagnation.
	if sabRep.Tasks[0].Resumes < 1 {
		t.Errorf("task a: Resumes = %d, want ≥ 1", sabRep.Tasks[0].Resumes)
	}
	if sabRep.Tasks[1].Stalls < 1 {
		t.Errorf("task b: Stalls = %d, want ≥ 1", sabRep.Tasks[1].Stalls)
	}
	for _, tr := range cleanRep.Tasks {
		if tr.Outcome != OutcomeOK || tr.Attempts != 1 {
			t.Fatalf("clean task %s: %+v\n%s", tr.Name, tr, cleanRep.Render())
		}
	}
	if !bytes.Equal(sabRes, cleanRes) {
		t.Errorf("sabotaged and clean campaigns diverge:\n--- sabotaged ---\n%s\n--- clean ---\n%s", sabRes, cleanRes)
	}
}

// TestCampaignContinueOnFailure: a task that fails persistently is
// quarantined while its peers complete, and the deterministic results
// still carry the healthy tasks' outputs.
//
// fig8 has two sweep points. The doomed task runs them on one worker, so
// each attempt journals exactly one point before -failafter 1 exits and
// both attempts fail. With more workers both points could reach the
// journal before the first exit, leaving the retry nothing to run: it
// would exit 0 and the task would read ok.
func TestCampaignContinueOnFailure(t *testing.T) {
	driver := realDriver(t)
	p := &Plan{
		Name: "partial",
		Seed: 5,
		Tasks: []Task{
			{Name: "good", Figures: []string{"fig7"}},
			{Name: "doomed", Figures: []string{"fig8"}, Workers: 1, Extra: []string{"-failafter", "1"}},
		},
		MaxProcs:        2,
		Retry:           Retry{MaxAttempts: 2, BaseDelaySec: 0.01, MaxDelaySec: 0.02, JitterFrac: 0.1},
		StallTimeoutSec: 5,
		PollIntervalSec: 0.05,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	s := &Supervisor{Plan: p, Driver: driver, Dir: t.TempDir(), Now: time.Now}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Tasks[0].Outcome != OutcomeOK {
		t.Errorf("good task: %+v", rep.Tasks[0])
	}
	doomed := rep.Tasks[1]
	if doomed.Outcome != OutcomeQuarantined {
		t.Fatalf("doomed task outcome = %s, want quarantined\n%s", doomed.Outcome, rep.Render())
	}
	if doomed.Diagnosis == nil {
		t.Fatal("doomed task has no diagnosis")
	}
	if doomed.Diagnosis.JournaledPoints == 0 || doomed.Diagnosis.LastFigure == "" {
		t.Errorf("diagnosis should locate the last journaled point, got %+v", doomed.Diagnosis)
	}
	res, err := rep.DeterministicResults(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(res, []byte(`{"task":"doomed","outcome":"quarantined"}`)) {
		t.Errorf("results missing the quarantine row:\n%s", res)
	}
	if !bytes.Contains(res, []byte(`{"task":"good","outcome":"ok"}`)) {
		t.Errorf("results missing the healthy row:\n%s", res)
	}
}
