package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMain lets the test binary double as expfleet: with the marker env
// var set, the process runs main's run() with its own arguments, so
// tests exercise real process boundaries (signals, exit codes).
func TestMain(m *testing.M) {
	if os.Getenv("EXPFLEET_UNDER_TEST") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

func fleetCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPFLEET_UNDER_TEST=1")
	return cmd
}

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

func writePlan(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                             // -plan missing
		{"-plan", "/nonexistent.json"}, // unreadable plan
	}
	for _, args := range cases {
		err := fleetCmd(args...).Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("args %v: err = %v, want exit code 2", args, err)
		}
	}
}

func TestInvalidPlanIsUsageError(t *testing.T) {
	plan := writePlan(t, `{"name":"x","tasks":[{"name":"a","figures":["fig99"]}]}`)
	var stderr bytes.Buffer
	cmd := fleetCmd("-plan", plan, "-validate")
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("err = %v, want exit code 2", err)
	}
	// The rejection must name the bad figure and the valid alternatives.
	if !strings.Contains(stderr.String(), "fig99") || !strings.Contains(stderr.String(), "fig7") {
		t.Errorf("unhelpful validation error:\n%s", stderr.String())
	}
}

func TestValidatePrintsTaskList(t *testing.T) {
	plan := writePlan(t, `{
		"name": "v",
		"matrix": {"figures": [["fig7"], ["fig8"]], "seeds": [1, 2]}
	}`)
	out, err := fleetCmd("-plan", plan, "-validate").Output()
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !strings.Contains(string(out), "4 tasks") {
		t.Errorf("expected the matrix to expand to 4 tasks:\n%s", out)
	}
}

// TestFleetEndToEnd runs a clean two-task campaign against the real
// expdriver and checks the exit code, both report artifacts, and that
// rerunning in the same directory short-circuits via the journals.
func TestFleetEndToEnd(t *testing.T) {
	driver := realDriver(t)
	dir := filepath.Join(t.TempDir(), "camp")
	plan := writePlan(t, `{
		"name": "e2e",
		"seed": 9,
		"tasks": [
			{"name": "a", "figures": ["fig7"], "workers": 2},
			{"name": "b", "figures": ["fig12", "fig13"]}
		],
		"retry": {"max_attempts": 2, "base_delay_sec": 0.01, "max_delay_sec": 0.02},
		"poll_interval_sec": 0.05
	}`)
	var stdout, stderr bytes.Buffer
	cmd := fleetCmd("-plan", plan, "-dir", dir, "-driver", driver)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("expfleet: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "outcome: 2 ok, 0 quarantined") {
		t.Errorf("summary missing:\n%s", stdout.String())
	}
	full, err := os.ReadFile(filepath.Join(dir, "fleet.json"))
	if err != nil {
		t.Fatalf("fleet.json: %v", err)
	}
	if !bytes.Contains(full, []byte(`"outcome": "ok"`)) {
		t.Errorf("fleet.json has no ok outcomes:\n%s", full)
	}
	results1, err := os.ReadFile(filepath.Join(dir, "fleet-results.json"))
	if err != nil {
		t.Fatalf("fleet-results.json: %v", err)
	}

	// Rerun in the same campaign directory: every task's journal is
	// complete, so the children replay instead of recomputing and the
	// deterministic results do not change by a byte.
	var rerr bytes.Buffer
	rerun := fleetCmd("-plan", plan, "-dir", dir, "-driver", driver)
	rerun.Stderr = &rerr
	if err := rerun.Run(); err != nil {
		t.Fatalf("rerun: %v\n%s", err, rerr.String())
	}
	results2, err := os.ReadFile(filepath.Join(dir, "fleet-results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(results1, results2) {
		t.Errorf("rerun changed fleet-results.json:\n--- first ---\n%s\n--- rerun ---\n%s", results1, results2)
	}
}

// TestFleetContinueOnFailure: a deliberately failing task yields exit 1
// and a partial report that still carries the healthy task's results.
// The doomed task runs fig8's two sweep points on one worker, so each
// attempt journals one point before -failafter 1 exits (see
// TestCampaignContinueOnFailure in internal/plan).
func TestFleetContinueOnFailure(t *testing.T) {
	driver := realDriver(t)
	dir := filepath.Join(t.TempDir(), "camp")
	plan := writePlan(t, `{
		"name": "partial",
		"seed": 3,
		"tasks": [
			{"name": "good", "figures": ["fig7"]},
			{"name": "doomed", "figures": ["fig8"], "workers": 1, "extra": ["-failafter", "1"]}
		],
		"retry": {"max_attempts": 2, "base_delay_sec": 0.01, "max_delay_sec": 0.02},
		"poll_interval_sec": 0.05
	}`)
	var stdout, stderr bytes.Buffer
	cmd := fleetCmd("-plan", plan, "-dir", dir, "-driver", driver)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("err = %v, want exit code 1\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "quarantine:") {
		t.Errorf("summary missing the quarantine diagnosis:\n%s", stdout.String())
	}
	results, err := os.ReadFile(filepath.Join(dir, "fleet-results.json"))
	if err != nil {
		t.Fatalf("partial fleet-results.json missing: %v", err)
	}
	if !bytes.Contains(results, []byte(`{"task":"good","outcome":"ok"}`)) ||
		!bytes.Contains(results, []byte(`{"task":"doomed","outcome":"quarantined"}`)) {
		t.Errorf("partial results rows wrong:\n%s", results)
	}
}

// TestFleetSigintExits130: the first SIGINT drains the campaign — the
// child gets SIGTERM, journals, and expfleet writes a partial report
// before exiting with the conventional 130.
func TestFleetSigintExits130(t *testing.T) {
	driver := realDriver(t)
	dir := filepath.Join(t.TempDir(), "camp")
	// fig10 runs for a few seconds at quick scale, giving the signal a
	// wide window to land mid-sweep.
	plan := writePlan(t, `{
		"name": "drain",
		"seed": 2,
		"tasks": [{"name": "slow", "figures": ["fig10"]}],
		"poll_interval_sec": 0.05
	}`)
	var stderr bytes.Buffer
	cmd := fleetCmd("-plan", plan, "-dir", dir, "-driver", driver)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the child to journal its first point, then interrupt.
	journal := filepath.Join(dir, "tasks", "slow", "ckpt", "journal.nclog")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if fi, err := os.Stat(journal); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("child never journaled; stderr:\n%s", stderr.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 130 {
		t.Fatalf("err = %v, want exit code 130\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "draining") {
		t.Errorf("no drain notice:\n%s", stderr.String())
	}
	full, err := os.ReadFile(filepath.Join(dir, "fleet.json"))
	if err != nil {
		t.Fatalf("partial fleet.json missing after interrupt: %v", err)
	}
	if !bytes.Contains(full, []byte(`"outcome": "interrupted"`)) {
		t.Errorf("fleet.json should mark the task interrupted:\n%s", full)
	}

	// The campaign is resumable: rerunning the same command completes it.
	var rerr bytes.Buffer
	rerun := fleetCmd("-plan", plan, "-dir", dir, "-driver", driver)
	rerun.Stderr = &rerr
	if err := rerun.Run(); err != nil {
		t.Fatalf("resume rerun: %v\n%s", err, rerr.String())
	}
	if !strings.Contains(rerr.String(), "resume") {
		t.Errorf("rerun did not resume the journal:\n%s", rerr.String())
	}
}
