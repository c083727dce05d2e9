package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary double as netconstant: with the marker
// env var set, the process runs main's run() with its own arguments, so
// tests observe real exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("NETCONSTANT_UNDER_TEST") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// netconstant runs the command and returns its exit status, stdout and
// stderr.
func netconstant(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NETCONSTANT_UNDER_TEST=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stdout.String(), stderr.String()
	default:
		t.Fatalf("args %v: %v", args, err)
		return -1, "", ""
	}
}

// Every out-of-range flag is a usage error (exit 2) reported before any
// cluster is provisioned: a panic trace, or a run on a nonsense input,
// would exit with another code.
func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"advise", "-vms", "4", "-root", "9"},
		{"advise", "-root", "-1"},
		{"advise", "-vms", "0"},
		{"advise", "-vms", "1"},
		{"advise", "-vms", "257"},
		{"advise", "-steps", "0"},
		{"advise", "-msg", "-1"},
		{"advise", "-msg", "NaN"},
		{"advise", "-msg", "+Inf"},
		{"advise", "-probe-loss", "1.5"},
		{"advise", "-heavy-tail", "NaN"},
		{"advise", "-stragglers", "17"},
		{"advise", "-churn", "-1"},
		{"advise", "-blackout-dur", "0"},
		{"-vms", "1"}, // advise is the default subcommand
		{"advise", "extra"},
		{"advise", "-nosuchflag"},
		{"record", "-hours", "1", "-interval", "0"},
		{"record", "-hours", "+Inf"},
		{"record", "-interval", "1e-9"},
		{"record", "-vms", "1"},
		{"replay", "-steps", "0"},
		{"replay", "-root", "-1"},
		{"schedule", "-n", "0"},
		{"schedule", "-n", "1000000"},
		{"triangles", "-vms", "2"},
		{"triangles", "-msg", "0"},
		{"nosuchcommand"},
		{""},
	}
	for _, args := range cases {
		code, _, stderr := netconstant(t, args...)
		if code != 2 {
			t.Errorf("args %q: exit %d, want 2 (stderr %q)", args, code, stderr)
		}
		if strings.Contains(stderr, "goroutine") || strings.Contains(stderr, "panic:") {
			t.Errorf("args %q: stderr carries a panic trace: %q", args, stderr)
		}
	}
}

// A recorded trace replays; flags that do not fit the trace are usage
// errors too.
func TestRecordReplay(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.gob")
	if code, out, stderr := netconstant(t, "record", "-vms", "6", "-hours", "6", "-o", trace); code != 0 {
		t.Fatalf("record: exit %d\n%s%s", code, out, stderr)
	}
	code, out, stderr := netconstant(t, "replay", "-i", trace, "-root", "5")
	if code != 0 {
		t.Fatalf("replay: exit %d\n%s%s", code, out, stderr)
	}
	for _, want := range []string{"replaying", "Norm(N_E) =", "RPCA broadcast tree (root 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output lacks %q:\n%s", want, out)
		}
	}
	for _, args := range [][]string{
		{"replay", "-i", trace, "-root", "6"},   // the trace has 6 VMs
		{"replay", "-i", trace, "-steps", "14"}, // and 13 snapshots
	} {
		if code, _, stderr := netconstant(t, args...); code != 2 {
			t.Errorf("args %q: exit %d, want 2 (stderr %q)", args, code, stderr)
		}
	}
	if code, _, _ := netconstant(t, "replay", "-i", filepath.Join(t.TempDir(), "missing.gob")); code != 1 {
		t.Errorf("replay of a missing file: exit %d, want 1", code)
	}
}
