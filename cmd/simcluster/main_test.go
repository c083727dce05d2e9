package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary double as simcluster: with the marker
// env var set, the process runs main's run() with its own arguments, so
// tests observe real exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("SIMCLUSTER_UNDER_TEST") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

func simclusterCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SIMCLUSTER_UNDER_TEST=1")
	return cmd
}

// exitCode runs the command and returns its exit status and stderr.
func exitCode(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := simclusterCmd(args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stderr.String()
	default:
		t.Fatalf("args %v: %v", args, err)
		return -1, ""
	}
}

// Every out-of-range flag is a usage error (exit 2) reported before the
// cluster is built: a panic trace or a late analysis failure would exit
// with another code.
func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-vms", "0"},
		{"-vms", "1"},
		{"-vms", "2000"}, // more VMs than the 1024 machines
		{"-racks", "0"},
		{"-racks", "-3"},
		{"-servers", "0"},
		{"-racks", "1000000", "-servers", "1000000"},
		{"-steps", "0"},
		{"-runs", "0"},
		{"-bg", "-1"},
		{"-hot", "-1"},
		{"-hot", "33"},
		{"-lambda", "-1"},
		{"-lambda", "NaN"},
		{"-lambda", "+Inf"},
		{"-bgmsg", "0"},
		{"-bgmsg", "-5"},
		{"-bgmsg", "NaN"},
		{"-msg", "0"},
		{"-msg", "NaN"},
		{"-msg", "+Inf"},
		{"-nosuchflag"},
	}
	for _, args := range cases {
		code, stderr := exitCode(t, args...)
		if code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr %q)", args, code, stderr)
		}
		if strings.Contains(stderr, "panic:") || strings.Contains(stderr, "goroutine 1 [") {
			t.Errorf("args %v: stderr carries a panic trace: %q", args, stderr)
		}
	}
}

// A small valid run completes and prints the normalized comparison.
func TestSmallRunSucceeds(t *testing.T) {
	cmd := simclusterCmd("-racks", "4", "-servers", "4", "-vms", "4", "-bg", "4", "-hot", "2", "-steps", "3", "-runs", "1", "-bgmsg", "1048576", "-msg", "65536")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("small run: %v\n%s", err, out)
	}
	for _, want := range []string{"Norm(N_E) =", "normalized to Baseline", "RPCA"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
