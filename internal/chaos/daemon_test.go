package chaos

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	daemonBuildOnce sync.Once
	builtDaemon     string
	daemonBuildErr  error
)

// realDaemon builds cmd/netconstantd once per test run.
func realDaemon(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping real-binary daemon oracle")
	}
	daemonBuildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "chaos-daemon-bin-*")
		if err != nil {
			daemonBuildErr = err
			return
		}
		builtDaemon = filepath.Join(dir, "netconstantd")
		out, err := exec.Command("go", "build", "-o", builtDaemon, "netconstant/cmd/netconstantd").CombinedOutput()
		if err != nil {
			daemonBuildErr = err
			builtDaemon = string(out)
		}
	})
	if daemonBuildErr != nil {
		t.Fatalf("building netconstantd: %v: %s", daemonBuildErr, builtDaemon)
	}
	return builtDaemon
}

// TestDaemonOracleHolds SIGKILLs a real netconstantd at seeded points
// and requires restart-equivalence plus per-tenant quarantine
// containment — the oracle must report no failures.
func TestDaemonOracleHolds(t *testing.T) {
	opts := Options{Daemon: realDaemon(t)}
	// Two seeds land the SIGKILL at different trace offsets (KillPoint
	// derives from the seed when the plan carries no kill op): after t0's
	// and after t1's calibrate, as TestDaemonKillAfterCalibrate pins.
	for _, p := range daemonGatePlans {
		if fails := oracleDaemon(p, opts); len(fails) > 0 {
			t.Errorf("daemon oracle failures for seed %d:", p.Seed)
			for _, f := range fails {
				t.Errorf("  %s", f)
			}
		}
	}
}

// daemonGatePlans are the crash runs TestDaemonOracleHolds makes.
var daemonGatePlans = []Plan{
	{Seed: 3},
	{Seed: 8, Ops: []Op{{Kind: OpKill, N: 5}}},
}

// TestDaemonKillAfterCalibrate: each gate plan SIGKILLs the daemon right
// after the advise that follows a tenant's calibrate, so the restarted
// daemon replays a calibrate record and then recalibrates live on the
// spike, which keeps calIndex continuity across a crash under test.
func TestDaemonKillAfterCalibrate(t *testing.T) {
	for _, p := range daemonGatePlans {
		trace := daemonTrace(p)
		k := daemonKillPoint(p, trace)
		if k < 2 || k > len(trace) {
			t.Fatalf("seed %d: kill point %d outside the %d-request trace", p.Seed, k, len(trace))
		}
		mut, adv := trace[k-2], trace[k-1]
		if !strings.HasSuffix(mut.path, "/calibrate") || !strings.HasSuffix(adv.path, "/advise") {
			t.Errorf("seed %d: SIGKILL after %s %s then %s %s, want a calibrate then its advise",
				p.Seed, mut.method, mut.path, adv.method, adv.path)
		}
	}
}

// TestRunOraclesWithoutDaemonSkips keeps the zero Options equivalent to
// RunOracles for the daemon oracle too.
func TestRunOraclesWithoutDaemonSkips(t *testing.T) {
	p := Plan{Seed: 9, Ops: []Op{{Kind: OpTruncate, N: 1}}}
	a := RunOracles(p)
	b := RunOraclesWith(p, Options{})
	if len(a) != len(b) {
		t.Fatalf("RunOraclesWith(zero Options) = %v, RunOracles = %v", b, a)
	}
}
