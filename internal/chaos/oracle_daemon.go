package chaos

// The daemon oracle checks netconstantd's restart-equivalence contract
// end to end, against the real binary (Options.Daemon; skipped without
// one):
//
//   - a daemon SIGKILLed after a seeded number of acknowledged
//     mutations and their advises, restarted on the same journal
//     directory, and fed the rest of the trace must answer status and
//     advise probes byte-identically to an uninterrupted twin — the
//     journal is the state, the process is disposable;
//   - a damaged tenant journal must quarantine that tenant alone: the
//     tenant answers with the typed "quarantined" refusal, which names
//     the journal by its file name and not the daemon's directory,
//     /healthz names exactly it, and every neighbor's probes stay
//     byte-identical;
//   - a SIGTERM drain must exit 130 with the journals closed (the
//     repo's two-stage drain contract).
//
// The oracle never reads the clock: startup is synchronized on the
// daemon's "listening on <addr>" stdout line, and every trace request is
// played synchronously, so the SIGKILL always lands between acknowledged
// mutations — the crash window the journal must cover.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
)

// daemonReq is one replayable request of the oracle's trace.
type daemonReq struct {
	method, path, body string
}

// daemonTrace is the seeded workload: three tenants created, calibrated
// and advanced, one quiet observation, one spike that triggers a
// recalibration through the daemon's memoized path. Every mutation is
// followed by the probe's advise request: a daemon that served an advise
// answer memoized before a later mutation would carry it to the final
// probe, where the restarted daemon's freshly planned answer differs.
func daemonTrace(p Plan) []daemonReq {
	tenants := daemonTenants()
	var tr []daemonReq
	mutate := func(method, id, path, body string) {
		tr = append(tr,
			daemonReq{method, "/v1/tenants/" + id + path, body},
			daemonReq{"POST", "/v1/tenants/" + id + "/advise", probeAdvise})
	}
	for i, id := range tenants {
		cfg := fmt.Sprintf(`{"vms":6,"seed":%d,"steps":3,"racks":4,"servers_per_rack":4,"gap":5,"threshold":0.5}`,
			p.Seed+int64(i))
		mutate("PUT", id, "", cfg)
	}
	for _, id := range tenants {
		mutate("POST", id, "/calibrate", "")
	}
	for _, id := range tenants {
		mutate("POST", id, "/advance", `{"dt":30}`)
	}
	mutate("POST", tenants[1], "/observe", `{"expected":1,"actual":1.05}`)
	mutate("POST", tenants[0], "/observe", `{"expected":1,"actual":9}`)
	mutate("POST", tenants[2], "/advance", `{"dt":15}`)
	return tr
}

// daemonKillPoint is how many trace requests the crash run acks before
// its SIGKILL. It counts mutations, each with the advise that follows
// it, so the interleaved advises do not move the kill: a kill op of 4 or
// 5 dies right after t0's or t1's calibrate, and the restarted daemon
// replays calibrate records before it recalibrates live.
func daemonKillPoint(p Plan, trace []daemonReq) int {
	return 2 * p.KillPoint(len(trace)/2-1)
}

// probeAdvise is the RPCA advise request the trace and the probes send.
const probeAdvise = `{"strategy":"rpca","root":0,"msg_bytes":1048576}`

func daemonTenants() []string { return []string{"t0", "t1", "t2"} }

// daemonProc is one live netconstantd child plus the client pinned to
// its (freshly chosen) port.
type daemonProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	stderr *bytes.Buffer
}

// startDaemon launches the binary on a fresh port and blocks until the
// "listening on" line reports the bound address (the socket accepts
// connections from that point on).
func startDaemon(bin, dir string) (*daemonProc, error) {
	cmd := exec.Command(bin, "-dir", dir, "-addr", "127.0.0.1:0")
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
			go io.Copy(io.Discard, stdout) // keep the pipe drained for the daemon's lifetime
			return &daemonProc{
				cmd:    cmd,
				base:   "http://" + strings.TrimSpace(addr),
				client: &http.Client{Transport: &http.Transport{}},
				stderr: &errBuf,
			}, nil
		}
	}
	cmd.Wait()
	return nil, fmt.Errorf("daemon exited before binding: %s", strings.TrimSpace(errBuf.String()))
}

// kill SIGKILLs the daemon — the crash under test.
func (d *daemonProc) kill() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// drain SIGTERMs the daemon and enforces the graceful-drain contract:
// exit code 130 (internal/cli's ExitInterrupted).
func (d *daemonProc) drain() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	err := d.cmd.Wait()
	if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() == 130 {
		return nil
	}
	if err == nil {
		return fmt.Errorf("daemon exited 0 on SIGTERM, want 130")
	}
	return fmt.Errorf("daemon on SIGTERM: %v (stderr: %s)", err, strings.TrimSpace(d.stderr.String()))
}

// do plays one request and returns the status and body.
func (d *daemonProc) do(r daemonReq) (int, string, error) {
	var body io.Reader
	if r.body != "" {
		body = strings.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, d.base+r.path, body)
	if err != nil {
		return 0, "", err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	buf, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(buf), err
}

// play replays trace requests, requiring every one to be acknowledged.
func (d *daemonProc) play(label string, trace []daemonReq) error {
	for i, r := range trace {
		status, body, err := d.do(r)
		if err != nil {
			return fmt.Errorf("%s: request %d (%s %s): %v", label, i, r.method, r.path, err)
		}
		if status >= 300 {
			return fmt.Errorf("%s: request %d (%s %s): status %d: %s", label, i, r.method, r.path, status, strings.TrimSpace(body))
		}
	}
	return nil
}

// probe captures each tenant's externally visible state — the full
// status body plus an RPCA advise response — keyed by tenant, for
// byte-diffing across daemon incarnations.
func (d *daemonProc) probe(tenants []string) (map[string]string, error) {
	out := make(map[string]string, len(tenants))
	for _, id := range tenants {
		st1, status, err := d.do(daemonReq{"GET", "/v1/tenants/" + id, ""})
		if err != nil {
			return nil, fmt.Errorf("probe status %s: %v", id, err)
		}
		st2, advise, err := d.do(daemonReq{"POST", "/v1/tenants/" + id + "/advise", probeAdvise})
		if err != nil {
			return nil, fmt.Errorf("probe advise %s: %v", id, err)
		}
		out[id] = fmt.Sprintf("status %d %sadvise %d %s", st1, status, st2, advise)
	}
	return out, nil
}

// oracleDaemon runs the restart-equivalence and quarantine-containment
// checks described at the top of this file.
func oracleDaemon(p Plan, opts Options) (fails []Failure) {
	const oracle = "daemon"
	guard(oracle, &fails, func() {
		trace := daemonTrace(p)
		tenants := daemonTenants()

		// Reference: the uninterrupted twin.
		refDir, err := os.MkdirTemp("", "chaos-daemon-ref-")
		if err != nil {
			fails = append(fails, failf(oracle, "mkdtemp: %v", err))
			return
		}
		defer os.RemoveAll(refDir)
		ref, err := startDaemon(opts.Daemon, refDir)
		if err != nil {
			fails = append(fails, failf(oracle, "reference start: %v", err))
			return
		}
		if err := ref.play("reference", trace); err != nil {
			ref.kill()
			fails = append(fails, failf(oracle, "%v", err))
			return
		}
		want, err := ref.probe(tenants)
		if err != nil {
			ref.kill()
			fails = append(fails, failf(oracle, "reference %v", err))
			return
		}
		if err := ref.drain(); err != nil {
			fails = append(fails, failf(oracle, "reference drain: %v", err))
			return
		}

		// Crash run: ack the first kill requests, SIGKILL, restart on the
		// same journals, replay the rest.
		kill := daemonKillPoint(p, trace)
		dir, err := os.MkdirTemp("", "chaos-daemon-")
		if err != nil {
			fails = append(fails, failf(oracle, "mkdtemp: %v", err))
			return
		}
		defer os.RemoveAll(dir)
		d1, err := startDaemon(opts.Daemon, dir)
		if err != nil {
			fails = append(fails, failf(oracle, "crash-run start: %v", err))
			return
		}
		if err := d1.play("pre-kill", trace[:kill]); err != nil {
			d1.kill()
			fails = append(fails, failf(oracle, "%v", err))
			return
		}
		d1.kill()
		d2, err := startDaemon(opts.Daemon, dir)
		if err != nil {
			fails = append(fails, failf(oracle, "restart after SIGKILL at %d: %v", kill, err))
			return
		}
		defer d2.kill()
		if err := d2.play("post-restart", trace[kill:]); err != nil {
			fails = append(fails, failf(oracle, "SIGKILL at %d: %v", kill, err))
			return
		}
		got, err := d2.probe(tenants)
		if err != nil {
			fails = append(fails, failf(oracle, "crash-run %v", err))
			return
		}
		for _, id := range tenants {
			if got[id] != want[id] {
				fails = append(fails, failf(oracle,
					"restart-equivalence broken for %s (SIGKILL after %d requests):\n--- uninterrupted ---\n%s\n--- killed+restarted ---\n%s",
					id, kill, want[id], got[id]))
			}
		}
		if err := d2.drain(); err != nil {
			fails = append(fails, failf(oracle, "crash-run drain: %v", err))
			return
		}

		// Quarantine containment: damage t0's journal, restart, and
		// require a typed per-tenant refusal with untouched neighbors. The
		// flipped byte sits halfway into the first frame's payload (past
		// the 8-byte magic and the frame's 8-byte length and checksum), the
		// create record: t0 has journaled mutations after it, so the damage
		// cannot pass as a torn tail, as a flip in a final frame would.
		target := filepath.Join(dir, tenants[0]+".nclog")
		img, err := os.ReadFile(target)
		if err != nil || len(img) < 16 {
			fails = append(fails, failf(oracle, "read %s journal for damage: %d bytes, %v", tenants[0], len(img), err))
			return
		}
		img[16+int(binary.LittleEndian.Uint32(img[8:12]))/2] ^= 0x40
		if err := os.WriteFile(target, img, 0o644); err != nil {
			fails = append(fails, failf(oracle, "write damaged %s: %v", target, err))
			return
		}
		d3, err := startDaemon(opts.Daemon, dir)
		if err != nil {
			fails = append(fails, failf(oracle, "restart on damaged %s must quarantine, not die: %v", tenants[0], err))
			return
		}
		defer d3.kill()
		status, body, err := d3.do(daemonReq{"GET", "/v1/tenants/" + tenants[0], ""})
		if err != nil {
			fails = append(fails, failf(oracle, "damaged-tenant status probe: %v", err))
			return
		}
		if status != http.StatusGone || !strings.Contains(body, `"code":"quarantined"`) {
			fails = append(fails, failf(oracle, "damaged tenant answered %d %s, want a typed 410 quarantined refusal", status, strings.TrimSpace(body)))
		}
		if !strings.Contains(body, " "+tenants[0]+".nclog") || strings.Contains(body, dir) {
			fails = append(fails, failf(oracle, "damaged tenant's 410 must name its journal by file name, not under %s: %s", dir, strings.TrimSpace(body)))
		}
		hstatus, health, err := d3.do(daemonReq{"GET", "/healthz", ""})
		if err != nil || hstatus != http.StatusOK {
			fails = append(fails, failf(oracle, "healthz on damaged dir: status %d, err %v", hstatus, err))
			return
		}
		if wantQ := fmt.Sprintf(`"quarantined":["%s"]`, tenants[0]); !strings.Contains(health, wantQ) {
			fails = append(fails, failf(oracle, "healthz must name exactly the damaged tenant (%s), got %s", wantQ, strings.TrimSpace(health)))
		}
		survivors, err := d3.probe(tenants[1:])
		if err != nil {
			fails = append(fails, failf(oracle, "neighbor %v", err))
			return
		}
		for _, id := range tenants[1:] {
			if survivors[id] != want[id] {
				fails = append(fails, failf(oracle,
					"quarantine of %s disturbed neighbor %s:\n--- before ---\n%s\n--- after ---\n%s",
					tenants[0], id, want[id], survivors[id]))
			}
		}
		if err := d3.drain(); err != nil {
			fails = append(fails, failf(oracle, "damaged-dir drain: %v", err))
		}
	})
	return fails
}
