// Command netconstantd is the long-running advisor daemon: it owns many
// tenants' calibration state behind the HTTP/JSON surface of
// internal/serve, journals every accepted mutation to -dir so a crashed
// process restarts byte-identically, and sheds load with typed refusals
// instead of queueing unboundedly.
//
// Usage:
//
//	netconstantd -dir STATE [-addr 127.0.0.1:8321] [-shards N]
//	             [-queue N] [-memo N] [-timeout D]
//
// The daemon prints "netconstantd: listening on <addr>" once the socket
// is bound — with -addr 127.0.0.1:0 that line is how a supervisor (or
// the chaos oracle) discovers the chosen port. First SIGINT/SIGTERM
// starts the two-stage drain: new requests are refused with a typed 503,
// in-flight requests finish, every tenant's journal is closed, and the
// process exits 130. A second signal force-quits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"netconstant/internal/cli"
	"netconstant/internal/serve"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "127.0.0.1:8321", "listen address (port 0 picks a free port, reported on stdout)")
	dir := flag.String("dir", "", "journal directory, one <tenant>.nclog per tenant (required)")
	shards := flag.Int("shards", 4, "single-writer shard goroutines")
	queue := flag.Int("queue", 64, "admission-queue depth per shard (full queue sheds with 429)")
	memoCap := flag.Int("memo", 64, "cross-tenant calibration-memo capacity (entries)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline (0 = none; ?timeout_ms= overrides)")
	flag.Parse()
	if flag.NArg() != 0 {
		return cli.Usagef("netconstantd", "unexpected arguments %v", flag.Args())
	}
	if *dir == "" {
		return cli.Usagef("netconstantd", "-dir is required")
	}
	if *shards < 1 || *queue < 1 || *memoCap < 1 {
		return cli.Usagef("netconstantd", "-shards, -queue and -memo must be ≥ 1")
	}
	if *timeout < 0 {
		return cli.Usagef("netconstantd", "-timeout must be ≥ 0")
	}

	ctx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()

	s, err := serve.New(ctx, serve.Config{
		Dir:            *dir,
		Shards:         *shards,
		QueueDepth:     *queue,
		MemoCapacity:   *memoCap,
		DefaultTimeout: *timeout,
	})
	if err != nil {
		return cli.Failf("netconstantd", "startup: %v", err)
	}
	for _, id := range s.Quarantined() {
		reason, _ := s.QuarantineReason(id)
		fmt.Fprintf(os.Stderr, "netconstantd: tenant %s quarantined at startup: %s\n", id, reason)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		s.Close()
		return cli.Failf("netconstantd", "listen: %v", err)
	}
	fmt.Printf("netconstantd: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: s}
	// First signal: stop admitting (typed 503), let in-flight requests
	// finish, then close the listener so Serve returns. The journals
	// close below in s.Close, on the main goroutine.
	defer cli.SignalDrain("netconstantd", "draining — refusing new requests, closing journals", func() {
		s.Drain()
		shutdownCtx, done := context.WithTimeout(context.Background(), 30*time.Second)
		defer done()
		hs.Shutdown(shutdownCtx)
	})()

	serveErr := hs.Serve(ln)
	closeErr := s.Close()
	if !errors.Is(serveErr, http.ErrServerClosed) {
		return cli.Failf("netconstantd", "serve: %v", serveErr)
	}
	if closeErr != nil {
		return cli.Failf("netconstantd", "drain: closing journals: %v", closeErr)
	}
	fmt.Fprintln(os.Stderr, "netconstantd: drained — journals closed")
	return cli.ExitInterrupted
}
