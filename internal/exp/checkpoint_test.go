package exp

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"netconstant/internal/cancel"
	"netconstant/internal/checkpoint"
)

// TestSweepResumeByteIdentical is the PR's resume acceptance test at the
// package level: a figure interrupted mid-sweep (graceful cancellation
// after a few journaled points) and resumed from its checkpoint — at a
// different worker count — must render byte-identical tables to an
// uninterrupted run.
func TestSweepResumeByteIdentical(t *testing.T) {
	cfg := Quick()
	cfg.Runs = 8
	cfg.VMs = 8
	cfg.SmallVMs = 4

	fresh := cfg
	fresh.Workers = 2
	want, err := Fig7Overall(fresh)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()

	// Interrupted run: cancel after 3 journaled points, 4 workers.
	interrupted := cfg
	interrupted.Workers = 4
	ctx, stop := context.WithCancel(context.Background())
	interrupted.Ctx = ctx
	var done atomic.Int64
	interrupted.PointHook = func(string, int) {
		if done.Add(1) == 3 {
			stop()
		}
	}
	ck, err := OpenCheckpoint(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	interrupted.Ckpt = ck
	_, err = Fig7Overall(interrupted)
	stop()
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("interrupted run: err = %v, want typed cancellation", err)
	}
	var ce *cancel.Error
	if !errors.As(err, &ce) {
		t.Fatalf("interrupted run: err = %T, want *cancel.Error", err)
	}
	if ce.Done < 3 || ce.Done >= ce.Total {
		t.Fatalf("cancel provenance = %d/%d, want partial progress ≥ 3", ce.Done, ce.Total)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	// Resumed run: same checkpoint dir, different worker count.
	resumed := cfg
	resumed.Workers = 1
	ck2, err := OpenCheckpoint(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if st := ck2.Stats(); st.ResumedPoints < 3 {
		t.Fatalf("resumed %d points, want ≥ 3 journaled", st.ResumedPoints)
	}
	resumed.Ckpt = ck2
	var recomputed atomic.Int64
	resumed.PointHook = func(string, int) { recomputed.Add(1) }
	got, err := Fig7Overall(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if int(recomputed.Load())+ck2.Stats().ResumedPoints != cfg.Runs {
		t.Errorf("recomputed %d + resumed %d != %d points",
			recomputed.Load(), ck2.Stats().ResumedPoints, cfg.Runs)
	}
	if got.Table.String() != want.Table.String() || got.CDFTable.String() != want.CDFTable.String() {
		t.Errorf("resumed tables differ from an uninterrupted run:\n--- fresh ---\n%s%s\n--- resumed ---\n%s%s",
			want.Table, want.CDFTable, got.Table, got.CDFTable)
	}
}

// TestCheckpointManifestMismatch: a journal recorded under one
// configuration must refuse to resume a run with a different one.
func TestCheckpointManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := Quick()
	ck, err := OpenCheckpoint(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed = cfg.Seed + 1
	if _, err := OpenCheckpoint(dir, other); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("err = %v, want ErrManifestMismatch", err)
	}
	// Workers is presentation, not content: a different worker count must
	// still resume.
	moreWorkers := cfg
	moreWorkers.Workers = 7
	ck2, err := OpenCheckpoint(dir, moreWorkers)
	if err != nil {
		t.Fatalf("worker-count change refused: %v", err)
	}
	ck2.Close()
}

// TestCheckpointOldVersionRefused: a journal written under an older
// manifest version holds results of older code, so resuming it with the
// same configuration must be refused too. A Version 2 manifest may carry
// "Memo":false, a run whose calibrations measured the live cluster;
// decoding ignores that dropped key, so only the version refuses it. A
// Version 3 journal holds ext-stream's streaming-vs-batch table.
func TestCheckpointOldVersionRefused(t *testing.T) {
	cfg := Quick()
	v1 := manifestOf(cfg)
	v1.Version = 1
	v2 := struct {
		manifest
		Memo bool
	}{manifestOf(cfg), false}
	v2.Version = 2
	v3 := manifestOf(cfg)
	v3.Version = 3
	for _, c := range []struct {
		name string
		old  any
	}{{"version 1", v1}, {"version 2 memo-less", v2}, {"version 3", v3}} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			payload, err := json.Marshal(c.old)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkpoint.SaveSnapshot(filepath.Join(dir, ManifestName), payload); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenCheckpoint(dir, cfg); !errors.Is(err, ErrManifestMismatch) {
				t.Fatalf("err = %v, want ErrManifestMismatch", err)
			}
		})
	}
}

// TestCheckpointSeedInvalidatesPoints: journaled slots only replay when
// the per-point provenance seed matches.
func TestCheckpointSeedInvalidatesPoints(t *testing.T) {
	dir := t.TempDir()
	cfg := Quick()
	ck, err := OpenCheckpoint(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	data, err := gobEncode(&struct{ V int }{41})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.recordPoint("figX", 2, PointSeed("figX", cfg.Seed, 2), data); err != nil {
		t.Fatal(err)
	}
	if _, ok := ck.lookup("figX", 2, PointSeed("figX", cfg.Seed, 2)); !ok {
		t.Error("matching provenance not replayed")
	}
	if _, ok := ck.lookup("figX", 2, PointSeed("figX", cfg.Seed+1, 2)); ok {
		t.Error("stale provenance replayed")
	}
	if _, ok := ck.lookup("figY", 2, PointSeed("figY", cfg.Seed, 2)); ok {
		t.Error("wrong figure replayed")
	}
}

// TestFigureTablesRoundTrip: finished figures journal their rendered
// tables and replay them across a reopen.
func TestFigureTablesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Quick()
	ck, err := OpenCheckpoint(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable("T", "a", "b")
	tb.AddRow("1", "2")
	tb.AddNote("n = %d", 3)
	if err := ck.RecordFigure("fig7", []*Table{tb}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	ck2, err := OpenCheckpoint(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	got, ok := ck2.FigureTables("fig7")
	if !ok || len(got) != 1 {
		t.Fatalf("FigureTables = %v, %v; want the recorded table back", got, ok)
	}
	if got[0].String() != tb.String() {
		t.Errorf("table round-trip mismatch:\n%s\nvs\n%s", got[0], tb)
	}
	if _, ok := ck2.FigureTables("fig8"); ok {
		t.Error("unrecorded figure reported as finished")
	}
}

// TestRunPointsCancelDrains: cancellation is a graceful drain — no
// goroutine outlives the sweep, in-flight points complete, and the
// typed error reports partial progress.
func TestRunPointsCancelDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, stop := context.WithCancel(context.Background())
	cfg := Config{Seed: 1, Workers: 4, Ctx: ctx}
	var completed atomic.Int64
	err := runPoints(cfg, "drain", 64, nil, nil, func(i int, _ *rand.Rand) error {
		if completed.Add(1) == 5 {
			stop()
		}
		return nil
	})
	stop()
	var ce *cancel.Error
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want *cancel.Error wrapping context.Canceled", err)
	}
	if ce.Done != int(completed.Load()) || ce.Total != 64 {
		t.Errorf("provenance %d/%d, completed %d", ce.Done, ce.Total, completed.Load())
	}
	// All workers must have exited by the time runPoints returns.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines leaked: %d > %d baseline", n, base)
	}
}
