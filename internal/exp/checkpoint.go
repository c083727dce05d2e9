package exp

// Checkpoint bridges the experiment harness to the crash-safety
// substrate (internal/checkpoint): a journal of completed sweep points
// and finished figures, plus a manifest snapshot that pins the
// configuration the journal belongs to.
//
// Record provenance is the hashed PointSeed already used to derive each
// point's rng stream: a journaled point replays only into the exact
// (figure, index, seed) slot it was computed for, so resuming with a
// different seed or figure shape recomputes instead of replaying wrong
// state. Whole-figure completion records store the rendered tables, so
// a resumed driver run skips finished figures entirely (environment
// setup included) and still emits byte-identical output.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"netconstant/internal/checkpoint"
)

// JournalName and ManifestName are the file names inside a checkpoint
// directory.
const (
	JournalName  = "journal.nclog"
	ManifestName = "manifest.ncsnap"
)

// ErrManifestMismatch reports a -resume against a checkpoint directory
// whose journal was recorded under a different experiment
// configuration (seed, scale, figure profile).
var ErrManifestMismatch = errors.New("exp: checkpoint manifest does not match the current configuration")

// manifest pins every Config field that shapes sweep contents. Workers
// is deliberately absent: resuming with a different worker count must
// (and does) produce byte-identical tables.
//
// Version pins what no Config field records: the code that computed the
// journaled points and rendered the journaled tables. It is bumped
// whenever a change moves results, so a resume never splices tables from
// an older build into a newer run. Version 2: every RPCA solve runs IALM
// (Version 1 journals hold APG results). Version 3: every initial
// calibration is measured on a seeded replica; a Version 2 manifest may
// record a memo-less run, whose calibrations measured the live cluster.
// Version 4: ext-stream scores partial and full recalibration against
// ground truth; older journals hold its streaming-vs-batch table.
type manifest struct {
	Version           int
	Seed              int64
	VMs               int
	SmallVMs          int
	Runs              int
	MsgBytes          float64
	TimeStep          int
	Racks             int
	ServersPerRack    int
	SimRacks          int
	SimServersPerRack int
	SimVMs            int
	MigrationRate     float64
}

func manifestOf(cfg Config) manifest {
	return manifest{
		Version:           4,
		Seed:              cfg.Seed,
		VMs:               cfg.VMs,
		SmallVMs:          cfg.SmallVMs,
		Runs:              cfg.Runs,
		MsgBytes:          cfg.MsgBytes,
		TimeStep:          cfg.TimeStep,
		Racks:             cfg.Racks,
		ServersPerRack:    cfg.ServersPerRack,
		SimRacks:          cfg.SimRacks,
		SimServersPerRack: cfg.SimServersPerRack,
		SimVMs:            cfg.SimVMs,
		MigrationRate:     cfg.MigrationRate,
	}
}

// ckptRecord is the journal's record payload (gob-framed inside the
// CRC-framed journal records).
type ckptRecord struct {
	Kind   string // "point" or "figure"
	Figure string
	Index  int    // point index (points only)
	Seed   int64  // PointSeed for points, Config.Seed for figures
	Data   []byte // gob of the point slot, or gob of []*Table
}

type pointKey struct {
	figure string
	index  int
}

type pointRecord struct {
	seed int64
	data []byte
}

// Checkpoint journals sweep progress for one experiment configuration.
// recordPoint (via sweepPoints) is safe for concurrent use.
type Checkpoint struct {
	j        *checkpoint.Journal
	baseSeed int64

	mu      sync.Mutex
	points  map[pointKey]pointRecord
	figures map[string][]byte

	resumedPoints  int
	resumedFigures int
}

// CheckpointStats reports what a resumed run replayed from the journal.
type CheckpointStats struct {
	ResumedPoints  int
	ResumedFigures int
}

// OpenCheckpoint opens (or creates) the checkpoint directory for cfg,
// recovering any journaled progress. A directory recorded under a
// different configuration is refused with ErrManifestMismatch; a
// damaged journal or manifest surfaces the substrate's typed corruption
// error (checkpoint.ErrCorrupt). Torn tails from a crash mid-append are
// recovered from silently — that is the substrate's job.
func OpenCheckpoint(dir string, cfg Config) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	want := manifestOf(cfg)
	manPath := filepath.Join(dir, ManifestName)
	if payload, err := checkpoint.LoadSnapshot(manPath); err == nil {
		var got manifest
		if err := json.Unmarshal(payload, &got); err != nil {
			return nil, fmt.Errorf("exp: unreadable checkpoint manifest %s: %w", manPath, err)
		}
		if got != want {
			return nil, fmt.Errorf("%w: journal has seed=%d vms=%d runs=%d, run wants seed=%d vms=%d runs=%d (full diff: %+v vs %+v)",
				ErrManifestMismatch, got.Seed, got.VMs, got.Runs, want.Seed, want.VMs, want.Runs, got, want)
		}
	} else if os.IsNotExist(err) {
		payload, merr := json.Marshal(want)
		if merr != nil {
			return nil, merr
		}
		if err := checkpoint.SaveSnapshot(manPath, payload); err != nil {
			return nil, err
		}
	} else {
		return nil, err
	}

	j, rec, err := checkpoint.Open(filepath.Join(dir, JournalName))
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{
		j:        j,
		baseSeed: cfg.Seed,
		points:   map[pointKey]pointRecord{},
		figures:  map[string][]byte{},
	}
	for _, raw := range rec.Records {
		var r ckptRecord
		if err := gobDecode(raw, &r); err != nil {
			j.Close()
			return nil, fmt.Errorf("exp: undecodable checkpoint record: %v: %w", err, checkpoint.ErrCorrupt)
		}
		switch r.Kind {
		case "point":
			// Later duplicates win (a double-appended frame replays the
			// same bytes, so the choice is immaterial there).
			ck.points[pointKey{figure: r.Figure, index: r.Index}] = pointRecord{seed: r.Seed, data: r.Data}
			ck.resumedPoints++
		case "figure":
			if r.Seed == cfg.Seed {
				ck.figures[r.Figure] = r.Data
				ck.resumedFigures++
			}
		default:
			// Unknown kinds are skipped: a newer writer may add record
			// kinds an older reader can safely ignore.
		}
	}
	return ck, nil
}

// lookup returns the journaled slot payload for (figure, index) when its
// recorded provenance seed matches.
func (ck *Checkpoint) lookup(figure string, index int, seed int64) ([]byte, bool) {
	if ck == nil {
		return nil, false
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	pr, ok := ck.points[pointKey{figure: figure, index: index}]
	if !ok || pr.seed != seed {
		return nil, false
	}
	return pr.data, true
}

// recordPoint journals a completed point slot. The append is durable
// (fsynced) before it returns.
func (ck *Checkpoint) recordPoint(figure string, index int, seed int64, data []byte) error {
	raw, err := gobEncode(&ckptRecord{Kind: "point", Figure: figure, Index: index, Seed: seed, Data: data})
	if err != nil {
		return err
	}
	if err := ck.j.Append(raw); err != nil {
		return err
	}
	ck.mu.Lock()
	ck.points[pointKey{figure: figure, index: index}] = pointRecord{seed: seed, data: data}
	ck.mu.Unlock()
	return nil
}

// FigureTables returns the journaled rendered tables of a finished
// figure, or ok=false when the figure must (re)run.
func (ck *Checkpoint) FigureTables(figure string) ([]*Table, bool) {
	if ck == nil {
		return nil, false
	}
	ck.mu.Lock()
	data, ok := ck.figures[figure]
	ck.mu.Unlock()
	if !ok {
		return nil, false
	}
	var tables []*Table
	if err := gobDecode(data, &tables); err != nil {
		return nil, false // recompute rather than guess
	}
	return tables, true
}

// RecordFigure journals a figure's finished tables so a resumed run can
// skip the figure wholesale.
func (ck *Checkpoint) RecordFigure(figure string, tables []*Table) error {
	data, err := gobEncode(&tables)
	if err != nil {
		return err
	}
	raw, err := gobEncode(&ckptRecord{Kind: "figure", Figure: figure, Seed: ck.baseSeed, Data: data})
	if err != nil {
		return err
	}
	if err := ck.j.Append(raw); err != nil {
		return err
	}
	ck.mu.Lock()
	ck.figures[figure] = data
	ck.mu.Unlock()
	return nil
}

// JournalSummary describes a checkpoint journal's contents from the
// outside: how much progress it holds and where that progress stopped.
// The expfleet supervisor reads it for healthchecks (is the child's
// journal growing?) and for quarantine diagnoses (what was the last
// journaled point before the task died?).
type JournalSummary struct {
	// Points and Figures count the decodable records of each kind.
	Points  int
	Figures int
	// LastFigure and LastIndex identify the most recently appended
	// point record; LastFigure is "" when the journal holds no points.
	LastFigure string
	LastIndex  int
	// Unknown counts records that did not gob-decode as checkpoint
	// records (a newer writer's kinds, or foreign payloads).
	Unknown int
	// TornBytes reports trailing bytes discarded as a torn final
	// append, exactly as checkpoint.Recovery does.
	TornBytes int64
}

// SummarizeJournal replays the journal at path read-only and tallies
// its records. Damage beyond a torn tail surfaces as the substrate's
// typed corruption error (matching checkpoint.ErrCorrupt).
func SummarizeJournal(path string) (JournalSummary, error) {
	rec, err := checkpoint.Replay(path)
	if err != nil {
		return JournalSummary{}, err
	}
	sum := JournalSummary{TornBytes: rec.TornBytes}
	for _, raw := range rec.Records {
		var r ckptRecord
		if err := gobDecode(raw, &r); err != nil {
			sum.Unknown++
			continue
		}
		switch r.Kind {
		case "point":
			sum.Points++
			sum.LastFigure = r.Figure
			sum.LastIndex = r.Index
		case "figure":
			sum.Figures++
		default:
			sum.Unknown++
		}
	}
	return sum, nil
}

// CheckCheckpointDir verifies that a checkpoint directory is resumable
// without opening it for writing: the manifest snapshot must load and
// parse, and the journal must replay. It does not compare the manifest
// against any configuration — that is OpenCheckpoint's job — so a
// supervisor can triage "corrupt, wipe and restart fresh" apart from
// "healthy, relaunch with -resume". A missing journal or manifest is an
// error (the directory holds no usable checkpoint); corruption matches
// checkpoint.ErrCorrupt.
func CheckCheckpointDir(dir string) error {
	payload, err := checkpoint.LoadSnapshot(filepath.Join(dir, ManifestName))
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return fmt.Errorf("exp: unreadable checkpoint manifest in %s: %v: %w", dir, err, checkpoint.ErrCorrupt)
	}
	if _, err := SummarizeJournal(filepath.Join(dir, JournalName)); err != nil {
		return err
	}
	return nil
}

// Stats reports how much journaled progress this Checkpoint recovered
// when it was opened.
func (ck *Checkpoint) Stats() CheckpointStats {
	if ck == nil {
		return CheckpointStats{}
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return CheckpointStats{ResumedPoints: ck.resumedPoints, ResumedFigures: ck.resumedFigures}
}

// Close closes the underlying journal.
func (ck *Checkpoint) Close() error {
	if ck == nil {
		return nil
	}
	return ck.j.Close()
}
