package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"netconstant/internal/stats"
)

// requireRecords fails unless got equals want record for record.
func requireRecords(t *testing.T, got, want [][]byte, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: recovered %d records, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: record %d mismatch: got %x want %x", label, i, got[i], want[i])
		}
	}
}

// TestStoreRecoversPrefixEveryCut: the journal only grows, so the file
// after every append is a prefix of the final one, and a crash can leave
// any byte prefix of it. OpenStore on every prefix must recover exactly
// the records whose frames the prefix holds whole — never reordered,
// duplicated, or beyond what was written — and keep accepting appends
// that extend the sequence.
func TestStoreRecoversPrefixEveryCut(t *testing.T) {
	rng := stats.NewRNG(41)
	dir := t.TempDir()
	jp := filepath.Join(dir, "ops.nclog")
	s, err := OpenStore(jp, filepath.Join(dir, "state.ncsnap"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	const n = 24
	var appended, files [][]byte // files[i] is the journal after append i
	for i := 0; i < n; i++ {
		rec := make([]byte, 1+rng.Intn(120))
		rng.Read(rec)
		rec[0] = byte(i) // make records distinguishable even when short
		appended = append(appended, rec)
		if seq, err := s.Append(rec); err != nil || seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d, err %v", i, seq, err)
		}
		buf, err := os.ReadFile(jp)
		if err != nil {
			t.Fatalf("read journal: %v", err)
		}
		files = append(files, buf)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	full := files[n-1]
	for i, f := range files {
		if !bytes.Equal(f, full[:len(f)]) {
			t.Fatalf("journal after append %d is not a prefix of the final journal", i)
		}
	}

	scratch := t.TempDir()
	rp, rsp := filepath.Join(scratch, "ops.nclog"), filepath.Join(scratch, "state.ncsnap")
	whole := 0 // records whose frames end at or before the cut
	for l := 0; l <= len(full); l++ {
		for whole < n && len(files[whole]) <= l {
			whole++
		}
		if err := os.WriteFile(rp, full[:l], 0o644); err != nil {
			t.Fatalf("write prefix: %v", err)
		}
		rs, err := OpenStore(rp, rsp)
		if err != nil {
			t.Fatalf("prefix %d/%d: open: %v", l, len(full), err)
		}
		requireRecords(t, rs.Records(), appended[:whole], "prefix")
		if _, err := rs.Append([]byte("post-recovery")); err != nil {
			t.Fatalf("prefix %d: append after recovery: %v", l, err)
		}
		if rs.Seq() != uint64(whole+1) {
			t.Fatalf("prefix %d: append did not extend the sequence: %d after %d records", l, rs.Seq(), whole)
		}
		if err := rs.Close(); err != nil {
			t.Fatalf("close recovered: %v", err)
		}
	}
}

// TestStoreConcurrentAppends hammers Append from several goroutines,
// then verifies the recovered history: contiguous sequence, every
// record exactly once, and each goroutine's records in its own program
// order.
func TestStoreConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	jp, sp := filepath.Join(dir, "ops.nclog"), filepath.Join(dir, "state.ncsnap")
	s, err := OpenStore(jp, sp)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := s.Append([]byte{byte(g), byte(i)}); err != nil {
					t.Errorf("writer %d append %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	rs, err := OpenStore(jp, sp)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rs.Close()
	got := rs.Records()
	if len(got) != writers*each {
		t.Fatalf("recovered %d records, want %d", len(got), writers*each)
	}
	next := make([]int, writers)
	for i, rec := range got {
		if len(rec) != 2 {
			t.Fatalf("record %d has %d bytes", i, len(rec))
		}
		g, k := int(rec[0]), int(rec[1])
		if g >= writers || k != next[g] {
			t.Fatalf("record %d: writer %d index %d, want index %d (per-writer order broken)", i, g, k, next[g])
		}
		next[g]++
	}
}

// TestStoreDuplicateFrameRefused: a journal frame written twice carries
// a valid checksum, so Replay returns the duplicate verbatim, and only
// the sequence stamp tells it apart. The store must refuse it typed,
// wherever it sits, rather than hand a consumer the record twice.
func TestStoreDuplicateFrameRefused(t *testing.T) {
	dir := t.TempDir()
	jp, sp := filepath.Join(dir, "ops.nclog"), filepath.Join(dir, "state.ncsnap")
	s, err := OpenStore(jp, sp)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int // journal length after each append: frame i is [ends[i-1], ends[i])
	for i := 0; i < 4; i++ {
		if _, err := s.Append([]byte{byte('a' + i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(jp)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, int(fi.Size()))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		dup  int // frame written twice in a row
	}{{"tail", 3}, {"mid-file", 1}} {
		frame := clean[ends[c.dup-1]:ends[c.dup]]
		damaged := bytes.Clone(clean[:ends[c.dup]])
		damaged = append(damaged, frame...)
		damaged = append(damaged, clean[ends[c.dup]:]...)
		if err := os.WriteFile(jp, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Replay(jp)
		if err != nil {
			t.Fatalf("%s: Replay: %v", c.name, err)
		}
		if len(rec.Records) != 5 || !bytes.Equal(rec.Records[c.dup], rec.Records[c.dup+1]) {
			t.Fatalf("%s: Replay returned %d records, want 5 with frame %d twice", c.name, len(rec.Records), c.dup)
		}
		rs, err := OpenStore(jp, sp)
		if err == nil {
			rs.Close()
			t.Fatalf("%s: store opened a duplicated frame and recovered %d records", c.name, len(rs.Records()))
		}
		var ce *CorruptError
		if !errors.Is(err, ErrCorrupt) || !errors.As(err, &ce) || ce.Path != jp {
			t.Fatalf("%s: duplicated frame refused with %v, want a *CorruptError on %s", c.name, err, jp)
		}
	}
}

// TestStoreLegacySnapshotRefused: an older build sealed a store's
// records into a snapshot file and truncated the journal, so its drained
// journal holds none of them. Any file at the snapshot path must be
// refused typed, naming it, without creating or touching the journal.
func TestStoreLegacySnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	jp, sp := filepath.Join(dir, "ops.nclog"), filepath.Join(dir, "state.ncsnap")
	// The older build's snapshot payload: the high-water sequence, then
	// each record behind its 4-byte length.
	records := [][]byte{[]byte(`{"kind":"create"}`), []byte(`{"kind":"calibrate"}`)}
	payload := binary.LittleEndian.AppendUint64(nil, uint64(len(records)))
	for _, r := range records {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(r)))
		payload = append(payload, r...)
	}
	if err := SaveSnapshot(sp, payload); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		journal []byte // nil: no journal file
	}{{"no journal", nil}, {"drained journal", journalMagic}} {
		os.Remove(jp)
		if c.journal != nil {
			if err := os.WriteFile(jp, c.journal, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := OpenStore(jp, sp)
		if err == nil {
			s.Close()
			t.Fatalf("%s: store opened beside a legacy snapshot with %d records", c.name, len(s.Records()))
		}
		var ce *CorruptError
		if !errors.Is(err, ErrCorrupt) || !errors.As(err, &ce) || ce.Path != sp {
			t.Fatalf("%s: legacy snapshot refused with %v, want a *CorruptError on %s", c.name, err, sp)
		}
		buf, err := os.ReadFile(jp)
		if c.journal == nil && !os.IsNotExist(err) {
			t.Fatalf("%s: refusal created the journal (err %v)", c.name, err)
		}
		if c.journal != nil && !bytes.Equal(buf, c.journal) {
			t.Fatalf("%s: refusal changed the journal to %q", c.name, buf)
		}
	}
}
