// Package checkpoint provides the crash-safety substrate: an
// append-only CRC-framed record journal with truncation-tolerant
// recovery, atomic whole-file writes (write-temp → fsync → rename →
// fsync dir), and CRC-sealed snapshot files.
//
// The durability model is the classic write-ahead-log one:
//
//   - every record is framed as [length][crc32c][payload], so a torn
//     write at the file tail (the only damage a crash of this
//     append-only writer can produce) is recognized and discarded —
//     recovery returns the longest valid record prefix;
//   - damage *before* the tail (a bit flip, an overwritten region) is
//     not survivable silently: recovery fails with a typed
//     *CorruptError rather than ever returning wrong records;
//   - snapshot files are written atomically and sealed with a CRC, so a
//     reader either sees the complete old file, the complete new file,
//     or a typed corruption error — never a partial write.
//
// The package is deliberately payload-agnostic (records are []byte);
// internal/exp layers its gob-encoded sweep-point records on top.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// journalMagic identifies (and versions) the journal file format.
var journalMagic = []byte("NCJL0001")

// frameSum checksums a record frame. The CRC covers the length header
// as well as the payload so that a zero-filled tail block (length 0,
// CRC 0 — and CRC-32C of an empty payload *is* 0) can never parse as a
// run of valid empty records.
func frameSum(lenField [4]byte, payload []byte) uint32 {
	sum := crc32.Checksum(lenField[:], castagnoli)
	return crc32.Update(sum, castagnoli, payload)
}

// snapshotMagic identifies (and versions) the snapshot file format.
var snapshotMagic = []byte("NCSN0001")

// maxRecord bounds a single record's payload. Anything larger in a
// length header is treated as corruption (a flipped high bit in the
// length field must not trigger a multi-gigabyte allocation).
const maxRecord = 64 << 20

// castagnoli is the CRC-32C table; Castagnoli detects short burst
// errors better than the IEEE polynomial and is hardware-accelerated.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is the sentinel matched by every typed corruption error.
var ErrCorrupt = errors.New("checkpoint: corrupt")

// CorruptError reports unrecoverable damage in a journal or snapshot:
// the file's bytes disagree with their own checksums in a way that
// cannot be explained by a torn tail write. It wraps ErrCorrupt.
type CorruptError struct {
	Path   string // damaged file
	Offset int64  // byte offset of the damaged frame
	Reason string // human-readable diagnosis, e.g. "payload CRC mismatch"
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint: corrupt %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Unwrap makes errors.Is(err, ErrCorrupt) true for every *CorruptError.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// Recovery describes what journal recovery found.
type Recovery struct {
	// Records is the longest valid prefix of journaled records, in
	// append order.
	Records [][]byte
	// TornBytes is how many trailing bytes were discarded as an
	// incomplete (torn) final append. Zero for a cleanly closed journal.
	TornBytes int64
}

// Journal is an append-only CRC-framed record log. Append is safe for
// concurrent use; recovery semantics are documented on Open.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// Create creates (or truncates) a journal at path.
func Create(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(journalMagic); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f, path: path}, nil
}

// Open opens the journal at path for appending, first recovering its
// contents. A missing file is created empty. Recovery is
// truncation-tolerant: a torn tail (partial header or payload, the
// signature of a crash mid-append) is truncated away and reported in
// Recovery.TornBytes, and appending resumes after the last valid
// record. Any other checksum disagreement aborts with a typed
// *CorruptError and a nil Journal — corrupt journals are never
// silently reframed.
func Open(path string) (*Journal, Recovery, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Recovery{}, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, Recovery{}, err
	}
	if len(data) == 0 {
		// Fresh file: stamp the magic.
		if _, err := f.Write(journalMagic); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
		return &Journal{f: f, path: path}, Recovery{}, nil
	}
	rec, validEnd, err := parseJournal(path, data)
	if err != nil {
		f.Close()
		return nil, Recovery{}, err
	}
	if validEnd < int64(len(data)) {
		// Drop the torn tail so subsequent appends extend the valid
		// prefix instead of burying garbage mid-file.
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, Recovery{}, err
	}
	if validEnd < int64(len(journalMagic)) {
		// The crash tore the magic itself (mid-Create): re-stamp it so
		// subsequent appends land in a well-formed journal.
		if _, err := f.Write(journalMagic[validEnd:]); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
	}
	rec.TornBytes = int64(len(data)) - validEnd
	return &Journal{f: f, path: path}, rec, nil
}

// Replay reads the journal at path without opening it for appending.
// It applies the same recovery policy as Open (torn tails tolerated,
// other damage → *CorruptError) but never modifies the file.
func Replay(path string) (Recovery, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Recovery{}, err
	}
	rec, validEnd, err := parseJournal(path, data)
	if err != nil {
		return Recovery{}, err
	}
	rec.TornBytes = int64(len(data)) - validEnd
	return rec, nil
}

// parseJournal walks the framed records in data, returning the valid
// record prefix and the offset where it ends. A partial final frame is
// tolerated (the torn-tail case); any in-prefix checksum or framing
// violation returns a *CorruptError.
func parseJournal(path string, data []byte) (Recovery, int64, error) {
	if len(data) < len(journalMagic) {
		// Shorter than the magic: only acceptable if it is a prefix of
		// the magic (a crash during Create); otherwise it is not a
		// journal at all.
		if !isPrefix(data, journalMagic) {
			return Recovery{}, 0, &CorruptError{Path: path, Offset: 0, Reason: "bad magic"}
		}
		return Recovery{}, 0, nil
	}
	if string(data[:len(journalMagic)]) != string(journalMagic) {
		return Recovery{}, 0, &CorruptError{Path: path, Offset: 0, Reason: "bad magic"}
	}
	var rec Recovery
	off := int64(len(journalMagic))
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return rec, off, nil
		}
		if len(rest) < 8 {
			// Torn header.
			return rec, off, nil
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if length > maxRecord {
			return Recovery{}, 0, &CorruptError{Path: path, Offset: off, Reason: fmt.Sprintf("record length %d exceeds limit", length)}
		}
		if int64(len(rest)) < 8+int64(length) {
			// Torn payload.
			return rec, off, nil
		}
		payload := rest[8 : 8+length]
		if frameSum([4]byte(rest[0:4]), payload) != sum {
			if off+8+int64(length) == int64(len(data)) {
				// The damaged frame is the final one: indistinguishable
				// from a torn append, so recovery drops it.
				return rec, off, nil
			}
			if allZero(rest) {
				// An all-zeros remainder is a crash artifact of
				// filesystems that zero-fill tail blocks, not payload
				// damage: treat it as a torn tail.
				return rec, off, nil
			}
			return Recovery{}, 0, &CorruptError{Path: path, Offset: off, Reason: "payload CRC mismatch"}
		}
		cp := make([]byte, length)
		copy(cp, payload)
		rec.Records = append(rec.Records, cp)
		off += 8 + int64(length)
	}
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// isPrefix reports whether data is a (possibly empty) prefix of full.
func isPrefix(data, full []byte) bool {
	if len(data) > len(full) {
		return false
	}
	return string(data) == string(full[:len(data)])
}

// Append frames payload and appends it durably (the write is fsynced
// before Append returns, so a journaled record survives any subsequent
// crash). Safe for concurrent use.
func (j *Journal) Append(payload []byte) error {
	if len(payload) > maxRecord {
		return fmt.Errorf("checkpoint: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecord)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], frameSum([4]byte(frame[0:4]), payload))
	copy(frame[8:], payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("checkpoint: append to closed journal %s", j.path)
	}
	if _, err := j.f.Write(frame); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close closes the journal. Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// WriteFileAtomic writes data to path atomically: the bytes go to a
// temporary file in the same directory, are fsynced, and the temp file
// is renamed over path; the directory is then fsynced so the rename
// itself is durable. Readers never observe a partial file.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Best
// effort on filesystems that reject directory fsync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// SaveSnapshot atomically writes a CRC-sealed snapshot of payload.
func SaveSnapshot(path string, payload []byte) error {
	buf := make([]byte, len(snapshotMagic)+8+len(payload))
	n := copy(buf, snapshotMagic)
	binary.LittleEndian.PutUint32(buf[n:n+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[n+4:n+8], crc32.Checksum(payload, castagnoli))
	copy(buf[n+8:], payload)
	return WriteFileAtomic(path, buf, 0o644)
}

// LoadSnapshot reads a snapshot written by SaveSnapshot, returning the
// sealed payload. Damage of any kind — snapshots are written
// atomically, so torn tails get no tolerance here — yields a typed
// *CorruptError.
func LoadSnapshot(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	hdr := len(snapshotMagic) + 8
	if len(data) < hdr || string(data[:len(snapshotMagic)]) != string(snapshotMagic) {
		return nil, &CorruptError{Path: path, Offset: 0, Reason: "bad snapshot header"}
	}
	length := binary.LittleEndian.Uint32(data[len(snapshotMagic) : len(snapshotMagic)+4])
	sum := binary.LittleEndian.Uint32(data[len(snapshotMagic)+4 : hdr])
	if int64(len(data)) != int64(hdr)+int64(length) {
		return nil, &CorruptError{Path: path, Offset: int64(hdr), Reason: "snapshot length mismatch"}
	}
	payload := data[hdr:]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, &CorruptError{Path: path, Offset: int64(hdr), Reason: "snapshot CRC mismatch"}
	}
	return payload, nil
}
