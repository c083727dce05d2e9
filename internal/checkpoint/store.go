package checkpoint

// Store is a journal whose records carry their own sequence numbers:
// every frame's payload is an 8-byte little-endian sequence number
// followed by the record, numbered 1, 2, 3, … in append order. The
// journal is the store's only durable file, and OpenStore replays it
// whole.
//
// The stamp is what lets recovery refuse damage the frame checksums
// cannot see. A frame duplicated in the file (a double write, a botched
// copy) is a valid frame, so Replay returns it verbatim; the store
// requires each frame to carry the next sequence number and refuses a
// duplicate, a gap or a reordering with a typed *CorruptError, so
// recovery yields exactly the appended records, each once, or an error.
//
// Store is safe for concurrent use; one mutex serializes Append and
// Close.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
)

// Store is a seq-stamped journal.
type Store struct {
	mu          sync.Mutex
	j           *Journal
	journalPath string

	seq     uint64   // last assigned sequence number
	records [][]byte // full history, records[i] has seq i+1
}

// OpenStore opens (or creates) the store journaled at journalPath and
// recovers its record history. Torn journal tails are tolerated exactly
// as in Open; damage anywhere else surfaces as a typed *CorruptError.
//
// legacySnapPath is where older builds sealed a copy of the history and
// then truncated the journal, so a journal they drained holds none of
// the records its snapshot does. Any file there is refused with a
// *CorruptError naming it, before the journal is opened or created,
// rather than replaying a journal that is missing its head.
func OpenStore(journalPath, legacySnapPath string) (*Store, error) {
	if _, err := os.Lstat(legacySnapPath); err == nil {
		return nil, &CorruptError{Path: legacySnapPath, Offset: 0, Reason: "snapshot left by an older build; this build keeps every record in the journal and cannot replay it"}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	j, rec, err := Open(journalPath)
	if err != nil {
		return nil, err
	}
	s := &Store{j: j, journalPath: journalPath}
	for _, frame := range rec.Records {
		if len(frame) < 8 {
			j.Close()
			return nil, &CorruptError{Path: journalPath, Offset: 0, Reason: fmt.Sprintf("store frame of %d bytes lacks a sequence header", len(frame))}
		}
		seq := binary.LittleEndian.Uint64(frame[:8])
		if seq != s.seq+1 {
			j.Close()
			return nil, &CorruptError{Path: journalPath, Offset: 0, Reason: fmt.Sprintf("store sequence gap: journal frame %d after %d", seq, s.seq)}
		}
		// Open hands back a fresh copy of every frame, so the record can
		// share it.
		s.records = append(s.records, frame[8:])
		s.seq = seq
	}
	return s, nil
}

// Append stamps payload with the next sequence number and journals it
// durably. It returns the record's sequence number. On an error the
// sequence does not advance and the record is not in the history. The
// failed write may still have left some or all of its frame in the
// file: the next OpenStore drops a partial frame as a torn tail and
// recovers a whole one as this record, and refuses either once later
// appends follow it.
func (s *Store) Append(payload []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.j == nil {
		return 0, fmt.Errorf("checkpoint: append to closed store %s", s.journalPath)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint64(frame[:8], s.seq+1)
	copy(frame[8:], payload)
	if err := s.j.Append(frame); err != nil {
		return 0, err
	}
	s.seq++
	s.records = append(s.records, frame[8:])
	return s.seq, nil
}

// Records returns the record history in append order. The slice and
// its elements are shared — callers must not mutate them.
func (s *Store) Records() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Seq returns the sequence number of the most recent record (0 when
// empty).
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Close closes the underlying journal. Further Appends fail; the record
// history remains readable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.j == nil {
		return nil
	}
	err := s.j.Close()
	s.j = nil
	return err
}
