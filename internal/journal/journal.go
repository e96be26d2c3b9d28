// Package journal provides the replica engine's crash-safe apply
// journal: a single-slot intent log written before every in-place
// block write. PRINS's backward parity computation XORs a shipped
// parity against the replica's current block, so a torn in-place write
// (power loss mid-sector) leaves a block that is neither A_old nor
// A_new and silently poisons every subsequent XOR at that LBA. The
// journal breaks that failure mode with write ordering:
//
//  1. Begin persists {seq, lba, hash} plus the fully decoded new block
//     and syncs — the redo record.
//  2. The engine performs the in-place store write (which may tear).
//  3. Commit clears the slot and syncs.
//
// A crash (or torn write) between 1 and 3 is healed by replaying the
// journaled block — an idempotent whole-block rewrite — before any
// further apply. A crash during 1 itself leaves an entry whose CRC
// does not verify; it is discarded, which is safe because the store
// write had not started and the device still holds A_old.
//
// One slot suffices because the replica engine serializes applies; the
// journal never holds more than the single in-flight intent.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Backing is the journal's persistence surface. *os.File implements it
// for durable journals; Mem implements it in-process for tests that
// simulate a crash by rebuilding the engine over a surviving backing.
type Backing interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
}

// Entry layout (big endian):
//
//	off 0  : magic "PJN1" (4)
//	off 4  : state (1): stateEmpty or stateIntent
//	off 5  : shard (uint8)  replication stream shard index
//	off 6-7: vol (uint16)   replication stream volume id
//	off 8  : seq  (uint64)
//	off 16 : lba  (uint64)
//	off 24 : hash (uint64) content hash of the new block
//	off 32 : payload length (uint32)
//	off 36 : payload CRC-32C (uint32)
//	off 40 : header CRC-32C over bytes 0..39 (uint32)
//	off 44 : payload (the decoded new block)
const (
	hdrLen      = 44
	stateEmpty  = 0
	stateIntent = 1
	stateGroup  = 2
)

// Group record layout (big endian). A group is one durable intent
// covering a whole batch of applies to the same (shard, vol) stream:
// one WriteAt, one Sync, and one CRC pass over the concatenated
// entries, instead of a Begin→Commit round per entry. The state byte
// shares offset 4 with the single-entry format, so Commit clears both
// record kinds the same way.
//
//	off 0  : magic "PJN1" (4)
//	off 4  : state (1): stateGroup
//	off 5  : shard (uint8)
//	off 6-7: vol (uint16)
//	off 8  : entry count (uint32)
//	off 12 : body length (uint32)
//	off 16 : body CRC-32C (uint32)
//	off 20 : header CRC-32C over bytes 0..19 (uint32)
//	off 24 : body — per entry:
//	         seq (uint64), lba (uint64), hash (uint64),
//	         payload length (uint32), payload
const (
	groupHdrLen   = 24
	groupEntryLen = 28
)

var journalMagic = [4]byte{'P', 'J', 'N', '1'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// clearedState is the one byte Commit writes over a record's state.
var clearedState = []byte{stateEmpty}

// ErrCorrupt reports a journal whose intent entry failed validation in
// a way that cannot be a clean torn Begin (e.g. payload shorter than
// the header promises with a valid header CRC).
var ErrCorrupt = errors.New("journal: corrupt entry")

// Entry is one decoded intent record. Shard and Vol identify the
// replication stream the intent belongs to, so replay advances the
// right stream's dedupe cursor on a sharded replica; journals written
// before stream tagging decode as the zero (default) stream.
type Entry struct {
	Seq   uint64
	LBA   uint64
	Hash  uint64
	Shard uint8
	Vol   uint16
	Block []byte
}

// Journal is a single-slot intent journal over a Backing. Methods are
// safe for concurrent use, though the replica engine serializes them.
type Journal struct {
	mu sync.Mutex
	b  Backing
	// rec is the buffer Begin assembles its record in, reused from one
	// intent to the next (the Backing copies or writes it out before
	// WriteAt returns). Guarded by mu; it starts nil and grows to the
	// largest record written.
	rec []byte
}

// record returns the journal's record buffer resized to n bytes, every
// one of which the caller overwrites. Called with j.mu held.
func (j *Journal) record(n int) []byte {
	if cap(j.rec) < n {
		j.rec = make([]byte, n)
	}
	return j.rec[:n]
}

// New wraps an existing backing.
func New(b Backing) *Journal { return &Journal{b: b} }

// OpenFile opens (creating if absent) a file-backed journal at path.
func OpenFile(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	return New(f), nil
}

// NewMem returns a journal over a fresh in-memory backing.
func NewMem() *Journal { return New(&Mem{}) }

// Begin persists the intent to write block (the decoded A_new) at lba
// with the given replication seq and content hash, durably, before the
// caller performs the in-place store write. The slot must be clear
// (committed or replayed); a new Begin simply overwrites it. The
// intent is recorded against the zero (default) replication stream.
func (j *Journal) Begin(seq, lba, hash uint64, block []byte) error {
	return j.BeginStream(0, 0, seq, lba, hash, block)
}

// BeginStream is Begin tagged with the (vol, shard) replication stream
// the intent belongs to, so replay advances that stream's dedupe
// cursor on a sharded replica.
func (j *Journal) BeginStream(shard uint8, vol uint16, seq, lba, hash uint64, block []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()

	buf := j.record(hdrLen + len(block))
	copy(buf[0:4], journalMagic[:])
	buf[4] = stateIntent
	buf[5] = shard
	binary.BigEndian.PutUint16(buf[6:], vol)
	binary.BigEndian.PutUint64(buf[8:], seq)
	binary.BigEndian.PutUint64(buf[16:], lba)
	binary.BigEndian.PutUint64(buf[24:], hash)
	binary.BigEndian.PutUint32(buf[32:], uint32(len(block)))
	binary.BigEndian.PutUint32(buf[36:], crc32.Checksum(block, castagnoli))
	binary.BigEndian.PutUint32(buf[40:], crc32.Checksum(buf[:40], castagnoli))
	copy(buf[hdrLen:], block)

	if _, err := j.b.WriteAt(buf, 0); err != nil {
		return fmt.Errorf("journal: write intent: %w", err)
	}
	if err := j.b.Sync(); err != nil {
		return fmt.Errorf("journal: sync intent: %w", err)
	}
	return nil
}

// BeginGroupStream persists one durable intent covering every entry of
// a batch apply to the (shard, vol) stream: a single WriteAt, a single
// Sync, and a single streamed CRC over the concatenated entries. The
// per-entry Shard/Vol fields are ignored — the group header carries
// the stream identity once. Commit clears the whole group; a crash
// before Commit replays every entry (idempotent whole-block rewrites).
func (j *Journal) BeginGroupStream(shard uint8, vol uint16, entries []Entry) error {
	if len(entries) == 0 {
		return errors.New("journal: empty group")
	}
	j.mu.Lock()
	defer j.mu.Unlock()

	bodyLen := 0
	for i := range entries {
		bodyLen += groupEntryLen + len(entries[i].Block)
	}
	buf := j.record(groupHdrLen + bodyLen)
	copy(buf[0:4], journalMagic[:])
	buf[4] = stateGroup
	buf[5] = shard
	binary.BigEndian.PutUint16(buf[6:], vol)
	binary.BigEndian.PutUint32(buf[8:], uint32(len(entries)))
	binary.BigEndian.PutUint32(buf[12:], uint32(bodyLen))
	off := groupHdrLen
	for i := range entries {
		e := &entries[i]
		binary.BigEndian.PutUint64(buf[off:], e.Seq)
		binary.BigEndian.PutUint64(buf[off+8:], e.LBA)
		binary.BigEndian.PutUint64(buf[off+16:], e.Hash)
		binary.BigEndian.PutUint32(buf[off+24:], uint32(len(e.Block)))
		copy(buf[off+groupEntryLen:], e.Block)
		off += groupEntryLen + len(e.Block)
	}
	binary.BigEndian.PutUint32(buf[16:], crc32.Checksum(buf[groupHdrLen:], castagnoli))
	binary.BigEndian.PutUint32(buf[20:], crc32.Checksum(buf[:20], castagnoli))

	if _, err := j.b.WriteAt(buf, 0); err != nil {
		return fmt.Errorf("journal: write group intent: %w", err)
	}
	if err := j.b.Sync(); err != nil {
		return fmt.Errorf("journal: sync group intent: %w", err)
	}
	return nil
}

// Commit marks the slot clear after the in-place store write
// succeeded, durably.
func (j *Journal) Commit() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.b.WriteAt(clearedState, 4); err != nil {
		return fmt.Errorf("journal: clear intent: %w", err)
	}
	if err := j.b.Sync(); err != nil {
		return fmt.Errorf("journal: sync clear: %w", err)
	}
	return nil
}

// Pending returns the first outstanding intent entry, or nil when the
// slot is clear. A torn Begin (header or payload CRC mismatch) is
// reported as nil: the in-place write never started, so the device
// still holds the pre-image and there is nothing to redo. For group
// records only the first entry is returned; replayers should prefer
// PendingEntries.
func (j *Journal) Pending() (*Entry, error) {
	entries, err := j.PendingEntries()
	if err != nil || len(entries) == 0 {
		return nil, err
	}
	return &entries[0], nil
}

// PendingEntries returns every outstanding intent entry — one for a
// single-entry record, the whole batch for a group record — or nil
// when the slot is clear. A torn Begin of either kind (header or body
// CRC mismatch, truncated payload) is reported as nil, because the
// in-place writes it guarded never started.
func (j *Journal) PendingEntries() ([]Entry, error) {
	j.mu.Lock()
	defer j.mu.Unlock()

	var hdr [hdrLen]byte
	n, err := j.b.ReadAt(hdr[:], 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("journal: read header: %w", err)
	}
	if n < groupHdrLen || [4]byte(hdr[0:4]) != journalMagic {
		return nil, nil // fresh, truncated, or foreign journal: empty slot
	}
	switch hdr[4] {
	case stateIntent:
		if n < hdrLen {
			return nil, nil // torn single-entry header
		}
		e, plen, ok := decodeHeader(hdr[:])
		if !ok {
			return nil, nil // empty, foreign, or torn header
		}
		e.Block = make([]byte, plen)
		if _, err := j.b.ReadAt(e.Block, hdrLen); err != nil {
			if errors.Is(err, io.EOF) {
				return nil, nil // payload torn off: Begin never completed
			}
			return nil, fmt.Errorf("journal: read payload: %w", err)
		}
		if crc32.Checksum(e.Block, castagnoli) != binary.BigEndian.Uint32(hdr[36:]) {
			return nil, nil // torn payload within a full-length file
		}
		return []Entry{*e}, nil
	case stateGroup:
		return j.pendingGroupLocked(hdr[:])
	default:
		return nil, nil // cleared slot (stateEmpty) or unknown state
	}
}

// pendingGroupLocked decodes an outstanding group record. Torn writes
// (header or body CRC mismatch, truncated body) report nil; internal
// inconsistency behind a valid CRC reports ErrCorrupt.
func (j *Journal) pendingGroupLocked(hdr []byte) ([]Entry, error) {
	if crc32.Checksum(hdr[:20], castagnoli) != binary.BigEndian.Uint32(hdr[20:]) {
		return nil, nil // torn group header
	}
	count := binary.BigEndian.Uint32(hdr[8:])
	bodyLen := binary.BigEndian.Uint32(hdr[12:])
	if count == 0 || uint64(count)*groupEntryLen > uint64(bodyLen) {
		return nil, fmt.Errorf("%w: group count %d exceeds body %d", ErrCorrupt, count, bodyLen)
	}
	body := make([]byte, bodyLen)
	if _, err := j.b.ReadAt(body, groupHdrLen); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, nil // body torn off: Begin never completed
		}
		return nil, fmt.Errorf("journal: read group body: %w", err)
	}
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(hdr[16:]) {
		return nil, nil // torn body within a full-length file
	}
	shard := hdr[5]
	vol := binary.BigEndian.Uint16(hdr[6:])
	entries := make([]Entry, 0, count)
	off := 0
	for i := uint32(0); i < count; i++ {
		if off+groupEntryLen > len(body) {
			return nil, fmt.Errorf("%w: group entry %d truncated", ErrCorrupt, i)
		}
		plen := int(binary.BigEndian.Uint32(body[off+24:]))
		if off+groupEntryLen+plen > len(body) {
			return nil, fmt.Errorf("%w: group entry %d payload truncated", ErrCorrupt, i)
		}
		entries = append(entries, Entry{
			Seq:   binary.BigEndian.Uint64(body[off:]),
			LBA:   binary.BigEndian.Uint64(body[off+8:]),
			Hash:  binary.BigEndian.Uint64(body[off+16:]),
			Shard: shard,
			Vol:   vol,
			Block: body[off+groupEntryLen : off+groupEntryLen+plen : off+groupEntryLen+plen],
		})
		off += groupEntryLen + plen
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: group body has %d trailing bytes", ErrCorrupt, len(body)-off)
	}
	return entries, nil
}

// decodeHeader validates a slot header and returns the decoded entry
// (without payload) and the payload length. ok is false for an empty
// slot, a foreign file, or a header whose CRC does not verify.
func decodeHeader(hdr []byte) (e *Entry, plen uint32, ok bool) {
	if len(hdr) < hdrLen {
		return nil, 0, false
	}
	if [4]byte(hdr[0:4]) != journalMagic || hdr[4] != stateIntent {
		return nil, 0, false
	}
	if crc32.Checksum(hdr[:40], castagnoli) != binary.BigEndian.Uint32(hdr[40:]) {
		return nil, 0, false
	}
	return &Entry{
		Seq:   binary.BigEndian.Uint64(hdr[8:]),
		LBA:   binary.BigEndian.Uint64(hdr[16:]),
		Hash:  binary.BigEndian.Uint64(hdr[24:]),
		Shard: hdr[5],
		Vol:   binary.BigEndian.Uint16(hdr[6:]),
	}, binary.BigEndian.Uint32(hdr[32:]), true
}

// Close releases the backing if it is closable.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if c, ok := j.b.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Mem is an in-memory Backing. It survives engine restarts for as long
// as the caller holds it, which is how crash tests model a durable
// journal without a filesystem.
type Mem struct {
	mu  sync.Mutex
	buf []byte
}

// ReadAt implements io.ReaderAt.
func (m *Mem) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off >= int64(len(m.buf)) {
		return 0, io.EOF
	}
	n := copy(p, m.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt, growing the buffer as needed.
func (m *Mem) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(m.buf)) {
		grown := make([]byte, end)
		copy(grown, m.buf)
		m.buf = grown
	}
	return copy(m.buf[off:], p), nil
}

// Sync implements Backing; memory has nothing to flush.
func (m *Mem) Sync() error { return nil }

// Corrupt flips one bit at off, simulating a torn or rotted journal
// write for tests. Out-of-range offsets are ignored.
func (m *Mem) Corrupt(off int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off >= 0 && off < int64(len(m.buf)) {
		m.buf[off] ^= 0x01
	}
}
