// Package cdp implements the continuous-data-protection extension the
// paper's conclusion ships alongside PRINS (and develops fully in the
// authors' TRAP-Array work [ISCA'06]): because every write's forward
// parity P'_i = A_i XOR A_(i-1) is already computed and replicated, a
// node that simply keeps the parity chain can recover any block — and
// hence the whole volume — to any past point in time:
//
//	A_(i-1) = A_i XOR P'_i        (undo, walking the chain backward)
//
// The Store wrapper records one encoded parity per write; Log.Recover
// rolls a store back to an arbitrary sequence number. The parity
// records are the same sparse frames PRINS ships, so the history costs
// a fraction of full-block journaling (the headline of TRAP).
package cdp

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"prins/internal/block"
	"prins/internal/parity"
	"prins/internal/xcode"
)

// Record is one write's undo information.
type Record struct {
	// Seq is the global write sequence number (1-based, ascending).
	Seq uint64
	// LBA is the block the write hit.
	LBA uint64
	// Frame is the encoded forward parity of the write.
	Frame []byte
}

// Log accumulates parity records. Safe for concurrent use.
type Log struct {
	mu        sync.Mutex
	blockSize int
	records   []Record
	seq       uint64
	codec     xcode.Codec
}

// Log errors.
var (
	ErrFutureSeq = errors.New("cdp: target sequence is in the future")
	ErrWrongSize = errors.New("cdp: block size mismatch")
)

// NewLog creates a log for blocks of the given size.
func NewLog(blockSize int) *Log {
	return &Log{blockSize: blockSize, codec: xcode.CodecZRL}
}

// Append records the parity of one write and returns its sequence
// number.
func (l *Log) Append(lba uint64, fp []byte) (uint64, error) {
	if len(fp) != l.blockSize {
		return 0, fmt.Errorf("%w: parity %d bytes, block %d", ErrWrongSize, len(fp), l.blockSize)
	}
	frame, err := xcode.Encode(l.codec, fp)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	l.records = append(l.records, Record{Seq: l.seq, LBA: lba, Frame: frame})
	return l.seq, nil
}

// Seq returns the latest sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Len returns the number of records retained.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// Bytes returns the total encoded size of the retained history — the
// space cost of point-in-time protection.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, r := range l.records {
		total += int64(len(r.Frame))
	}
	return total
}

// snapshotAfter returns copies of records with Seq > seq, ascending.
func (l *Log) snapshotAfter(seq uint64) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := sort.Search(len(l.records), func(i int) bool { return l.records[i].Seq > seq })
	out := make([]Record, len(l.records)-idx)
	copy(out, l.records[idx:])
	return out
}

// Recover rolls store back to the state as of sequence number toSeq
// (0 = before any logged write) by undoing newer records in reverse
// order. The store must be at the log's head state.
func (l *Log) Recover(store block.Store, toSeq uint64) error {
	if store.BlockSize() != l.blockSize {
		return fmt.Errorf("%w: store %d, log %d", ErrWrongSize, store.BlockSize(), l.blockSize)
	}
	if toSeq > l.Seq() {
		return fmt.Errorf("%w: %d > %d", ErrFutureSeq, toSeq, l.Seq())
	}
	undo := l.snapshotAfter(toSeq)
	buf := make([]byte, l.blockSize)
	for i := len(undo) - 1; i >= 0; i-- {
		rec := undo[i]
		if err := store.ReadBlock(rec.LBA, buf); err != nil {
			return fmt.Errorf("cdp: read lba %d: %w", rec.LBA, err)
		}
		// Fold the parity straight into the block: no decoded copy, and a
		// frame declaring any size but the block's is refused.
		if err := xcode.XORInto(buf, rec.Frame); err != nil {
			return fmt.Errorf("cdp: decode seq %d: %w", rec.Seq, err)
		}
		if err := store.WriteBlock(rec.LBA, buf); err != nil {
			return fmt.Errorf("cdp: write lba %d: %w", rec.LBA, err)
		}
	}
	return nil
}

// RecoverInto materializes the state as of toSeq into dst without
// touching the live store: dst starts as a copy of the head state and
// is rolled back.
func (l *Log) RecoverInto(dst, head block.Store, toSeq uint64) error {
	if err := block.Copy(dst, head); err != nil {
		return err
	}
	return l.Recover(dst, toSeq)
}

// Truncate drops records with Seq <= upTo, releasing history the
// operator no longer needs (bounding the protection window).
func (l *Log) Truncate(upTo uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := sort.Search(len(l.records), func(i int) bool { return l.records[i].Seq > upTo })
	l.records = append([]Record(nil), l.records[idx:]...)
}

// Store wraps a block.Store so that every write is recorded in the
// log before it lands — a TRAP-protected volume. It implements
// block.Store.
type Store struct {
	mu    sync.Mutex
	inner block.Store
	log   *Log
	old   []byte
	fp    []byte
}

var _ block.Store = (*Store)(nil)

// NewStore wraps inner with parity journaling into log.
func NewStore(inner block.Store, log *Log) (*Store, error) {
	if inner.BlockSize() != log.blockSize {
		return nil, fmt.Errorf("%w: store %d, log %d", ErrWrongSize, inner.BlockSize(), log.blockSize)
	}
	return &Store{
		inner: inner,
		log:   log,
		old:   make([]byte, inner.BlockSize()),
		fp:    make([]byte, inner.BlockSize()),
	}, nil
}

// ReadBlock implements block.Store.
func (s *Store) ReadBlock(lba uint64, buf []byte) error {
	return s.inner.ReadBlock(lba, buf)
}

// WriteBlock implements block.Store: journal the parity, then write.
func (s *Store) WriteBlock(lba uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.inner.ReadBlock(lba, s.old); err != nil {
		return err
	}
	if err := parity.ForwardInto(s.fp, data, s.old); err != nil {
		return err
	}
	if _, err := s.log.Append(lba, s.fp); err != nil {
		return err
	}
	return s.inner.WriteBlock(lba, data)
}

// BlockSize implements block.Store.
func (s *Store) BlockSize() int { return s.inner.BlockSize() }

// NumBlocks implements block.Store.
func (s *Store) NumBlocks() uint64 { return s.inner.NumBlocks() }

// Close implements block.Store.
func (s *Store) Close() error { return s.inner.Close() }

// Log returns the underlying parity log.
func (s *Store) Log() *Log { return s.log }
