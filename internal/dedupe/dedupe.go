// Package dedupe provides the content-addressed block index behind
// PRINS's ship-by-reference fast path (wire protocol v8). Both ends of
// the replication path run one:
//
//   - The primary keeps an Index per attached replica recording which
//     (lba -> content hash) pairs it believes the replica holds — fed
//     by acknowledged ships and resync scans, invalidated by degraded
//     / diverged / dirty events. A hot-path Contains hit lets the
//     shipper send a by-ref entry, an entry header of about 11
//     bytes, instead of the parity frame.
//   - The replica keeps an Index over its own store so a by-ref push
//     can be materialized by local copy: Lookup resolves the shipped
//     hash to some LBA verifiably holding that content.
//
// The index is bounded: it tracks at most max LBAs and evicts the
// least recently touched one when full, so memory stays O(max)
// regardless of device size. It is refcounted by construction — the
// LBAs currently mapped to one hash form a ring the hash map points
// into, so a hash stays resolvable exactly while at least one tracked
// LBA holds its content. Correctness never depends on the index: a wrong primary
// entry costs a StatusRefMiss round trip and a by-value re-ship; a
// wrong replica entry is caught by hashing the candidate block before
// the copy.
package dedupe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// node is one tracked (lba, hash) pair: on the intrusive LRU list, and
// on the ring of the nodes that share its hash (a node alone on its ring
// is its own neighbour). Both are links in the node, so a Put that finds
// the LBA tracked, or evicts to make room, relinks a node it already
// has and allocates nothing.
type node struct {
	lba          uint64
	hash         uint64
	prev, next   *node // LRU list
	hprev, hnext *node // same-hash ring
}

// Index is a bounded, mutex-guarded map lba -> hash with a reverse
// hash -> LBA-set view and LRU eviction. The zero value is unusable;
// call New.
type Index struct {
	mu     sync.Mutex
	max    int
	byLBA  map[uint64]*node
	byHash map[uint64]*node // hash -> some node of the hash's ring
	// head is most recently used, tail least.
	head, tail *node

	hits, misses int64
}

// DefaultEntries is the index bound used when a caller enables dedupe
// without choosing one: at 16 bytes of key material per entry the
// default costs a few MiB and covers a build-tree-sized working set.
const DefaultEntries = 1 << 16

// New returns an index tracking at most max LBAs; max <= 0 selects
// DefaultEntries.
func New(max int) *Index {
	if max <= 0 {
		max = DefaultEntries
	}
	return &Index{
		max:    max,
		byLBA:  make(map[uint64]*node),
		byHash: make(map[uint64]*node),
	}
}

// Put records that lba holds the block whose content hash is hash,
// replacing any previous mapping for lba (the refcount of the old
// hash drops; at zero it stops resolving). A zero hash is the
// "unverified push" sentinel on the wire and is never indexed: Put
// with hash 0 just forgets the LBA.
func (x *Index) Put(lba, hash uint64) {
	if hash == 0 {
		x.Forget(lba)
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	n := x.byLBA[lba]
	switch {
	case n != nil && n.hash == hash:
		x.touch(n)
		return
	case n != nil:
		// The LBA changed content: the node moves rings and to the front.
		x.unring(n)
		x.unlink(n)
	default:
		for len(x.byLBA) >= x.max && x.tail != nil {
			n = x.tail // the node evicted last is the one reused
			x.dropLocked(n)
		}
		if n == nil {
			n = new(node)
		}
		n.lba = lba
		x.byLBA[lba] = n
	}
	n.hash = hash
	x.ring(n)
	x.pushFront(n)
}

// Forget drops the mapping for lba, if tracked. Call it when the
// block's replica-side content becomes unknown: a dropped frame, a
// diverged apply, a dirty mark.
func (x *Index) Forget(lba uint64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if n, ok := x.byLBA[lba]; ok {
		x.dropLocked(n)
	}
}

// ForgetHash drops every LBA currently mapped to hash. The primary
// calls it on a StatusRefMiss: the replica just proved it cannot
// resolve that content, so every mapping that promised it is stale.
func (x *Index) ForgetHash(hash uint64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for n := x.byHash[hash]; n != nil; n = x.byHash[hash] {
		x.dropLocked(n)
	}
}

// Contains reports whether at least one tracked LBA currently maps to
// hash — the primary-side hot-path consult. It counts a hit or miss.
func (x *Index) Contains(hash uint64) bool {
	if hash == 0 {
		return false
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.byHash[hash] != nil {
		x.hits++
		return true
	}
	x.misses++
	return false
}

// Lookup resolves hash to one LBA believed to hold that content — the
// replica-side materialization source. ok is false when no tracked LBA
// maps to hash. Unlike Contains it does not count hit/miss stats; the
// replica engine accounts outcomes after verifying the candidate.
func (x *Index) Lookup(hash uint64) (lba uint64, ok bool) {
	if hash == 0 {
		return 0, false
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	n := x.byHash[hash]
	if n == nil {
		return 0, false
	}
	x.touch(n)
	return n.lba, true
}

// Refs returns how many tracked LBAs currently map to hash.
func (x *Index) Refs(hash uint64) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	first := x.byHash[hash]
	if first == nil {
		return 0
	}
	refs := 1
	for n := first.hnext; n != first; n = n.hnext {
		refs++
	}
	return refs
}

// Len returns how many LBAs the index currently tracks.
func (x *Index) Len() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.byLBA)
}

// Stats returns the cumulative Contains hit and miss counts.
func (x *Index) Stats() (hits, misses int64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.hits, x.misses
}

// Reset forgets every mapping (but keeps the bound and the counters).
// The primary calls it when a replica degrades: nothing about the
// replica's content can be assumed until a resync re-warms the index.
func (x *Index) Reset() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.byLBA = make(map[uint64]*node)
	x.byHash = make(map[uint64]*node)
	x.head, x.tail = nil, nil
}

// dropLocked unlinks n from both maps, its ring and the LRU list.
func (x *Index) dropLocked(n *node) {
	delete(x.byLBA, n.lba)
	x.unring(n)
	x.unlink(n)
}

// ring links n into the ring of n.hash, which it starts if the hash is
// new.
func (x *Index) ring(n *node) {
	first := x.byHash[n.hash]
	if first == nil {
		n.hprev, n.hnext = n, n
		x.byHash[n.hash] = n
		return
	}
	n.hprev, n.hnext = first, first.hnext
	first.hnext.hprev = n
	first.hnext = n
}

// unring takes n off the ring of n.hash; the hash stops resolving when n
// was the ring's last node.
func (x *Index) unring(n *node) {
	switch {
	case n.hnext == n:
		delete(x.byHash, n.hash)
	case x.byHash[n.hash] == n:
		x.byHash[n.hash] = n.hnext
		fallthrough
	default:
		n.hprev.hnext, n.hnext.hprev = n.hnext, n.hprev
	}
	n.hprev, n.hnext = nil, nil
}

func (x *Index) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else if x.head == n {
		x.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else if x.tail == n {
		x.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (x *Index) pushFront(n *node) {
	n.next = x.head
	if x.head != nil {
		x.head.prev = n
	}
	x.head = n
	if x.tail == nil {
		x.tail = n
	}
}

func (x *Index) touch(n *node) {
	if x.head == n {
		return
	}
	x.unlink(n)
	x.pushFront(n)
}

// Snapshot record layout (big endian). A snapshot persists the index's
// (lba, hash) pairs so a restarted node can warm its index without
// rescanning the device:
//
//	off 0: magic "PDX2" (4)
//	off 4: count (uint32)
//	then, per record: lba (uint64), hash (uint64)
//
// The magic names the hash function as well as the layout: "PDX1"
// snapshots hold 64-bit FNV-1a hashes, which no block hashes to any
// more (iscsi.HashBlock is XXH64), so DecodeSnapshot refuses them with
// ErrBadSnapshot and the caller warms the index by scanning the device
// instead of loading entries that can never hit.
const (
	snapHdrLen   = 8
	snapEntryLen = 16
	// MaxSnapshotEntries bounds a decoded snapshot; larger is rejected
	// before allocation.
	MaxSnapshotEntries = 1 << 22
)

var snapMagic = [4]byte{'P', 'D', 'X', '2'}

// Snapshot decode errors.
var (
	// ErrShortSnapshot reports a truncated snapshot buffer.
	ErrShortSnapshot = errors.New("dedupe: truncated snapshot")
	// ErrBadSnapshot reports a structurally invalid snapshot (bad
	// magic, implausible count, trailing bytes, zero hash).
	ErrBadSnapshot = errors.New("dedupe: malformed snapshot")
)

// EncodeSnapshot serializes the index's current (lba, hash) pairs in
// LRU order, most recently used first, so a truncating reader keeps
// the hottest entries.
func (x *Index) EncodeSnapshot() []byte {
	x.mu.Lock()
	defer x.mu.Unlock()
	buf := make([]byte, snapHdrLen, snapHdrLen+snapEntryLen*len(x.byLBA))
	copy(buf[0:4], snapMagic[:])
	binary.BigEndian.PutUint32(buf[4:], uint32(len(x.byLBA)))
	for n := x.head; n != nil; n = n.next {
		var rec [snapEntryLen]byte
		binary.BigEndian.PutUint64(rec[0:], n.lba)
		binary.BigEndian.PutUint64(rec[8:], n.hash)
		buf = append(buf, rec[:]...)
	}
	return buf
}

// DecodeSnapshot parses a persisted snapshot into (lba, hash) pairs.
// Decoding is strict and bounded: the magic must match, the declared
// count must be in [0, MaxSnapshotEntries] and plausible for the
// buffer size before anything is allocated, every record fully
// present with a nonzero hash, and trailing bytes are rejected.
// Truncation reports ErrShortSnapshot and structural violations
// report ErrBadSnapshot — hostile input never panics or
// over-allocates.
func DecodeSnapshot(data []byte) ([]Record, error) {
	if len(data) < snapHdrLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrShortSnapshot, len(data))
	}
	if [4]byte(data[0:4]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	count := binary.BigEndian.Uint32(data[4:])
	if count > MaxSnapshotEntries {
		return nil, fmt.Errorf("%w: count %d", ErrBadSnapshot, count)
	}
	if uint64(len(data)-snapHdrLen) < uint64(count)*snapEntryLen {
		return nil, fmt.Errorf("%w: %d records cannot fit in %d bytes", ErrShortSnapshot, count, len(data))
	}
	if len(data)-snapHdrLen != int(count)*snapEntryLen {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(data)-snapHdrLen-int(count)*snapEntryLen)
	}
	recs := make([]Record, 0, count)
	off := snapHdrLen
	for k := uint32(0); k < count; k++ {
		r := Record{
			LBA:  binary.BigEndian.Uint64(data[off:]),
			Hash: binary.BigEndian.Uint64(data[off+8:]),
		}
		if r.Hash == 0 {
			return nil, fmt.Errorf("%w: record %d with zero hash", ErrBadSnapshot, k)
		}
		recs = append(recs, r)
		off += snapEntryLen
	}
	return recs, nil
}

// Record is one persisted (lba, hash) pair.
type Record struct {
	LBA  uint64
	Hash uint64
}

// Load replays snapshot records into the index (subject to the bound;
// records beyond it evict older ones, so feed hottest-first as
// EncodeSnapshot emits them — Load reverses to preserve LRU order).
func (x *Index) Load(recs []Record) {
	for i := len(recs) - 1; i >= 0; i-- {
		x.Put(recs[i].LBA, recs[i].Hash)
	}
}
