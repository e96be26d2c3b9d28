package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"prins/internal/block"
	"prins/internal/dedupe"
	"prins/internal/iscsi"
	"prins/internal/journal"
	"prins/internal/metrics"
	"prins/internal/xcode"
)

// streamKey packs a (vol, shard) replication stream tag into one map
// key. The zero key is the default stream untagged pushes
// apply against.
func streamKey(shard uint8, vol uint16) uint32 {
	return uint32(vol)<<8 | uint32(shard)
}

// seqWindowSize is how many sequence numbers at and below the highest
// applied one a stream remembers one by one. It bounds how far apart
// the seqs a primary keeps in flight on one stream may lie: the ship
// window admits a run only while every in-flight seq stays within half
// of it (see admit in pipeline.go).
const seqWindowSize = 1024

// seqWindow is a stream's sliding anti-replay window, the RFC 4303
// section 3.4.3 shape: the highest seq applied, and one bit per seq in
// (max-seqWindowSize, max] saying whether that seq was applied. A
// synchronous primary keeps several pushes of one stream in flight and
// they arrive in any order, so "at or below the highest seq" no longer
// means "already applied"; only a set bit, or a seq that fell out of
// the window, does. Seq 0 is the unsequenced push: never seen, never
// marked. The bitmap is circular (seq s lives at bit s mod
// seqWindowSize), so sliding clears the slots the new seqs take over
// instead of shifting words.
type seqWindow struct {
	max  uint64
	bits [seqWindowSize / 64]uint64
}

// slot returns the bitmap word and mask seq lives at.
func (w *seqWindow) slot(seq uint64) (*uint64, uint64) {
	return &w.bits[seq%seqWindowSize/64], 1 << (seq % 64)
}

// seen reports whether seq must be acknowledged as a duplicate: applied
// and still in the window, or so far below max that it can only be one.
func (w *seqWindow) seen(seq uint64) bool {
	if seq == 0 || seq > w.max {
		return false
	}
	if w.max-seq >= seqWindowSize {
		return true
	}
	word, mask := w.slot(seq)
	return *word&mask != 0
}

// mark records seq as applied, sliding the window up to it when it is
// the new maximum.
func (w *seqWindow) mark(seq uint64) {
	if seq == 0 || (seq <= w.max && w.max-seq >= seqWindowSize) {
		return
	}
	if seq > w.max {
		// The slots the window slides over still hold the bits of seqs
		// a whole window older.
		if seq-w.max >= seqWindowSize {
			w.bits = [seqWindowSize / 64]uint64{}
		} else {
			for s := w.max + 1; s < seq; s++ {
				word, mask := w.slot(s)
				*word &^= mask
			}
		}
		w.max = seq
	}
	word, mask := w.slot(seq)
	*word |= mask
}

// replicaStream is one (vol, shard) replication stream's apply state:
// its own dedupe window and staging scratch, behind its own lock, so
// streams with disjoint LBA ranges apply concurrently. The merge-layer
// ordering rule: within a stream the primary never has two pushes
// carrying the same LBA in flight at once, so pushes that overlap in
// time commute (DESIGN.md, "Ordering on a stream", says what that
// promises the application in sync and in async mode); order across
// streams is undefined, which is safe because shards own disjoint LBA
// ranges.
type replicaStream struct {
	mu  sync.Mutex
	win seqWindow

	// One push's staging scratch, reused from push to push so a
	// steady-state apply allocates nothing. All of it is guarded by mu,
	// starts nil and grows to what the largest push so far needed.
	// slots[i] is the block-sized buffer the i-th surviving entry of the
	// push in progress is recovered into; nothing reads a slot once the
	// push that filled it has returned.
	slots      [][]byte
	order      []int
	pass       []staged
	pendingNew map[uint64]int // lba -> index into pass of its newest staged block
	jes        []journal.Entry
	rebuilt    []byte   // the parity frame a mask frame's landing rebuilds
	checks     []uint64 // a squeezed push's recomputed checks, by entry
	digest     []byte   // and the digest's input
}

// stagingSlot returns staging slot i, a buffer of one block, allocating
// it on first use. Slots are handed out in order, so i is at most
// len(slots).
func (st *replicaStream) stagingSlot(i, blockSize int) []byte {
	if i == len(st.slots) {
		st.slots = append(st.slots, make([]byte, blockSize))
	}
	return st.slots[i]
}

// ReplicaEngine is the replica-side PRINS engine: it receives encoded
// frames pushed by a primary, recovers the data block, and stores it
// in place at the same LBA. For ModePRINS frames that means the
// backward parity computation A_new = P' XOR A_old against the
// replica's own old copy, which exists because replication starts from
// an initial sync.
//
// A sharded primary ships one seq stream per (vol, shard); the engine
// keeps an independent dedupe window per stream (the merge layer), so
// interleaved streams over one session never trip each other's
// seq-dedupe. Untagged pushes apply against the zero stream, which is
// exactly the pre-sharding behaviour.
//
// It implements iscsi.Backend and both its push extensions, entry
// lists and squeezed lists, so a replica node simply exports it through
// a target; it also applies frames directly via ApplyStream for
// in-process (loopback) replication.
type ReplicaEngine struct {
	store block.Store
	m     metrics.Bank // applies, decode time, duplicates, by-ref outcomes, diverged applies

	// mu serializes direct (non-replication) writes: the initial sync
	// and resync repairs. Stream applies do not take it — repairs must
	// be quiesced per the recovery lifecycle (Drain → resync →
	// ClearDegraded) before they may touch LBAs with applies in flight.
	mu sync.Mutex

	// streamsMu guards the stream table only; each stream has its own
	// apply lock.
	streamsMu sync.Mutex
	streams   map[uint32]*replicaStream

	// jrnl, when non-nil, is the crash-safe apply journal: the decoded
	// new block is persisted (Begin) before the in-place store write
	// and cleared (Commit) after, so a write torn by a crash — fatal
	// under PRINS, where the block would be neither A_old nor A_new
	// and poison every later XOR — is healed by replaying the journal.
	// The journal is single-slot, so journaled applies serialize on
	// jmu across all streams (the durable write per apply is the
	// bottleneck anyway); jmu is always acquired before any stream
	// lock.
	//
	//lint:lockorder core.ReplicaEngine.jmu < core.ReplicaEngine.streamsMu the journal serializes applies; the stream table is looked up inside the journaled section
	//lint:lockorder core.ReplicaEngine.jmu < core.replicaStream.mu per-stream state is updated inside the journaled apply
	jrnl *journal.Journal
	jmu  sync.Mutex
	// replay is set when a Begin was recorded but the store write or Commit
	// did not; the next Apply replays the journal before proceeding.
	// Guarded by jmu.
	replay bool

	// dedupe, when non-nil, is the content-addressed index over this
	// replica's own store: every verified apply records (lba -> hash),
	// so a by-ref push can be materialized by local copy.
	// The index is advisory — a candidate block is re-hashed before it
	// is copied, so a stale entry costs a StatusRefMiss, never a wrong
	// block. Set before the engine is shared (SetDedupe); the Index has
	// its own lock.
	dedupe *dedupe.Index
}

var (
	_ iscsi.Backend            = (*ReplicaEngine)(nil)
	_ iscsi.StreamBatchBackend = (*ReplicaEngine)(nil)
	_ iscsi.SqueezeBackend     = (*ReplicaEngine)(nil)
)

// NewReplicaEngine wraps the replica's local store with no journal;
// applies are not crash-safe. Use NewReplicaEngineJournaled for the
// durable variant.
func NewReplicaEngine(store block.Store) *ReplicaEngine {
	return &ReplicaEngine{
		store:   store,
		streams: make(map[uint32]*replicaStream),
		dedupe:  dedupe.New(0),
	}
}

// SetDedupe bounds (entries > 0) or disables (entries <= 0) the
// replica's content-addressed index. Call before the engine is shared.
// A replica without an index refuses every reference with
// StatusRefMiss, which the primary transparently repairs by re-shipping
// the frame — so disabling dedupe is always safe, just slower.
func (r *ReplicaEngine) SetDedupe(entries int) {
	if entries <= 0 {
		r.dedupe = nil
		return
	}
	r.dedupe = dedupe.New(entries)
}

// DedupeIndex returns the replica's content index, or nil when dedupe
// is disabled.
func (r *ReplicaEngine) DedupeIndex() *dedupe.Index { return r.dedupe }

// WarmDedupe scans the replica's store and indexes every block's
// content hash (subject to the index bound), so a freshly restarted
// replica resolves by-ref pushes without waiting for live applies to
// repopulate the index. Call before the engine is shared or with
// applies quiesced.
func (r *ReplicaEngine) WarmDedupe() error {
	if r.dedupe == nil {
		return nil
	}
	buf := make([]byte, r.store.BlockSize())
	for lba := uint64(0); lba < r.store.NumBlocks(); lba++ {
		if err := r.store.ReadBlock(lba, buf); err != nil {
			return fmt.Errorf("core: dedupe warm lba %d: %w", lba, err)
		}
		r.dedupe.Put(lba, iscsi.HashBlock(buf))
	}
	return nil
}

// indexApply records a verified apply in the content index. A zero
// hash (unverified push) forgets the LBA instead — its content is no
// longer something the index can vouch for.
func (r *ReplicaEngine) indexApply(lba, hash uint64) {
	if r.dedupe != nil {
		r.dedupe.Put(lba, hash)
	}
}

// NewReplicaEngineJournaled wraps the replica's local store with a
// crash-safe apply journal and immediately replays any intent a crash
// left behind, restoring the invariant that every block holds either
// its pre-image or its fully-applied new content before the first
// push arrives.
func NewReplicaEngineJournaled(store block.Store, jrnl *journal.Journal) (*ReplicaEngine, error) {
	r := NewReplicaEngine(store)
	r.jrnl = jrnl
	r.jmu.Lock()
	err := r.replayJournal()
	r.jmu.Unlock()
	if err != nil {
		return nil, err
	}
	return r, nil
}

// stream returns the (vol, shard) stream's state, creating it on first
// use.
func (r *ReplicaEngine) stream(shard uint8, vol uint16) *replicaStream {
	key := streamKey(shard, vol)
	r.streamsMu.Lock()
	defer r.streamsMu.Unlock()
	st, ok := r.streams[key]
	if !ok {
		st = new(replicaStream)
		r.streams[key] = st
	}
	return st
}

// replayJournal redoes the journaled intent, if any — one entry for a
// single-slot record, every entry of a group record. Called with r.jmu
// held (or before the engine is shared) and no stream lock held — each
// entry's seq is marked in its stream's window under that stream's own
// lock.
// Replay is an idempotent whole-block rewrite, so replaying an intent
// whose store writes had in fact completed (in full or in part) is
// harmless.
func (r *ReplicaEngine) replayJournal() error {
	entries, err := r.jrnl.PendingEntries()
	if err != nil {
		return fmt.Errorf("core: replica journal: %w", err)
	}
	r.replay = false
	if len(entries) == 0 {
		return nil
	}
	for i := range entries {
		if len(entries[i].Block) != r.store.BlockSize() {
			return fmt.Errorf("core: replica journal: entry is %d bytes, block size %d",
				len(entries[i].Block), r.store.BlockSize())
		}
	}
	for i := range entries {
		e := &entries[i]
		if err := r.store.WriteBlock(e.LBA, e.Block); err != nil {
			r.replay = true // keep the intent; try again next apply
			return fmt.Errorf("core: replica journal replay lba %d: %w: %w",
				e.LBA, iscsi.ErrReplicaStore, err)
		}
	}
	if err := r.jrnl.Commit(); err != nil {
		r.replay = true
		return fmt.Errorf("core: replica journal replay: %w", err)
	}
	// The journaled seqs were applied; marking them in each stream's
	// window makes the primary's redelivery of them dedupe instead of
	// double-XORing.
	for i := range entries {
		e := &entries[i]
		st := r.stream(e.Shard, e.Vol)
		st.mu.Lock()
		st.win.mark(e.Seq)
		st.mu.Unlock()
		r.m.Add(metrics.ReplicaWrites, 1)
		r.indexApply(e.LBA, e.Hash)
	}
	return nil
}

// Traffic returns the replica's traffic view (decode time, applied
// writes, duplicates, by-ref outcomes, diverged applies).
func (r *ReplicaEngine) Traffic() metrics.Traffic { return r.m.Traffic() }

// LastSeq returns the highest sequence number applied on the default
// (zero) stream.
func (r *ReplicaEngine) LastSeq() uint64 { return r.StreamLastSeq(0, 0) }

// StreamLastSeq returns the highest sequence number applied on the
// (vol, shard) stream.
func (r *ReplicaEngine) StreamLastSeq(shard uint8, vol uint16) uint64 {
	st := r.stream(shard, vol)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.win.max
}

// Store returns the underlying replica store (read-only use expected).
func (r *ReplicaEngine) Store() block.Store { return r.store }

// ApplyStream applies one replication frame against the (vol, shard)
// stream's sequence space — a push of one entry; see applyGroup for
// what an apply does. A single-frame push has no reference form, so an
// empty frame is a decode failure. The error wraps the failure class
// (iscsi.ErrDiverged, iscsi.ErrReplicaDecode, iscsi.ErrReplicaStore,
// block.ErrBadBufSize, block.ErrOutOfRange) that statusOf maps onto
// the wire.
func (r *ReplicaEngine) ApplyStream(mode Mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	if len(frame) == 0 {
		return fmt.Errorf("core: replica decode seq %d: %w: empty frame", seq, iscsi.ErrReplicaDecode)
	}
	entries := [1]iscsi.BatchEntry{{Seq: seq, LBA: lba, Hash: hash, Frame: frame}}
	var failed error
	r.applyGroup(mode, shard, vol, entries[:], nil, func(_ int, err error) { failed = err })
	return failed
}

// ApplyBatchStream applies a batched push against the (vol, shard)
// stream and returns one status per entry, in the caller's order: one
// refused entry (diverged, decode, store, ref-miss) reports its own
// status without failing its batch-mates. See applyGroup.
func (r *ReplicaEngine) ApplyBatchStream(mode Mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) []iscsi.Status {
	return r.applyStatuses(mode, shard, vol, entries, nil)
}

// applyStatuses is applyGroup at the wire boundary: statuses for
// errors. digest is a squeezed push's digest (nil for a plain push).
// The status vector is the one allocation of a steady-state push.
func (r *ReplicaEngine) applyStatuses(mode Mode, shard uint8, vol uint16, entries []iscsi.BatchEntry, digest *uint64) []iscsi.Status {
	statuses := make([]iscsi.Status, len(entries)) // StatusOK until an entry fails
	r.applyGroup(mode, shard, vol, entries, digest, func(k int, err error) { statuses[k] = statusOf(err) })
	return statuses
}

// refuseAll answers every entry of a push the replica will not look at
// with the same status.
func refuseAll(n int, st iscsi.Status) []iscsi.Status {
	statuses := make([]iscsi.Status, n)
	for i := range statuses {
		statuses[i] = st
	}
	return statuses
}

// staged is one entry of a push that passed staging: the full new block
// it leaves at entries[k].LBA, recovered and verified in one of the
// stream's staging slots but not yet written. block is nil once the
// entry's own store write has failed.
type staged struct {
	k     int // index into the push's entries
	block []byte
	hash  uint64 // block's content hash, what the journal and the index record
}

// applyGroup is the replica's one apply path: it applies a push of
// entries against the (vol, shard) stream and reports each refused or
// failed entry to fail, by its index (an entry fail never hears of was
// applied, or acknowledged as a duplicate). A single write is a push of
// one, which costs no sort and no map, and a steady-state push of any
// size allocates nothing: its scratch is the stream's. The push becomes
// durable as one unit:
//
//  1. Stage, in ascending seq order (the primary ships seq-sorted
//     already, so the stable re-sort is normally a no-op). Dedupe
//     against the stream's window: an entry whose seq is marked there
//     (or has aged out of it) is a redelivery whose first copy was
//     already applied (the ack was lost, not the push) and is acknowledged
//     without being re-applied — essential in ModePRINS, where XOR-ing
//     the same parity twice would corrupt the block rather than no-op.
//     A seq below the stream's highest that is NOT marked is new: a
//     synchronous primary keeps several pushes of a stream in flight
//     and they land in any order. Then recover the full new block (see
//     stage) or, for a reference, materialize it from the content
//     index, into the stream's next staging slot. Refused entries are
//     reported here and drop out, and their slot is reused; nothing has
//     touched the store or the journal yet.
//  2. One journal Begin covers every surviving entry — the single-slot
//     record for one, a group record (one CRC pass, one sync) for more.
//  3. In-place store writes in seq order.
//  4. One journal Commit clears the intent.
//
// Crash safety is all-commit-or-all-replay: after the Begin, a crash
// (or store failure) anywhere before Commit leaves the whole push
// journaled, and the next apply — or restart — replays every entry as
// an idempotent whole-block rewrite, so the store can never be left
// holding a torn block or a torn suffix of the push.
//
// The reference rule is ref-miss poisoning: the first entry whose hash the
// index cannot verifiably resolve is refused with iscsi.ErrRefMiss —
// and so is every later entry of the push: the initiator re-ships the
// refused suffix as one by-value push with the SAME sequence numbers.
// Those seqs were never marked, so the repair reads as new however far
// other pushes have moved the window's maximum meanwhile.
//
// A squeezed push (digest non-nil; iscsi's squeeze.go) carries no
// per-entry hashes: phase 1 stages every by-value entry, those behind a
// reference it could not resolve included, recomputing each one's
// check from the block it staged — its hash, or for a twin its hash
// XOR the rebuilt frame's — and the push goes on to phase 2 only when
// HashBlock of those checks, in entry order, is the digest sent. A
// push it cannot verify — a mismatch, a duplicate (whose pre-image is
// gone), an entry that does not stage, or one whose pre-image is a
// reference it could not resolve — is refused whole with
// iscsi.ErrUnverified, before the store, the journal or the window is
// touched, and the primary re-ships it plain. A verified push with a
// reference miss applies its prefix and refuses its suffix as a plain
// push does.
//
// Nothing of entries — the slice or a Frame — is referenced once
// applyGroup has returned: a staged block is a copy in a slot, and the
// journal and the store copy what they are given.
func (r *ReplicaEngine) applyGroup(mode Mode, shard uint8, vol uint16, entries []iscsi.BatchEntry, digest *uint64, fail func(k int, err error)) {
	failAll := func(err error) {
		for k := range entries {
			fail(k, err)
		}
	}
	if !mode.Valid() {
		failAll(fmt.Errorf("core: replica: invalid mode %d", uint8(mode)))
		return
	}
	if r.jrnl != nil {
		// The single-slot journal serializes journaled applies; taking
		// jmu before the stream lock also lets replay lock any stream.
		r.jmu.Lock()
		defer r.jmu.Unlock()
		if r.replay {
			if err := r.replayJournal(); err != nil {
				failAll(err)
				return
			}
		}
	}
	st := r.stream(shard, vol)
	st.mu.Lock()
	defer st.mu.Unlock()
	start := time.Now()
	defer func() { r.m.Add(metrics.DecodeNanos, int64(time.Since(start))) }()

	// Phase 1: stage. Entries stage in ascending seq, so an in-push
	// duplicate sits right behind its first copy: prev, the seq staged
	// last, dedupes it exactly as the window would had that copy been a
	// push of its own; the window itself is only marked once the push
	// is durable. pendingNew serves a staged same-LBA predecessor as
	// the PRINS pre-image, exactly as if it had already been applied.
	squeezed := digest != nil
	var order []int
	if len(entries) > 1 || squeezed {
		order = st.order[:0]
		for i := range entries {
			order = append(order, i)
		}
		st.order = order
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(entries[a].Seq, entries[b].Seq) })
		if st.pendingNew == nil {
			st.pendingNew = make(map[uint64]int)
		}
	}
	clear(st.pendingNew) // the previous push's
	checks := st.checks
	if squeezed {
		checks = slices.Grow(checks[:0], len(entries))[:len(entries)]
		st.checks = checks
	}
	pass := st.pass[:0]
	var prev uint64
	var dups, hits, misses int64
	missAt, kept := len(entries), 0 // a squeezed push's first reference miss, in stage order, and the entries staged before it
	for i := range entries {
		k := i
		if order != nil {
			k = order[i]
		}
		e := &entries[k]
		ref := e.ByRef()
		if i > missAt && ref {
			st.pendingNew[e.LBA] = -1 // refused with the miss: its block is unknown
			continue
		}
		if e.Seq != 0 && (e.Seq == prev || st.win.seen(e.Seq)) {
			if squeezed {
				failAll(errUnverified)
				return
			}
			dups++
			continue
		}
		var newBlock []byte
		hash := e.Hash
		if ref {
			newBlock = st.stagingSlot(len(pass), r.store.BlockSize())
			if !r.resolveRef(e.Hash, newBlock) {
				misses++
				if squeezed {
					// The by-value entries behind the miss still stage,
					// for their checks; none of them is applied.
					missAt, kept = i, len(pass)
					if order != nil {
						st.pendingNew[e.LBA] = -1
					}
					continue
				}
				miss := fmt.Errorf("core: replica seq %d lba %d: %w", e.Seq, e.LBA, iscsi.ErrRefMiss)
				fail(k, miss)
				if order != nil {
					for _, rest := range order[i+1:] {
						fail(rest, miss)
					}
				}
				break
			}
			hits++
		} else {
			var pre []byte
			if p, ok := st.pendingNew[e.LBA]; ok {
				if p < 0 { // only a squeezed push's miss marks an LBA unknown
					failAll(errUnverified)
					return
				}
				pre = pass[p].block
			}
			var check uint64
			var err error
			if newBlock, hash, check, err = r.stage(mode, st, e, len(pass), pre, squeezed); err != nil {
				if squeezed {
					failAll(errUnverified)
					return
				}
				fail(k, err)
				continue
			}
			if squeezed {
				checks[k] = check
			}
		}
		prev = e.Seq
		if order != nil {
			st.pendingNew[e.LBA] = len(pass)
		}
		pass = append(pass, staged{k: k, block: newBlock, hash: hash})
	}
	st.pass = pass // keep what it grew to
	if squeezed {
		in := st.digest[:0]
		for k := range entries {
			if !entries[k].ByRef() {
				in = binary.BigEndian.AppendUint64(in, checks[k])
			}
		}
		st.digest = in
		if iscsi.HashBlock(in) != *digest {
			failAll(errUnverified)
			return
		}
		if missAt < len(entries) {
			e := &entries[order[missAt]]
			miss := fmt.Errorf("core: replica seq %d lba %d: %w", e.Seq, e.LBA, iscsi.ErrRefMiss)
			for _, rest := range order[missAt:] {
				fail(rest, miss)
			}
			pass = pass[:kept]
		}
	}
	r.m.Add(metrics.Duplicates, dups)
	r.m.Add(metrics.DedupeHits, hits)
	r.m.Add(metrics.DedupeMisses, misses)
	if len(pass) == 0 {
		return
	}
	storeFail := func(failed []staged, what string, err error) {
		werr := fmt.Errorf("core: replica %s seq %d: %w: %w", what, entries[failed[0].k].Seq, iscsi.ErrReplicaStore, err)
		for _, p := range failed {
			fail(p.k, werr)
		}
	}

	// Phase 2: one intent for the whole push. A failed Begin never
	// reached the journal (a torn one is discarded by replay), so nothing was
	// written: fail the survivors with no replay owed.
	if r.jrnl != nil {
		var err error
		if len(pass) == 1 {
			e := &entries[pass[0].k]
			err = r.jrnl.BeginStream(shard, vol, e.Seq, e.LBA, pass[0].hash, pass[0].block)
		} else {
			jes := st.jes[:0]
			for _, p := range pass {
				e := &entries[p.k]
				jes = append(jes, journal.Entry{Seq: e.Seq, LBA: e.LBA, Hash: p.hash, Shard: shard, Vol: vol, Block: p.block})
			}
			st.jes = jes
			err = r.jrnl.BeginGroupStream(shard, vol, jes)
		}
		if err != nil {
			storeFail(pass, "journal", err)
			return
		}
	}

	// Phase 3: in-place writes, seq order.
	for i, p := range pass {
		if err := r.store.WriteBlock(entries[p.k].LBA, p.block); err != nil {
			if r.jrnl == nil {
				// Unjournaled applies keep per-entry independence: each
				// staged block is a full rewrite, so a failed push-mate
				// cannot corrupt a later one.
				storeFail(pass[i:i+1], "write", err)
				pass[i].block = nil
				continue
			}
			// The intent stays journaled: the written prefix is durable,
			// and every entry — this one included — is replayed before
			// the next apply touches the store. Counters and the window
			// advance then; counting the written prefix here would
			// double-count it.
			r.replay = true
			storeFail(pass[i:], "write", err)
			return
		}
	}

	// Phase 4: one Commit clears the intent. If it fails the intent
	// stays; replay rewrites the push and marks its seqs, after which
	// redelivery dedupes.
	if r.jrnl != nil {
		if err := r.jrnl.Commit(); err != nil {
			r.replay = true
			storeFail(pass, "journal commit", err)
			return
		}
	}
	for _, p := range pass {
		if p.block == nil {
			continue
		}
		e := &entries[p.k]
		r.m.Add(metrics.ReplicaWrites, 1)
		r.indexApply(e.LBA, p.hash)
		st.win.mark(e.Seq)
	}
}

// errFrameSize refuses a frame whose declared length is not the block
// size. It is one value, not a formatted one: a hostile batch of such
// frames is refused entry by entry without allocating.
var errFrameSize = fmt.Errorf("core: replica: frame's declared length is not the block size: %w", block.ErrBadBufSize)

// errUnverified refuses every entry of a squeezed push the replica
// could not verify against its digest (see applyGroup).
var errUnverified = fmt.Errorf("core: replica: squeezed push not verified: %w", iscsi.ErrUnverified)

// stage recovers the full new block a by-value entry leaves at its LBA
// into the stream's staging slot slot, without touching the store, and
// returns it with its content hash and its check, the value a squeezed
// push's digest folds for it. The frame's declared length is checked
// against the block size before a slot is taken or a byte is decoded:
// the length field of a five-byte frame may claim anything up to
// xcode.MaxBlockLen. A ModePRINS entry's pre-image — pre, the block a
// same-LBA predecessor of the same push staged, or else the store's —
// is read straight into the slot and the frame folded into it: the
// backward parity computation A_new = P' XOR A_old, at a cost
// proportional to the bytes the write changed. Called with st.mu held.
//
// An entry of a plain push is verified here against its hash: a
// mismatch returns an error wrapping iscsi.ErrDiverged. In ModePRINS it
// means the replica's pre-image already differs from what the primary
// XORed against, so writing the recovered block would replace silent
// corruption with fresh silent corruption. The primary marks the LBA
// dirty and repairs it with a ranged resync instead. An entry of a
// squeezed push (squeezed set) carries no hash; its check is returned
// for applyGroup to fold into the digest, and nothing is compared here.
//
// A CodecMask frame (a squeezed list's masked twin of a parity frame)
// lands A_new's bytes on the pre-image instead of XORing, and rebuilds
// the parity frame from the bytes it overwrote (xcode.MaskInto). Its
// check is HashBlock(A_new) XOR HashBlock(the rebuilt frame), which
// equals the primary's HashBlock(A_new) XOR HashBlock(the parity frame
// it built) only when the pre-image was right: a pre-image byte that
// differs under the mask changes the rebuilt frame, one that differs
// elsewhere changes the block, and either is diverged, exactly as under
// the XOR. A plain push's mask is verified against its hash field as a
// check — a zero check is no escape — and the hash returned is always
// the block's, never the check.
func (r *ReplicaEngine) stage(mode Mode, st *replicaStream, e *iscsi.BatchEntry, slot int, pre []byte, squeezed bool) (newBlock []byte, hash, check uint64, err error) {
	n, err := xcode.DecodedLen(e.Frame)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core: replica decode seq %d: %w: %w", e.Seq, iscsi.ErrReplicaDecode, err)
	}
	if n != r.store.BlockSize() {
		return nil, 0, 0, errFrameSize
	}
	mask := xcode.Codec(e.Frame[0]) == xcode.CodecMask // a frame with a length has a codec
	if mask && mode != ModePRINS {
		return nil, 0, 0, fmt.Errorf("core: replica decode seq %d: %w: a mask frame in mode %v", e.Seq, iscsi.ErrReplicaDecode, mode)
	}
	newBlock = st.stagingSlot(slot, n)
	if mode == ModePRINS {
		if pre != nil {
			copy(newBlock, pre)
		} else if err := r.store.ReadBlock(e.LBA, newBlock); err != nil {
			return nil, 0, 0, fmt.Errorf("core: replica read old seq %d: %w", e.Seq, err)
		}
		if mask {
			st.rebuilt, err = xcode.MaskInto(newBlock, e.Frame, st.rebuilt[:0])
		} else {
			err = xcode.XORInto(newBlock, e.Frame)
		}
	} else {
		err = xcode.DecodeInto(newBlock, e.Frame)
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core: replica decode seq %d: %w: %w", e.Seq, iscsi.ErrReplicaDecode, err)
	}
	if !squeezed && !mask && e.Hash == 0 {
		return newBlock, 0, 0, nil // unverified
	}
	hash = iscsi.HashBlock(newBlock)
	check = hash
	if mask {
		check ^= iscsi.HashBlock(st.rebuilt)
	}
	if !squeezed && check != e.Hash {
		r.m.Add(metrics.Diverged, 1)
		return nil, 0, 0, fmt.Errorf("core: replica apply seq %d lba %d: %w: check %016x, primary sent %016x",
			e.Seq, e.LBA, iscsi.ErrDiverged, check, e.Hash)
	}
	return newBlock, hash, check, nil
}

// HandleReplicaBatchStream implements iscsi.StreamBatchBackend: the
// wire entry point for entry lists. A reference (no frame) is
// materialized by verified local copy via the content index; a
// by-value entry is recovered from its frame.
func (r *ReplicaEngine) HandleReplicaBatchStream(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) []iscsi.Status {
	return r.applyStatuses(Mode(mode), shard, vol, entries, nil)
}

// HandleReplicaSqueezed implements iscsi.SqueezeBackend: the wire entry
// point for squeezed lists, whose by-value entries carry no hashes and
// are verified together against the list's digest (see applyGroup).
func (r *ReplicaEngine) HandleReplicaSqueezed(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry, digest uint64) []iscsi.Status {
	return r.applyStatuses(Mode(mode), shard, vol, entries, &digest)
}

// HandleReplica is HandleReplicaStream on stream (0, 0), kept only for
// the benchmark module; nothing in this module calls it.
func (r *ReplicaEngine) HandleReplica(mode uint8, seq, lba, hash uint64, frame []byte) iscsi.Status {
	return r.HandleReplicaStream(mode, 0, 0, seq, lba, hash, frame)
}

// HandleReplicaBatch is HandleReplicaBatchStream on stream (0, 0), kept
// only for the benchmark module; nothing in this module calls it.
func (r *ReplicaEngine) HandleReplicaBatch(mode uint8, entries []iscsi.BatchEntry) []iscsi.Status {
	return r.HandleReplicaBatchStream(mode, 0, 0, entries)
}

// HandleReplicaByRef is HandleReplicaBatchStream, kept only for the
// benchmark module; nothing in this module calls it.
func (r *ReplicaEngine) HandleReplicaByRef(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) []iscsi.Status {
	return r.HandleReplicaBatchStream(mode, shard, vol, entries)
}

// resolveRef materializes the block whose content hash is hash into
// dst by copying it from some LBA the content index maps to it. Every
// candidate is re-hashed after the read, so a stale index entry is
// corrected (forgotten) and the next candidate tried — the index is
// advisory, the hash check is the authority. Reports false when no
// verifiable holder exists.
func (r *ReplicaEngine) resolveRef(hash uint64, dst []byte) bool {
	if r.dedupe == nil {
		return false
	}
	// Each failed candidate is forgotten before the retry, so the loop
	// strictly shrinks the hash's LBA set; the cap just bounds the work
	// a pathologically stale index can cost one entry.
	for tries := 0; tries < 4; tries++ {
		src, ok := r.dedupe.Lookup(hash)
		if !ok {
			return false
		}
		if err := r.store.ReadBlock(src, dst); err != nil {
			r.dedupe.Forget(src)
			continue
		}
		if iscsi.HashBlock(dst) != hash {
			r.dedupe.Forget(src)
			continue
		}
		return true
	}
	return false
}

// Geometry implements iscsi.Backend.
func (r *ReplicaEngine) Geometry() (int, uint64) {
	return r.store.BlockSize(), r.store.NumBlocks()
}

// HandleRead implements iscsi.Backend, serving reads off the replica
// copy (e.g. for verification or failover).
func (r *ReplicaEngine) HandleRead(lba uint64, blocks uint32) ([]byte, iscsi.Status) {
	bs := r.store.BlockSize()
	out := make([]byte, int(blocks)*bs)
	for i := uint32(0); i < blocks; i++ {
		if err := r.store.ReadBlock(lba+uint64(i), out[int(i)*bs:int(i+1)*bs]); err != nil {
			return nil, statusOf(err)
		}
	}
	return out, iscsi.StatusOK
}

// HandleWrite implements iscsi.Backend. Direct writes are used by the
// initial sync and resync repairs, a group unit's rebuild included;
// they bypass replication (a replica does not re-replicate). data may
// carry a run of consecutive blocks (one extent of a repair span,
// Initiator.WriteSpan): every block of the run is written and indexed,
// in LBA order, under one hold of the lock.
func (r *ReplicaEngine) HandleWrite(lba uint64, data []byte) iscsi.Status {
	bs := r.store.BlockSize()
	if len(data) == 0 || len(data)%bs != 0 {
		return iscsi.StatusBadRequest
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i*bs < len(data); i++ {
		chunk := data[i*bs : (i+1)*bs]
		if err := r.store.WriteBlock(lba+uint64(i), chunk); err != nil {
			return statusOf(err)
		}
		// Direct writes (initial sync, resync repairs) warm the content
		// index too: the hash is computed here because none is shipped.
		if r.dedupe != nil {
			r.dedupe.Put(lba+uint64(i), iscsi.HashBlock(chunk))
		}
	}
	return iscsi.StatusOK
}

// HandleReplicaStream implements iscsi.Backend: the wire entry point
// for single-frame pushes.
func (r *ReplicaEngine) HandleReplicaStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) iscsi.Status {
	return statusOf(r.ApplyStream(Mode(mode), shard, vol, seq, lba, hash, frame))
}

// Loopback adapts a ReplicaEngine into a ReplicaClient, replicating
// in-process with no transport. Benchmarks use it to measure pure
// engine behaviour; it also models co-located replicas, which have no
// wire for a squeeze to shorten.
type Loopback struct {
	Replica *ReplicaEngine
}

var (
	_ ReplicaClient            = (*Loopback)(nil)
	_ StreamBatchReplicaClient = (*Loopback)(nil)
)

// ReplicaWriteStream implements ReplicaClient.
func (l *Loopback) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	return l.Replica.ApplyStream(Mode(mode), shard, vol, seq, lba, hash, frame)
}

// ReplicaWriteBatchStream implements StreamBatchReplicaClient.
func (l *Loopback) ReplicaWriteBatchStream(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) ([]iscsi.Status, error) {
	return l.Replica.HandleReplicaBatchStream(mode, shard, vol, entries), nil
}
