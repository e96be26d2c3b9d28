package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"prins/internal/block"
	"prins/internal/core"
	"prins/internal/iscsi"
	"prins/internal/journal"
)

// The tracer measures every layer from outside the program: its
// wrappers sit on the public seams (block.Store, core.ReplicaClient,
// net.Conn, iscsi.Backend, journal.Backing) and time the calls that
// cross them. Nothing inside internal/* is touched; spans inside the
// program are ROADMAP item 1(a).
//
// Every method is safe on a nil *tracer and does nothing there, so an
// untraced cell is built by the same code with no wrappers at all.

// stage names one timed boundary. Layer is the package that does the
// work, not the one that was wrapped.
type stage int

const (
	stWrite         stage = iota // core: WriteBlock call -> return
	stWriteSelf                  // core: WriteBlock minus its children
	stQueueWait                  // core: local apply end -> session taken by the shipper
	stShipWrite                  // iscsi: the ship call, once per write it carried
	stAckReturn                  // core: ship call returned -> WriteBlock returned (sync)
	stPrimRead                   // block: primary store ReadBlock
	stPrimWrite                  // block: primary store WriteBlock
	stReplRead                   // block: replica store ReadBlock
	stReplWrite                  // block: replica store WriteBlock
	stShipCall                   // iscsi: one ReplicaWrite* call
	stConnWrite                  // wan: one write on the session's connection
	stApply                      // core: one push handled by the replica engine
	stApplySelf                  // core: stApply minus store and journal children
	stJournalBegin               // journal: intent WriteAt -> Sync returned
	stJournalCommit              // journal: clear WriteAt -> Sync returned
	nStages
)

var stageNames = [nStages][2]string{
	stWrite:         {"core", "WriteBlock"},
	stWriteSelf:     {"core", "write_self"},
	stQueueWait:     {"core", "queue_wait"},
	stShipWrite:     {"iscsi", "ship"},
	stAckReturn:     {"core", "ack_return"},
	stPrimRead:      {"block", "primary.read"},
	stPrimWrite:     {"block", "primary.write"},
	stReplRead:      {"block", "replica.read"},
	stReplWrite:     {"block", "replica.write"},
	stShipCall:      {"iscsi", "ship_call"},
	stConnWrite:     {"wan", "conn.write"},
	stApply:         {"core", "replica_apply"},
	stApplySelf:     {"core", "replica_apply_self"},
	stJournalBegin:  {"journal", "begin"},
	stJournalCommit: {"journal", "commit"},
}

// stat is a count and a total duration, updated without locks.
type stat struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (s *stat) add(d int64) {
	s.n.Add(1)
	s.ns.Add(d)
}

// meanUS is the mean duration in microseconds, 0 with no samples.
func (s *stat) meanUS() float64 {
	n := s.n.Load()
	if n == 0 {
		return 0
	}
	return float64(s.ns.Load()) / float64(n) / 1e3
}

// span is one record of the span file. ID is shared by every span of
// one write (the id its writer assigned); ship and apply spans carry
// their own id plus the (shard, seq, lba) of the entries they moved, so
// a reader can join them to writes.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the trace epoch
	End    int64  `json:"end"`
	Shard  int    `json:"shard,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
	LBA    uint64 `json:"lba,omitempty"`
	N      int    `json:"n,omitempty"` // writes (ship) or entries (apply) covered
}

// maxSpans bounds the span file; aggregates keep counting past it.
const maxSpans = 200_000

// writeRec follows one write through the primary. The writer fills
// t0/t1, the primary store wrapper (running under the engine's shard
// lock) fills r*/w* and the inferred stream position, the client
// wrapper fills s0/s1. Whichever of writer and shipper finishes last
// folds the record into the aggregates.
type writeRec struct {
	id      uint64
	lba     uint64
	shard   int
	seq     uint64
	sampled bool
	pushed  bool

	t0, t1 int64 // WriteBlock call, return
	r0, r1 int64 // pre-image read
	w0, w1 int64 // local write
	s0, s1 int64 // ship call that carried it (session taken, reply read)

	parts atomic.Int32
}

type tracer struct {
	// on records the measured phase; rtOn only books round trips on the
	// session's connection, for the resync phase.
	on          atomic.Bool
	rtOn        atomic.Bool
	epoch       time.Time
	sync        bool // the engine acknowledges writes synchronously
	sampleEvery uint64

	nextID atomic.Uint64

	// inflight[lba] is the write a writer currently has inside
	// WriteBlock on that LBA; a second writer on the same LBA goes
	// unattributed rather than share the slot.
	inflight  []atomic.Pointer[writeRec]
	shardSize uint64

	// Per shard: the seq the engine will assign next (it counts local
	// applies under the shard lock, and so does the store wrapper) and
	// the writes applied locally but not yet seen in a ship call.
	pendMu []sync.Mutex
	seq    []uint64
	pend   [][]*writeRec

	// curShip and curApply carry span parentage across goroutines; one
	// command is in flight per session, so one value each is enough.
	// Zero means "not sampled".
	curShip  atomic.Uint64
	curApply atomic.Uint64

	agg [nStages]stat

	shipMsgs    atomic.Int64 // writes carried by ship calls
	shipEntries atomic.Int64 // wire entries (after coalescing)
	shipFrames  atomic.Int64 // entries shipped by value
	frameBytes  atomic.Int64 // their encoded frame bytes
	unmatched   atomic.Int64 // writes no slot or no ship call could be joined to
	jBytes      atomic.Int64
	jSyncs      atomic.Int64

	// Round trips on the session's connection: a write after a read
	// starts one. Requests of one bare header are hash or read commands.
	rtMu       sync.Mutex
	rtStart    int64
	rtWBytes   int64
	rtReading  bool
	rtHeaderNs int64

	spanMu sync.Mutex
	spans  []span

	// pairs are (old, new) block pairs sampled at the primary store for
	// the kernel replay.
	pairMu    sync.Mutex
	pairs     []blockPair
	pairEvery uint64
	pairSeen  uint64
}

type blockPair struct{ old, new []byte }

// maxPairs bounds the replay sample.
const maxPairs = 256

func newTracer(sp spec) *tracer {
	shards := sp.engine.Shards
	if shards < 1 {
		shards = 1
	}
	return &tracer{
		epoch:       time.Now(),
		sync:        !sp.engine.Async,
		sampleEvery: sp.sampleEvery,
		inflight:    make([]atomic.Pointer[writeRec], sp.numBlocks),
		shardSize:   (sp.numBlocks + uint64(shards) - 1) / uint64(shards),
		pendMu:      make([]sync.Mutex, shards),
		seq:         make([]uint64, shards),
		pend:        make([][]*writeRec, shards),
		pairEvery:   sp.pairEvery,
	}
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) emit(s span) {
	t.spanMu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
	t.spanMu.Unlock()
}

func (t *tracer) emitStage(st stage, id, parent uint64, start, end int64) {
	t.emit(span{ID: id, Parent: parent, Layer: stageNames[st][0], Name: stageNames[st][1], Start: start, End: end})
}

// --- the writer's side -------------------------------------------------

// beginWrite registers a write about to enter the engine.
func (t *tracer) beginWrite(lba uint64) *writeRec {
	if !t.active() {
		return nil
	}
	id := t.nextID.Add(1)
	rec := &writeRec{id: id, lba: lba, sampled: t.sampleEvery > 0 && id%t.sampleEvery == 0}
	rec.parts.Store(2)
	rec.t0 = t.now()
	if !t.inflight[lba].CompareAndSwap(nil, rec) {
		t.unmatched.Add(1)
		return nil
	}
	return rec
}

// endWrite closes the writer's part of the record.
func (t *tracer) endWrite(rec *writeRec) {
	if rec == nil {
		return
	}
	rec.t1 = t.now()
	t.inflight[rec.lba].CompareAndSwap(rec, nil)
	if !rec.pushed {
		// The engine never applied it locally (an error, or tracing was
		// switched on mid-write): nothing will ship it.
		t.unmatched.Add(1)
		return
	}
	t.finish(rec)
}

// finish folds a record into the aggregates once both the writer and
// the shipper are done with it.
func (t *tracer) finish(rec *writeRec) {
	if rec.parts.Add(-1) != 0 {
		return
	}
	total := rec.t1 - rec.t0
	read := rec.r1 - rec.r0
	write := rec.w1 - rec.w0
	self := total - read - write
	if t.sync {
		// Everything after the local apply is waiting: for the session,
		// for the round trip, for the ack to reach the writer.
		self -= rec.t1 - rec.w1
		t.agg[stAckReturn].add(rec.t1 - rec.s1)
	}
	t.agg[stWrite].add(total)
	t.agg[stWriteSelf].add(self)
	t.agg[stQueueWait].add(rec.s0 - rec.w1)
	t.agg[stShipWrite].add(rec.s1 - rec.s0)
	if !rec.sampled {
		return
	}
	w := span{ID: rec.id, Layer: "core", Name: "WriteBlock", Start: rec.t0, End: rec.t1,
		Shard: rec.shard, Seq: rec.seq, LBA: rec.lba}
	t.emit(w)
	if rec.r1 > 0 {
		t.emitStage(stPrimRead, rec.id, rec.id, rec.r0, rec.r1)
	}
	t.emitStage(stPrimWrite, rec.id, rec.id, rec.w0, rec.w1)
	t.emitStage(stQueueWait, rec.id, rec.id, rec.w1, rec.s0)
	t.emitStage(stShipWrite, rec.id, rec.id, rec.s0, rec.s1)
	if t.sync {
		t.emitStage(stAckReturn, rec.id, rec.id, rec.s1, rec.t1)
	}
}

// dropPending forgets writes that were applied locally but will never
// be seen in a ship call (frames dropped while the replica was
// degraded). The inferred seq keeps counting: the engine's does too.
func (t *tracer) dropPending() {
	if t == nil {
		return
	}
	for s := range t.pend {
		t.pendMu[s].Lock()
		t.unmatched.Add(int64(len(t.pend[s])))
		t.pend[s] = nil
		t.pendMu[s].Unlock()
	}
}

// --- block.Store, primary side ------------------------------------------

type primaryStore struct {
	block.Store
	t *tracer
}

func (t *tracer) wrapPrimaryStore(inner block.Store) block.Store {
	if t == nil {
		return inner
	}
	return &primaryStore{Store: inner, t: t}
}

func (s *primaryStore) ReadBlock(lba uint64, buf []byte) error {
	t := s.t
	if !t.on.Load() {
		return s.Store.ReadBlock(lba, buf)
	}
	start := t.now()
	err := s.Store.ReadBlock(lba, buf)
	end := t.now()
	t.agg[stPrimRead].add(end - start)
	// A read with a write in flight on the same LBA is that write's
	// pre-image read: the engine does it first thing under the shard
	// lock. Application reads find the slot empty.
	if rec := t.inflight[lba].Load(); rec != nil && rec.r1 == 0 {
		rec.r0, rec.r1 = start, end
	}
	return err
}

func (s *primaryStore) WriteBlock(lba uint64, data []byte) error {
	t := s.t
	shard := int(lba / t.shardSize)
	if !t.on.Load() {
		// Keep counting local applies so the inferred seq stays the
		// engine's while recording is off.
		err := s.Store.WriteBlock(lba, data)
		t.pendMu[shard].Lock()
		t.seq[shard]++
		t.pendMu[shard].Unlock()
		return err
	}
	t.samplePair(s.Store, lba, data)
	start := t.now()
	err := s.Store.WriteBlock(lba, data)
	end := t.now()
	t.agg[stPrimWrite].add(end - start)
	rec := t.inflight[lba].Load()
	t.pendMu[shard].Lock()
	t.seq[shard]++
	if rec != nil && !rec.pushed {
		rec.w0, rec.w1 = start, end
		rec.shard, rec.seq = shard, t.seq[shard]
		rec.pushed = true
		t.pend[shard] = append(t.pend[shard], rec)
	}
	t.pendMu[shard].Unlock()
	return err
}

// samplePair keeps every pairEvery-th (old, new) block pair, up to
// maxPairs, for the kernel replay. It reads the old block itself so it
// does not depend on which reads the engine chooses to do.
func (t *tracer) samplePair(inner block.Store, lba uint64, data []byte) {
	if t.pairEvery == 0 {
		return
	}
	t.pairMu.Lock()
	t.pairSeen++
	take := t.pairSeen%t.pairEvery == 0 && len(t.pairs) < maxPairs
	t.pairMu.Unlock()
	if !take {
		return
	}
	old := make([]byte, len(data))
	if err := inner.ReadBlock(lba, old); err != nil {
		return
	}
	p := blockPair{old: old, new: append([]byte(nil), data...)}
	t.pairMu.Lock()
	t.pairs = append(t.pairs, p)
	t.pairMu.Unlock()
}

// --- block.Store, replica side -------------------------------------------

type replicaStore struct {
	block.Store
	t *tracer
}

func (t *tracer) wrapReplicaStore(inner block.Store) block.Store {
	if t == nil {
		return inner
	}
	return &replicaStore{Store: inner, t: t}
}

func (s *replicaStore) timed(st stage, op func() error) error {
	t := s.t
	if !t.on.Load() {
		return op()
	}
	start := t.now()
	err := op()
	end := t.now()
	t.agg[st].add(end - start)
	if parent := t.curApply.Load(); parent != 0 {
		t.emitStage(st, t.nextID.Add(1), parent, start, end)
	}
	return err
}

func (s *replicaStore) ReadBlock(lba uint64, buf []byte) error {
	return s.timed(stReplRead, func() error { return s.Store.ReadBlock(lba, buf) })
}

func (s *replicaStore) WriteBlock(lba uint64, data []byte) error {
	return s.timed(stReplWrite, func() error { return s.Store.WriteBlock(lba, data) })
}

// --- journal.Backing -------------------------------------------------------

// journalBacking times the journal from its persistence surface: an
// intent is one WriteAt at offset 0 followed by a Sync, a commit is the
// one-byte state clear followed by a Sync.
type journalBacking struct {
	journal.Backing
	t     *tracer
	start int64
	st    stage
}

func (t *tracer) wrapJournal(inner journal.Backing) journal.Backing {
	if t == nil {
		return inner
	}
	return &journalBacking{Backing: inner, t: t}
}

func (j *journalBacking) WriteAt(p []byte, off int64) (int, error) {
	if j.t.on.Load() {
		j.start = j.t.now()
		j.st = stJournalBegin
		if len(p) == 1 {
			j.st = stJournalCommit
		}
		j.t.jBytes.Add(int64(len(p)))
	}
	return j.Backing.WriteAt(p, off)
}

func (j *journalBacking) Sync() error {
	err := j.Backing.Sync()
	t := j.t
	if t.on.Load() && j.start != 0 {
		end := t.now()
		t.jSyncs.Add(1)
		t.agg[j.st].add(end - j.start)
		if parent := t.curApply.Load(); parent != 0 {
			t.emitStage(j.st, t.nextID.Add(1), parent, j.start, end)
		}
		j.start = 0
	}
	return err
}

// --- iscsi.Backend ------------------------------------------------------------

// tracedBackend wraps the replica engine where the target calls it. It
// forwards every push verb the engine implements, so the target takes
// the same path it takes with the bare engine.
type tracedBackend struct {
	*core.ReplicaEngine
	t *tracer
}

var (
	_ iscsi.StreamBatchBackend = (*tracedBackend)(nil)
	_ iscsi.BatchBackend       = (*tracedBackend)(nil)
	_ iscsi.ByRefBackend       = (*tracedBackend)(nil)
)

func (t *tracer) wrapBackend(inner *core.ReplicaEngine) iscsi.Backend {
	if t == nil {
		return inner
	}
	return &tracedBackend{ReplicaEngine: inner, t: t}
}

// children is the time spent so far below the replica engine.
func (t *tracer) children() int64 {
	return t.agg[stReplRead].ns.Load() + t.agg[stReplWrite].ns.Load() +
		t.agg[stJournalBegin].ns.Load() + t.agg[stJournalCommit].ns.Load()
}

// apply times one push. Pushes are serial on a session, so the store
// and journal time that accrues during the call is this push's.
func (b *tracedBackend) apply(entries int, op func()) {
	t := b.t
	if !t.on.Load() {
		op()
		return
	}
	var id uint64
	if t.curShip.Load() != 0 {
		id = t.nextID.Add(1)
	}
	t.curApply.Store(id)
	before := t.children()
	start := t.now()
	op()
	end := t.now()
	t.curApply.Store(0)
	t.agg[stApply].add(end - start)
	t.agg[stApplySelf].add(end - start - (t.children() - before))
	if id != 0 {
		t.emit(span{ID: id, Parent: t.curShip.Load(), Layer: "core", Name: "replica_apply", Start: start, End: end, N: entries})
	}
}

func (b *tracedBackend) HandleReplica(mode uint8, seq, lba, hash uint64, frame []byte) (st iscsi.Status) {
	b.apply(1, func() { st = b.ReplicaEngine.HandleReplica(mode, seq, lba, hash, frame) })
	return st
}

func (b *tracedBackend) HandleReplicaStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) (st iscsi.Status) {
	b.apply(1, func() { st = b.ReplicaEngine.HandleReplicaStream(mode, shard, vol, seq, lba, hash, frame) })
	return st
}

func (b *tracedBackend) HandleReplicaBatch(mode uint8, entries []iscsi.BatchEntry) (st []iscsi.Status) {
	b.apply(len(entries), func() { st = b.ReplicaEngine.HandleReplicaBatch(mode, entries) })
	return st
}

func (b *tracedBackend) HandleReplicaBatchStream(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) (st []iscsi.Status) {
	b.apply(len(entries), func() { st = b.ReplicaEngine.HandleReplicaBatchStream(mode, shard, vol, entries) })
	return st
}

func (b *tracedBackend) HandleReplicaByRef(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) (st []iscsi.Status) {
	b.apply(len(entries), func() { st = b.ReplicaEngine.HandleReplicaByRef(mode, shard, vol, entries) })
	return st
}

// --- core.ReplicaClient -----------------------------------------------------------

// tracedClient wraps the initiator where the engine's shippers call
// it. It implements every optional client interface the initiator
// does (except the k-of-n stripe verb no workload uses), so the engine
// chooses the same ship path it chooses with the bare initiator.
type tracedClient struct {
	in *iscsi.Initiator
	t  *tracer

	// mu is taken around every call. The initiator serializes commands
	// under its own lock anyway; taking one here first separates the
	// wait for the session from the round trip, and makes "the ship
	// call in flight" a single value.
	mu sync.Mutex
}

var (
	_ core.StreamBatchReplicaClient = (*tracedClient)(nil)
	_ core.BatchReplicaClient       = (*tracedClient)(nil)
	_ core.FramedReplicaClient      = (*tracedClient)(nil)
	_ core.ByRefReplicaClient       = (*tracedClient)(nil)
)

func (t *tracer) wrapClient(in *iscsi.Initiator) core.ReplicaClient {
	if t == nil {
		return in
	}
	return &tracedClient{in: in, t: t}
}

// SetRequestTimeout lets the engine install its retry timeout.
func (c *tracedClient) SetRequestTimeout(d time.Duration) { c.in.SetRequestTimeout(d) }

// ship times one call that carries the given wire entries for a shard.
func (c *tracedClient) ship(shard uint8, entries []iscsi.BatchEntry, op func()) {
	t := c.t
	if !t.on.Load() {
		op()
		return
	}
	var maxSeq uint64
	var frames, bytes int64
	for i := range entries {
		if entries[i].Seq > maxSeq {
			maxSeq = entries[i].Seq
		}
		if n := len(entries[i].Frame); n > 0 {
			frames++
			bytes += int64(n)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()

	// Every write this shard applied up to the highest seq on the wire
	// rides in this call: pipes are FIFO, and a coalesced entry carries
	// the seq of the last write folded into it.
	s := int(shard)
	t.pendMu[s].Lock()
	k := 0
	for k < len(t.pend[s]) && t.pend[s][k].seq <= maxSeq {
		k++
	}
	recs := t.pend[s][:k:k]
	t.pend[s] = t.pend[s][k:]
	t.pendMu[s].Unlock()

	var id uint64
	for _, r := range recs {
		if r.sampled {
			id = t.nextID.Add(1)
			break
		}
	}
	t.curShip.Store(id)
	start := t.now()
	op()
	end := t.now()
	t.curShip.Store(0)

	t.agg[stShipCall].add(end - start)
	// A write that lost its slot to another writer on the same LBA has
	// no record, but it still rode in an entry.
	t.shipMsgs.Add(int64(max(len(recs), len(entries))))
	t.shipEntries.Add(int64(len(entries)))
	t.shipFrames.Add(frames)
	t.frameBytes.Add(bytes)
	if id != 0 {
		sp := span{ID: id, Layer: "iscsi", Name: "ship_call", Start: start, End: end, Shard: s, Seq: maxSeq, N: len(recs)}
		if len(entries) > 0 {
			sp.LBA = entries[0].LBA
		}
		t.emit(sp)
	}
	for _, r := range recs {
		r.s0, r.s1 = start, end
		t.finish(r)
	}
}

func one(seq, lba uint64, frame []byte) []iscsi.BatchEntry {
	return []iscsi.BatchEntry{{Seq: seq, LBA: lba, Frame: frame}}
}

func (c *tracedClient) ReplicaWrite(mode uint8, seq, lba, hash uint64, frame []byte) (err error) {
	c.ship(0, one(seq, lba, frame), func() { err = c.in.ReplicaWrite(mode, seq, lba, hash, frame) })
	return err
}

func (c *tracedClient) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) (err error) {
	c.ship(shard, one(seq, lba, frame), func() { err = c.in.ReplicaWriteStream(mode, shard, vol, seq, lba, hash, frame) })
	return err
}

func (c *tracedClient) ReplicaWriteFramed(mode, shard uint8, vol uint16, seq, lba, hash uint64, pdu []byte) (err error) {
	c.ship(shard, one(seq, lba, pdu[iscsi.FrameHeadroom:]), func() {
		err = c.in.ReplicaWriteFramed(mode, shard, vol, seq, lba, hash, pdu)
	})
	return err
}

func (c *tracedClient) ReplicaWriteBatch(mode uint8, entries []iscsi.BatchEntry) (st []iscsi.Status, err error) {
	c.ship(0, entries, func() { st, err = c.in.ReplicaWriteBatch(mode, entries) })
	return st, err
}

func (c *tracedClient) ReplicaWriteBatchStream(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) (st []iscsi.Status, err error) {
	c.ship(shard, entries, func() { st, err = c.in.ReplicaWriteBatchStream(mode, shard, vol, entries) })
	return st, err
}

func (c *tracedClient) ReplicaWriteByRef(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) (st []iscsi.Status, err error) {
	c.ship(shard, entries, func() { st, err = c.in.ReplicaWriteByRef(mode, shard, vol, entries) })
	return st, err
}

// --- net.Conn (called from meterConn) ----------------------------------------------------

func (t *tracer) connWriteStart() int64 {
	if t == nil || !(t.on.Load() || t.rtOn.Load()) {
		return 0
	}
	return t.now()
}

func (t *tracer) connWriteEnd(start, n int64) {
	if start == 0 {
		return
	}
	end := t.now()
	if t.on.Load() {
		t.agg[stConnWrite].add(end - start)
		if parent := t.curShip.Load(); parent != 0 {
			t.emitStage(stConnWrite, t.nextID.Add(1), parent, start, end)
		}
	}
	if !t.rtOn.Load() {
		return
	}
	t.rtMu.Lock()
	if t.rtReading || t.rtStart == 0 {
		t.closeRoundTrip(start)
		t.rtStart, t.rtWBytes, t.rtReading = start, 0, false
	}
	t.rtWBytes += n
	t.rtMu.Unlock()
}

func (t *tracer) connRead() {
	if t == nil || !t.rtOn.Load() {
		return
	}
	t.rtMu.Lock()
	t.rtReading = true
	t.rtMu.Unlock()
}

// closeRoundTrip books the round trip that ended when the next one
// started (or when the phase ended). Called with rtMu held.
func (t *tracer) closeRoundTrip(now int64) {
	if t.rtStart == 0 {
		return
	}
	if t.rtWBytes <= iscsi.FrameHeadroom {
		t.rtHeaderNs += now - t.rtStart
	}
	t.rtStart = 0
}

// headerRoundTrips returns the time spent so far in round trips whose
// request was a bare header.
func (t *tracer) headerRoundTrips() time.Duration {
	t.rtMu.Lock()
	defer t.rtMu.Unlock()
	t.closeRoundTrip(t.now())
	return time.Duration(t.rtHeaderNs)
}

// --- span file ----------------------------------------------------------------------------

// writeSpans writes the span file for one traced run.
func (t *tracer) writeSpans(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	t.spanMu.Lock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Unit     string `json:"unit"`
		Spans    []span `json:"spans"`
	}{workload, seed, "ns since trace start", t.spans}
	err = json.NewEncoder(f).Encode(doc)
	t.spanMu.Unlock()
	if err != nil {
		_ = f.Close() // the encode error is the one to report
		return "", fmt.Errorf("bench: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}
