package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"prins/internal/block"
	"prins/internal/dedupe"
	"prins/internal/iscsi"
	"prins/internal/metrics"
	"prins/internal/parity"
	"prins/internal/xcode"
)

// ReplicaClient transports one encoded replication frame to a replica
// node. iscsi.Initiator implements it for remote replicas; Loopback
// implements it in-process for tests and benchmarks. The push carries
// the (vol, shard) replication stream it belongs to, and the replica
// dedupes per stream; an untagged push is stream (0, 0), byte for byte.
// hash is the content hash of the decoded new block (iscsi.HashBlock);
// zero means the primary did not verify and the replica applies
// unchecked.
type ReplicaClient interface {
	ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error
}

var _ ReplicaClient = (*iscsi.Initiator)(nil)

// StreamBatchReplicaClient is the entry-list extension of
// ReplicaClient: ship several entries of one (vol, shard) stream in one
// round trip and get one status per entry back, so a single diverged
// block cannot fail its batch-mates. Any entry may be a reference —
// no frame, its content hash the payload — for content the replica is
// believed to already hold; StatusRefMiss marks references the replica
// could not resolve (the primary re-ships those by value). The
// pipeline ships single frames, and keeps no dedupe index, for clients
// without it.
type StreamBatchReplicaClient interface {
	ReplicaClient
	ReplicaWriteBatchStream(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) ([]iscsi.Status, error)
}

var _ StreamBatchReplicaClient = (*iscsi.Initiator)(nil)

// BatchReplicaClient and ByRefReplicaClient are StreamBatchReplicaClient
// under its old names, kept only for the benchmark module.
type (
	BatchReplicaClient = StreamBatchReplicaClient
	ByRefReplicaClient = StreamBatchReplicaClient
)

// FramedReplicaClient is the zero-copy extension of ReplicaClient: the
// engine hands over the pre-assembled PDU — iscsi.FrameHeadroom
// reserved header bytes followed by the encoded frame — and the client
// stamps the header in place and sends the buffer as one write, so a
// single-frame ship performs no staging copy of the frame. The client
// overwrites the headroom bytes, so the pipeline only takes this path
// while it holds the buffer exclusively. The wire bytes are identical
// to ReplicaWriteStream.
type FramedReplicaClient interface {
	ReplicaClient
	ReplicaWriteFramed(mode, shard uint8, vol uint16, seq, lba, hash uint64, pdu []byte) error
}

var _ FramedReplicaClient = (*iscsi.Initiator)(nil)

// SqueezeReplicaClient is the compressing extension of an entry-list
// client: ship a list as one DEFLATE segment primed with what the
// (vol, shard) stream already carried and one digest for its hashes
// (iscsi's squeezed lists), and say what data segment each PDU it put
// on the wire carried — the plain list's when the client shipped it
// plain; a refused list's and its re-ship's when the replica refused the
// squeezed one as built on a stale history, or could not verify it and
// the client re-shipped it plain. The client
// owns the stream's history and resets it itself when a push fails;
// ResetSqueeze makes it forget the history, so the next squeezed push is
// fresh. A stream's squeezed pushes go one at a time: an async pipe's
// shipper, the only caller, has one push in flight.
type SqueezeReplicaClient interface {
	ReplicaClient
	ReplicaWriteSqueezed(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) (statuses []iscsi.Status, sent iscsi.Sent, err error)
	ResetSqueeze(shard uint8, vol uint16)
}

var _ SqueezeReplicaClient = (*iscsi.Initiator)(nil)

// ParityWriter is the optional fast path a RAID array provides: a
// write that returns the forward parity it computed anyway while
// updating the parity disk. When the primary store implements it and
// the engine runs in ModePRINS, replication adds no XOR of its own —
// the paper's zero-overhead case.
type ParityWriter interface {
	WriteBlockWithParity(lba uint64, data []byte) ([]byte, error)
}

// MaxShards bounds Config.Shards: the wire protocol carries the shard
// index as a uint8.
const MaxShards = 256

// GroupConfig selects erasure-coded replica groups (GroupMode): each
// replicated block is Reed-Solomon-striped into N unit frames, one per
// attached replica, and any K of them reconstruct the block. The zero
// value keeps mirroring. With GroupMode on:
//
//   - Exactly N replicas must be attached, in unit order: replica i
//     (attach order) stores unit i. Each replica's store is unit-sized
//     (parity.RS.UnitSize of the primary block size), so the group's
//     total replica footprint is N/K blocks instead of N.
//   - Pipe i ships unit i of each write through the mirror's own verbs,
//     so a replica of unit i is an ordinary ReplicaEngine over a
//     unit-sized store: RS is linear over XOR, so in ModePRINS unit i of
//     RS(P') is the forward parity of unit i, and the replica's usual
//     backward XOR against its old unit recovers its new unit exactly.
//   - A synchronous write acknowledges at quorum: it succeeds once any
//     K of the N units are durably applied (journaled, when the
//     replicas journal); the remaining units settle asynchronously and
//     per-replica lag/dirty tracking names what is still owed.
type GroupConfig struct {
	K, N int
}

// enabled reports whether GroupMode is on.
func (g GroupConfig) enabled() bool { return g.N > 0 }

// Config parameterizes an Engine.
type Config struct {
	// Mode selects the replication technique. Required.
	Mode Mode
	// Async, when true, returns from a write as soon as the frame is
	// enqueued on every replica's pipeline; delivery errors surface on
	// Drain. When false every write blocks until all replicas
	// acknowledged (the acks are awaited in parallel, outside the
	// engine lock).
	Async bool
	// QueueDepth bounds each (shard, replica) ship queue. Defaults to
	// 256. When a pipeline's queue is full the write path blocks,
	// bounding memory — a persistently slow replica eventually
	// backpressures writers rather than buffering without limit.
	QueueDepth int
	// SkipUnchanged, when true, elides replication of writes whose
	// parity is all zeros (the block did not change). Only meaningful
	// in ModePRINS.
	SkipUnchanged bool
	// RecordDensity enables per-write change-density accounting.
	RecordDensity bool
	// Retry governs frame delivery to each replica: attempts, per-
	// attempt timeout, and exponential backoff. The zero value keeps
	// the historical single-attempt behaviour.
	Retry RetryPolicy
	// AllowDegraded keeps the write path available when a replica
	// exhausts its retry budget: that replica is marked degraded,
	// subsequent frames to it are counted as dropped instead of
	// shipped, and writes keep succeeding locally. The way back is
	// quiesce (Drain) → resync the replica → ClearDegraded. When false
	// (the default) delivery failures surface as write errors (sync
	// mode) or on Drain (async mode), as they always have.
	AllowDegraded bool
	// BatchFrames caps how many queued frames one shipper delivery may
	// carry in a single batched wire PDU. The shipper drains
	// opportunistically: whatever is queued when it wakes (up to the
	// caps) goes out as one batch, so an idle pipeline still ships each
	// frame immediately and it is backlog — WAN latency, bursts — that
	// forms batches. Zero means the default (32); 1 disables batching
	// entirely (every frame ships as a single-frame op, byte-identical
	// to the pre-batching wire format). Ignored for replica clients
	// that do not implement StreamBatchReplicaClient.
	BatchFrames int
	// Shards splits the device into that many contiguous LBA ranges,
	// each with its own write lock, sequence space, dirty maps, and
	// per-replica ship pipelines, so writers on different shards never
	// contend. Same-LBA ordering is preserved (an LBA always maps to
	// the same shard); cross-shard ordering is undefined, which is safe
	// because shards own disjoint LBA ranges. Zero or one keeps the
	// historical single-lock engine with untagged wire framing (stream
	// (0, 0)). Maximum MaxShards.
	Shards int
	// Volume tags every replication stream this engine ships with a
	// volume id, so several logical volumes can multiplex their pushes
	// over one shared replica session (see VolumeManager). Zero — the
	// default for a standalone engine — leaves single-shard framing
	// untagged and wire-compatible with pre-sharding peers.
	Volume uint16
	// Group, when set (N > 0), runs the engine in GroupMode: writes are
	// RS-striped K-of-N across the replica set with quorum commit and
	// unit-sized replica stores. See GroupConfig.
	Group GroupConfig
	// DedupeEntries enables the content-addressed ship-by-reference
	// fast path and bounds the per-replica index backing it: for each
	// attached replica whose client ships entry lists the engine tracks
	// up to this many (lba -> content hash) pairs it believes the
	// replica holds, fed by acknowledged ships and resync scans. A
	// batched ship whose entry's content hash is already indexed sends
	// a reference, its entry header alone, instead of the parity frame
	// (wire protocol v8); a
	// replica-side miss falls back to re-shipping the frame, so
	// correctness never depends on the index. Zero (the default)
	// disables the fast path entirely; the index is advisory and
	// ineffective when batching is disabled (BatchFrames: 1). In
	// GroupMode each replica's index addresses its own unit's content,
	// which is what its replica holds.
	// Negative selects the default bound (dedupe.DefaultEntries).
	DedupeEntries int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.BatchFrames == 0 {
		c.BatchFrames = 32
	}
	if c.BatchFrames < 1 {
		c.BatchFrames = 1
	}
	if c.BatchFrames > iscsi.MaxBatchFrames {
		c.BatchFrames = iscsi.MaxBatchFrames
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if !c.Mode.Valid() {
		return fmt.Errorf("core: invalid mode %d", uint8(c.Mode))
	}
	if c.Shards > MaxShards {
		return fmt.Errorf("core: %d shards exceeds the maximum %d", c.Shards, MaxShards)
	}
	if c.Group.enabled() && (c.Group.K < 1 || c.Group.K > c.Group.N || c.Group.N > parity.MaxGroupUnits) {
		return fmt.Errorf("core: invalid replica group k=%d n=%d", c.Group.K, c.Group.N)
	}
	return nil
}

// ErrEngineClosed is returned for writes after Close.
var ErrEngineClosed = errors.New("core: engine closed")

// ErrGroupReplicas reports a GroupMode write attempted without exactly
// N attached replicas, or an attach beyond the group size.
var ErrGroupReplicas = errors.New("core: GroupMode engine requires exactly n attached replicas")

// errDropped marks a frame elided because its replica is degraded. A
// synchronous writer gets it, and await decides what it costs: nothing
// to a mirror — the block still lands whole on every healthy replica —
// but a dropped unit is redundancy the group genuinely lost, so it
// counts against the quorum instead of as delivered.
var errDropped = errors.New("core: frame dropped (replica degraded)")

// shard is one contiguous LBA range's independent write path: its own
// lock (write order = seq order within the shard), sequence space,
// scratch buffers, and one ship pipeline per attached replica.
type shard struct {
	id     uint8
	mu     sync.Mutex
	seq    uint64
	oldBuf []byte
	fpBuf  []byte
	pipes  []*pipe // one per replica, attach order

	// frames and hashes are the write in flight's frame and content hash
	// per pipe, parallel to pipes (see encodeFrames); guarded by mu like
	// the other per-shard buffers.
	frames []*frameBuf
	hashes []uint64

	// GroupMode scratch (Config.Group set): the n unit slices a striped
	// write RS-encodes its payload into, and a second bank for the
	// new-data units a PRINS stripe hashes (the shipped payload is RS of
	// the delta, but the replica verifies the unit it recovers).
	gUnits [][]byte
	gNew   [][]byte

	// m is the shard's write-path counter bank; its pipes book their
	// deliveries on their own.
	m metrics.Bank
}

// Engine is the primary-side PRINS engine. It wraps the local block
// store; writes through the engine hit local storage and are
// replicated to every attached replica in the configured mode.
//
// The write path is sharded: the device is split into Config.Shards
// contiguous LBA ranges, and each shard owns its lock, seq space, and
// per-replica ship pipelines (see pipeline.go), so writers on
// different shards proceed in parallel end to end. An LBA always maps
// to the same shard, preserving same-LBA ordering; the replica keeps
// one dedupe window per shard stream, so cross-shard interleaving on
// the wire is harmless.
//
// Engine implements block.Store, so a filesystem, database pager, or
// iSCSI target backend can sit directly on top of it.
type Engine struct {
	cfg   Config
	retry RetryPolicy // cfg.Retry with defaults applied
	local block.Store
	pw    ParityWriter // non-nil if local supports the RAID fast path
	//lint:lockorder core.shard.mu < core.Engine.pwMu the fast path is entered from inside a shard's critical section
	pwMu    sync.Mutex      // serializes the shared fast path across shards
	traffic metrics.Traffic // snapshot, bound once so reading it allocates nothing
	density *parity.DensityStats

	// rsCodec is the group's Reed-Solomon code; non-nil exactly when
	// Config.Group is set, and doubles as the GroupMode discriminator
	// on the hot path.
	rsCodec *parity.RS

	replicas []*replicaState

	shards    []*shard
	shardSize uint64 // LBAs per shard (the last shard may be short)

	closed   atomic.Bool
	done     chan struct{}  // closed once, after Close has quiesced
	shippers sync.WaitGroup // the shipper of every (shard, replica) pipeline
}

var _ block.Store = (*Engine)(nil)
var _ iscsi.Backend = (*Engine)(nil)

// NewEngine wraps local with a replication engine in the given config.
// Replicas are attached afterwards with AttachReplica.
func NewEngine(local block.Store, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	nb := local.NumBlocks()
	n := cfg.Shards
	if nb > 0 && uint64(n) > nb {
		n = int(nb) // never more shards than blocks
	}
	shardSize := uint64(1)
	if nb > 0 {
		shardSize = (nb + uint64(n) - 1) / uint64(n)
	}

	e := &Engine{
		cfg:       cfg,
		retry:     cfg.Retry.withDefaults(),
		local:     local,
		density:   &parity.DensityStats{},
		shards:    make([]*shard, n),
		shardSize: shardSize,
		done:      make(chan struct{}),
	}
	e.traffic = e.snapshot
	if cfg.Group.enabled() {
		rs, err := parity.NewRS(cfg.Group.K, cfg.Group.N)
		if err != nil {
			return nil, fmt.Errorf("core: replica group: %w", err)
		}
		e.rsCodec = rs
	}
	for i := range e.shards {
		s := &shard{
			id:     uint8(i),
			oldBuf: make([]byte, local.BlockSize()),
			fpBuf:  make([]byte, local.BlockSize()),
		}
		if e.rsCodec != nil {
			u := e.rsCodec.UnitSize(local.BlockSize())
			s.gUnits = make([][]byte, cfg.Group.N)
			s.gNew = make([][]byte, cfg.Group.N)
			for j := range s.gUnits {
				s.gUnits[j] = make([]byte, u)
				s.gNew[j] = make([]byte, u)
			}
		}
		e.shards[i] = s
	}
	if pw, ok := local.(ParityWriter); ok {
		e.pw = pw
	}
	return e, nil
}

// shardOf routes an LBA to its shard. Out-of-range LBAs clamp to the
// last shard; the store rejects them with ErrOutOfRange anyway.
func (e *Engine) shardOf(lba uint64) *shard {
	i := lba / e.shardSize
	if i >= uint64(len(e.shards)) {
		i = uint64(len(e.shards)) - 1
	}
	return e.shards[i]
}

// Shards returns how many LBA-range shards the engine runs.
func (e *Engine) Shards() int { return len(e.shards) }

// ShardRange returns the LBA range shard s owns.
func (e *Engine) ShardRange(s int) block.Range {
	if s < 0 || s >= len(e.shards) {
		return block.Range{}
	}
	start := uint64(s) * e.shardSize
	count := e.shardSize
	if nb := e.local.NumBlocks(); start+count > nb {
		count = nb - start
	}
	return block.Range{Start: start, Count: count}
}

// ShardStats snapshots every shard's counters, indexed by shard id: its
// own bank folded with its pipes' to every replica.
func (e *Engine) ShardStats() []metrics.ShardSnapshot {
	out := make([]metrics.ShardSnapshot, len(e.shards))
	for i, s := range e.shards {
		out[i] = fold(s.pipes).Add(&s.m).ShardSnapshot()
	}
	return out
}

// AttachReplica adds a replication destination and starts one ship
// pipeline per shard for it, each drained by one shipper goroutine whose
// window keeps one push in flight on an async engine and shipWindow on a
// sync one. Not safe to call concurrently with
// writes; attach replicas before serving I/O. When the retry policy
// carries a per-attempt timeout and the client supports request
// deadlines, the timeout is installed here.
func (e *Engine) AttachReplica(rc ReplicaClient) error {
	rs := &replicaState{client: rc}
	if e.rsCodec != nil && len(e.replicas) >= e.cfg.Group.N {
		return fmt.Errorf("%w: group is n=%d, replica %d refused",
			ErrGroupReplicas, e.cfg.Group.N, len(e.replicas))
	}
	if e.retry.Timeout > 0 {
		if rt, ok := rc.(requestTimeouter); ok {
			rt.SetRequestTimeout(e.retry.Timeout)
		}
	}
	if lc, ok := rc.(StreamBatchReplicaClient); ok {
		rs.lists = lc
		if e.cfg.DedupeEntries != 0 {
			rs.dedupe = dedupe.New(e.cfg.DedupeEntries)
		}
	}
	if fc, ok := rc.(FramedReplicaClient); ok {
		rs.framed = fc
	}
	if sc, ok := rc.(SqueezeReplicaClient); ok {
		rs.squeeze = sc
	}
	e.replicas = append(e.replicas, rs)
	rs.pipes = make([]*pipe, len(e.shards))
	for i, s := range e.shards {
		p := &pipe{
			rs:    rs,
			shard: s,
			queue: make(chan repMsg, e.cfg.QueueDepth),
			dirty: newDirtyMap(),
		}
		p.batches = e.cfg.BatchFrames > 1 && rs.lists != nil
		if e.cfg.Async && p.batches && rs.squeeze != nil {
			p.sq = new(squeezer)
		}
		rs.pipes[i] = p
		s.mu.Lock()
		s.pipes = append(s.pipes, p)
		s.frames = append(s.frames, nil)
		s.hashes = append(s.hashes, 0)
		s.mu.Unlock()
		e.shippers.Add(1)
		go e.shipper(p)
	}
	return nil
}

// Degraded reports whether any attached replica has exhausted its
// retry budget and been taken out of the ship path. Writes still
// succeed locally; the dropped-frame gap is visible per replica in
// ReplicaStats (each replica's Lag sums its pipes' gauges) and, for the
// worst replica, in Traffic().Snapshot().ReplicaLag.
func (e *Engine) Degraded() bool {
	for _, rs := range e.replicas {
		if rs.degraded.Load() {
			return true
		}
	}
	return false
}

// ReplicaLag returns the largest number of frames any degraded replica
// is behind the primary — zero when all replicas are healthy. A
// replica's lag is the sum of its pipes' gauges; the Traffic snapshot's
// ReplicaLag is this same maximum.
func (e *Engine) ReplicaLag() int64 { return e.snapshot().ReplicaLag }

// ReplicaStat describes one attached replica's pipeline health.
type ReplicaStat struct {
	Degraded bool
	// Reconnects is how many times the replica's session was
	// re-established, for a client that counts them (iscsi.Initiator,
	// resync.ResilientClient); 0 for one that does not.
	Reconnects int64
	Metrics    metrics.ReplicaSnapshot
}

// reconnectCounter is the optional replica-client capability
// ReplicaStats reads a session's redial count through.
type reconnectCounter interface {
	Reconnects() int64
}

// ReplicaStats returns a point-in-time snapshot of every attached
// replica's pipelines, in attach order: replica i's view is the fold of
// its pipes' banks, one per shard. The engine-wide Traffic view folds
// the same banks, so its delivery totals are these views' sums.
func (e *Engine) ReplicaStats() []ReplicaStat {
	out := make([]ReplicaStat, len(e.replicas))
	for i, rs := range e.replicas {
		out[i] = ReplicaStat{Degraded: rs.degraded.Load(), Metrics: fold(rs.pipes).ReplicaSnapshot()}
		if rc, ok := rs.client.(reconnectCounter); ok {
			out[i].Reconnects = rc.Reconnects()
		}
	}
	return out
}

// DirtyRanges returns the merged runs of LBAs replica i (attach order)
// is not known to hold correctly — frames dropped while degraded,
// deliveries that failed past the retry budget, and applies the
// replica refused as diverged — aggregated across every shard, each
// run marked Dirty. A ranged resync over exactly these runs
// (resync.RunRanges) heals the replica without scanning the device, and
// ships their blocks without a hash exchange; clear the map afterwards
// with ClearDirty.
func (e *Engine) DirtyRanges(i int) []block.Range {
	if i < 0 || i >= len(e.replicas) {
		return nil
	}
	var all []block.Range
	for _, p := range e.replicas[i].pipes {
		all = append(all, p.dirty.ranges()...)
	}
	return block.NormalizeRanges(all, e.local.NumBlocks())
}

// ShardDirtyRanges returns replica i's dirty runs restricted to shard
// s, marked Dirty as DirtyRanges' are — the unit a per-shard ranged
// resync repairs.
func (e *Engine) ShardDirtyRanges(i, s int) []block.Range {
	if i < 0 || i >= len(e.replicas) || s < 0 || s >= len(e.shards) {
		return nil
	}
	return e.replicas[i].pipes[s].dirty.ranges()
}

// DirtyBlocks returns how many LBAs replica i has dirty across all
// shards.
func (e *Engine) DirtyBlocks(i int) uint64 {
	if i < 0 || i >= len(e.replicas) {
		return 0
	}
	var total uint64
	for _, p := range e.replicas[i].pipes {
		total += p.dirty.count()
	}
	return total
}

// ClearDirty forgets the given runs from replica i's dirty maps — call
// it after a ranged resync repaired them. With no runs it forgets
// everything.
func (e *Engine) ClearDirty(i int, ranges ...block.Range) {
	if i < 0 || i >= len(e.replicas) {
		return
	}
	for _, p := range e.replicas[i].pipes {
		p.dirty.clear(ranges)
	}
}

// ClearDegraded reinstates every degraded replica, zeroes every pipe's
// lag gauge (Dropped keeps its historical total), and forgets any
// sticky replication error a previous Drain reported — after the
// recovery lifecycle completes, the engine reports healthy again. Call it only after the gap has been healed —
// quiesce writes (Drain), run a resync against each degraded replica,
// then clear; clearing with writes in flight or an unhealed replica
// re-ships new parities on top of stale blocks and silently corrupts
// the copy.
func (e *Engine) ClearDegraded() {
	for _, rs := range e.replicas {
		rs.degraded.Store(false)
		for _, p := range rs.pipes {
			p.m.Store(metrics.Lag, 0)
		}
		rs.clearErr()
	}
}

// ReplicaDedupe returns replica i's primary-side dedupe index, or nil
// when the fast path is off for it (DedupeEntries unset or the client
// ships no entry lists). Resync warms it through this handle: a block
// confirmed equal or repaired is content the replica provably holds.
func (e *Engine) ReplicaDedupe(i int) *dedupe.Index {
	if i < 0 || i >= len(e.replicas) {
		return nil
	}
	return e.replicas[i].dedupe
}

// Traffic returns the engine's traffic view. Its Snapshot folds every
// shard's and pipe's bank when called: delivery totals are the sums of
// ReplicaStats, and ReplicaLag is the worst replica's lag.
func (e *Engine) Traffic() metrics.Traffic { return e.traffic }

// snapshot is the fold behind Traffic: each replica's pipes fold first,
// so the engine-wide lag is a maximum over replicas, not a sum.
func (e *Engine) snapshot() metrics.Snapshot {
	var c metrics.Counts
	for _, s := range e.shards {
		c = c.Add(&s.m)
	}
	for _, rs := range e.replicas {
		c = c.Merge(fold(rs.pipes))
	}
	return c.Snapshot()
}

// Density returns the change-density statistics (populated only when
// Config.RecordDensity is set and the mode computes parity).
func (e *Engine) Density() *parity.DensityStats { return e.density }

// Mode returns the configured replication mode.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// ReadBlock implements block.Store by delegating to local storage.
func (e *Engine) ReadBlock(lba uint64, buf []byte) error {
	return e.local.ReadBlock(lba, buf)
}

// BlockSize implements block.Store.
func (e *Engine) BlockSize() int { return e.local.BlockSize() }

// NumBlocks implements block.Store.
func (e *Engine) NumBlocks() uint64 { return e.local.NumBlocks() }

// WriteBlock implements block.Store: local write plus replication.
//
// The shard lock covers the local apply and the enqueue onto every
// pipeline of that shard — frames must enter each queue in sequence
// order, or two racing writers could deliver same-LBA updates to a
// replica out of order — but never a network round trip, and never
// another shard's writes (see commit). In synchronous mode the write
// then waits, outside the lock, for its replicas' acks, so concurrent
// writers overlap their fan-out waits instead of serializing WAN round
// trips behind a lock.
func (e *Engine) WriteBlock(lba uint64, data []byte) error {
	s := e.shardOf(lba)
	s.mu.Lock()
	ack, err := e.commit(s, lba, data)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return e.await(ack, lba)
}

// commit is how one write is committed under the shard lock: the local
// apply, the encode into the frame(s) each replica ships, the write's
// slot in the shard's seq space, and the fan-out onto every pipe of
// the shard. It returns the channel the write's acks arrive on — nil
// in async mode, and when nothing was enqueued (an elided unchanged
// block, or no replica attached). Called with s.mu held.
//
// A full queue blocks the enqueue, which then (deliberately) throttles
// that shard's writers: the paper's bounded queue, now one per (shard,
// replica).
func (e *Engine) commit(s *shard, lba uint64, data []byte) (chan error, error) {
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	n := len(s.pipes)
	if e.rsCodec != nil && n != e.cfg.Group.N {
		return nil, fmt.Errorf("%w: have %d, group is n=%d", ErrGroupReplicas, n, e.cfg.Group.N)
	}
	src, err := e.localApply(s, lba, data)
	if err != nil || src == nil || n == 0 {
		return nil, err
	}
	if err := e.encodeFrames(s, src, data); err != nil {
		return nil, err
	}
	s.seq++
	var ack chan error
	if !e.cfg.Async {
		ack = make(chan error, n)
	}
	for i, p := range s.pipes {
		p.rs.pending.Add(1)
		//lint:ignore hold-blocking bounded backpressure: a full replication queue must stall writers on this shard
		select {
		case p.queue <- repMsg{seq: s.seq, lba: lba, hash: s.hashes[i], frame: s.frames[i], ack: ack}:
		case <-e.done:
			p.rs.pending.Done()
			for _, fb := range s.frames[i:] {
				fb.release(1)
			}
			return nil, ErrEngineClosed
		}
	}
	return ack, nil
}

// await collects a synchronous write's acks, outside every lock. A
// mirrored write needs all n of them and reports the first error once
// every replica has settled; a copy that was dropped or refused as
// diverged is not one, since the primary still holds the block whole
// and the replica's dirty map names the copy it is owed. A GroupMode
// write waits at the quorum, not the fan-out: it succeeds once any k
// units acknowledge durably applied, and fails as soon as more than n-k
// units are lost (dropped, diverged, or undeliverable), at which point
// no k-survivor subset can ever reconstruct this write. Units that
// settle after the quorum returned land in the buffered channel and are
// collected with it; their delivery state already lives in the dirty
// maps, lag gauges and degraded flags, exactly like mirror-mode
// stragglers.
func (e *Engine) await(ack <-chan error, lba uint64) error {
	n := cap(ack) // zero for the nil channel of a write with nothing to wait for
	unit := e.rsCodec != nil
	k := n
	if unit {
		k = e.cfg.Group.K
	}
	var firstErr error
	oks, fails := 0, 0
	for i := 0; i < n; i++ {
		err := <-ack
		if !unit && (errors.Is(err, errDropped) || errors.Is(err, iscsi.ErrDiverged)) {
			err = nil
		}
		if err == nil {
			if oks++; oks >= k {
				return nil
			}
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if fails++; unit && fails > n-k {
			return fmt.Errorf("core: stripe quorum %d/%d lost at lba %d: %w", k, n, lba, firstErr)
		}
	}
	return firstErr
}

// Group returns the replica-group configuration (zero when mirroring).
func (e *Engine) Group() GroupConfig { return e.cfg.Group }

// GroupUnitSize returns the stripe unit size in bytes, or zero when
// the engine mirrors. Each attached replica's store must use it as its
// block size: a replica in a k-of-n group holds one unit per primary
// block, not the block.
func (e *Engine) GroupUnitSize() int {
	if e.rsCodec == nil {
		return 0
	}
	return e.rsCodec.UnitSize(e.local.BlockSize())
}

// hold takes ownership of the frame pipe i ships for the write in
// flight, with its content hash. The caller must, before releasing
// s.mu, either enqueue every held frame to its pipe or release it.
func (s *shard) hold(i int, fb *frameBuf, hash uint64) { s.frames[i], s.hashes[i] = fb, hash }

// encodeFrames turns the bytes one write replicates (src, see
// localApply) into the frame and content hash each of the shard's pipes
// ships, left in s.frames and s.hashes. Mirroring, every pipe shares
// one frame under n references — the last pipeline to finish with it
// returns it to the pool. In GroupMode pipe i gets its own single-owner
// frame of unit i of the k-of-n RS stripe of src, since every unit's
// bytes differ. On error no frame is held. Called with s.mu held.
//
// Where a pipe of the shard may squeeze, each CodecZRL frame also gets
// its CodecMask twin (xcode.AppendMask) from the bytes the hash covers,
// and the twin's check, the hash XOR the frame's own hash, kept beside
// it in the frameBuf: a squeezed list ships them in place of the frame
// and the hash (iscsi's squeezed lists). They cost a walk over the
// frame and a hash of it; a raw-floored frame gets none.
//
// The hash is the contract the replica verifies before writing in
// place: the decoded new block must equal data in every mode (PRINS
// recovers it as P' XOR A_old), so a mirror hashes data. A unit replica
// verifies the NEW unit it recovers; for PRINS the shipped payload is
// RS of the delta, and by linearity the new unit is RS of the new data
// — encode it once more just for the hashes.
func (e *Engine) encodeFrames(s *shard, src, data []byte) error {
	start := time.Now()
	unit := e.rsCodec != nil
	hashed := s.gUnits
	if unit {
		if err := e.rsCodec.EncodeInto(s.gUnits, src); err != nil {
			return fmt.Errorf("core: stripe encode: %w", err)
		}
		if e.cfg.Mode == ModePRINS {
			if err := e.rsCodec.EncodeInto(s.gNew, data); err != nil {
				return fmt.Errorf("core: stripe encode: %w", err)
			}
			hashed = s.gNew
		}
	}
	// PRINS frames are ZRL (a quiet region of the delta stripes into
	// near-zero units that ZRL collapses); the other modes frame raw or
	// deflated.
	codec := xcode.CodecZRL
	switch e.cfg.Mode {
	case ModeTraditional:
		codec = xcode.CodecRaw
	case ModeCompressed:
		codec = xcode.CodecFlate
	}
	twins := slices.ContainsFunc(s.pipes, func(p *pipe) bool { return p.sq != nil })
	for i := range s.pipes {
		if i > 0 && !unit {
			s.hold(i, s.frames[0], s.hashes[0])
			continue
		}
		payload, verify, refs := src, data, int32(len(s.pipes))
		if unit {
			payload, verify, refs = s.gUnits[i], hashed[i], 1
		}
		fb := getFrame()
		var err error
		if unit || e.cfg.Mode == ModePRINS {
			fb.buf, err = xcode.AppendEncodeBest(fb.buf, payload, codec)
		} else {
			// A whole-block frame ships in exactly its mode's codec, with
			// no raw floor.
			fb.buf, err = xcode.AppendEncode(fb.buf, codec, payload)
		}
		hash := iscsi.HashBlock(verify)
		if err == nil && twins && xcode.Codec(fb.frame()[0]) == xcode.CodecZRL {
			fb.twin, err = xcode.AppendMask(fb.twin[:0], fb.frame(), verify)
			fb.check = hash ^ iscsi.HashBlock(fb.frame())
		}
		if err != nil {
			framePool.Put(fb)
			for _, held := range s.frames[:i] {
				held.release(1)
			}
			return fmt.Errorf("core: encode: %w", err)
		}
		fb.refs.Store(refs)
		s.hold(i, fb, hash)
	}
	s.m.Add(metrics.EncodeNanos, int64(time.Since(start)))
	return nil
}

// localApply performs the local write and returns the bytes the write
// replicates — the forward parity P' = A_new XOR A_old in ModePRINS,
// the new data otherwise — or nil when the write needs no replication
// (SkipUnchanged and nothing changed). Called with s.mu held; the
// returned slice aliases shard scratch (or the caller's data) and is
// valid until the lock is released.
func (e *Engine) localApply(s *shard, lba uint64, data []byte) ([]byte, error) {
	bs := e.local.BlockSize()
	if len(data) != bs {
		return nil, fmt.Errorf("%w: %d != %d", block.ErrBadBufSize, len(data), bs)
	}
	// Hot-path counters live in the shard's own cache-line-padded bank;
	// Traffic folds the banks into its totals on Snapshot, so the write
	// path never touches a cache line shared with another shard.
	s.m.Add(metrics.Writes, 1)
	s.m.Add(metrics.RawBytes, int64(bs))
	if e.cfg.Mode != ModePRINS {
		return data, e.local.WriteBlock(lba, data)
	}

	start := time.Now()
	fp := s.fpBuf
	// nz is the parity's non-zero byte count when a consumer needs it
	// (density recording or skip detection); -1 otherwise.
	nz := -1
	wantNZ := e.cfg.RecordDensity || e.cfg.SkipUnchanged
	if e.pw != nil {
		// RAID fast path: the array hands us P' it computed anyway. The
		// array's parity buffer is shared, so the call serializes across
		// shards and the result is copied into the shard's own scratch
		// before the lock is released.
		e.pwMu.Lock()
		res, err := e.pw.WriteBlockWithParity(lba, data)
		if err != nil {
			e.pwMu.Unlock()
			return nil, err
		}
		copy(fp, res)
		e.pwMu.Unlock()
		if wantNZ {
			nz = parity.NonZeroBytes(fp)
		}
	} else {
		if err := e.local.ReadBlock(lba, s.oldBuf); err != nil {
			return nil, fmt.Errorf("core: read pre-image: %w", err)
		}
		if wantNZ {
			// The XOR, then the non-zero scan over the parity it left in
			// L1: density recording and skip-unchanged detection cost one
			// branch-free count on top of the vector-width XOR.
			var err error
			if nz, err = parity.XORCountNonZero(fp, data, s.oldBuf); err != nil {
				return nil, err
			}
		} else if err := parity.ForwardInto(fp, data, s.oldBuf); err != nil {
			return nil, err
		}
		if err := e.local.WriteBlock(lba, data); err != nil {
			return nil, err
		}
	}
	if e.cfg.RecordDensity {
		e.density.Record(parity.Density{ChangedBytes: nz, BlockBytes: bs})
	}
	s.m.Add(metrics.EncodeNanos, int64(time.Since(start)))
	if e.cfg.SkipUnchanged && nz == 0 {
		s.m.Add(metrics.Skipped, 1)
		return nil, nil
	}
	return fp, nil
}

// Drain blocks until every replica pipeline has shipped its queued
// frames and returns the first sticky replication error observed so
// far (async mode reports errors here rather than on the triggering
// write). A sticky error persists across Drains until the recovery
// lifecycle completes: ClearDegraded forgets it once the replica has
// been healed.
func (e *Engine) Drain() error {
	for _, rs := range e.replicas {
		rs.pending.Wait()
	}
	for _, rs := range e.replicas {
		if err := rs.firstErr(); err != nil {
			return err
		}
	}
	return nil
}

// Close drains outstanding replication, stops the replica pipelines,
// and closes nothing else: the caller owns the local store and replica
// clients.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	// Barrier: once every shard lock has been cycled, no writer is
	// still inside a critical section entered before closed was set,
	// and every later writer observes it.
	for _, s := range e.shards {
		s.mu.Lock()
		s.mu.Unlock() //nolint:staticcheck // empty section is the barrier
	}
	for _, rs := range e.replicas {
		rs.pending.Wait()
	}
	close(e.done)
	e.shippers.Wait()
	return nil
}

// Geometry implements iscsi.Backend so a primary node can export the
// engine directly through a target.
func (e *Engine) Geometry() (int, uint64) {
	return e.local.BlockSize(), e.local.NumBlocks()
}

// HandleRead implements iscsi.Backend: a read of the local copy, as a
// plain store serves it.
func (e *Engine) HandleRead(lba uint64, dst []byte) iscsi.Status {
	return (&iscsi.StoreBackend{Store: e.local}).HandleRead(lba, dst)
}

// HandleWrite implements iscsi.Backend: writes arriving over the wire
// from application initiators go through the replicating write path.
func (e *Engine) HandleWrite(lba uint64, data []byte) iscsi.Status {
	bs := e.local.BlockSize()
	if len(data) == 0 || len(data)%bs != 0 {
		return iscsi.StatusBadRequest
	}
	for i := 0; i*bs < len(data); i++ {
		if err := e.WriteBlock(lba+uint64(i), data[i*bs:(i+1)*bs]); err != nil {
			return statusOf(err)
		}
	}
	return iscsi.StatusOK
}

// HandleReplicaStream implements iscsi.Backend. A primary engine does
// not accept pushes; use ReplicaEngine on replica nodes.
func (e *Engine) HandleReplicaStream(uint8, uint8, uint16, uint64, uint64, uint64, []byte) iscsi.Status {
	return iscsi.StatusBadRequest
}

// statusOf maps an apply/store error (nil: StatusOK) to its wire
// status. The typed replica-apply failures (diverged, decode, store,
// ref-miss) travel as distinct statuses so the initiator can rebuild
// the same sentinel on its side and the primary can tell detected
// corruption from transport loss.
func statusOf(err error) iscsi.Status {
	switch {
	case err == nil:
		return iscsi.StatusOK
	case errors.Is(err, iscsi.ErrDiverged):
		return iscsi.StatusDiverged
	case errors.Is(err, iscsi.ErrReplicaDecode):
		return iscsi.StatusDecodeError
	case errors.Is(err, iscsi.ErrRefMiss):
		return iscsi.StatusRefMiss
	case errors.Is(err, iscsi.ErrUnverified):
		return iscsi.StatusUnverified
	case errors.Is(err, block.ErrOutOfRange):
		return iscsi.StatusOutOfRange
	case errors.Is(err, block.ErrBadBufSize):
		return iscsi.StatusBadRequest
	case errors.Is(err, iscsi.ErrReplicaStore):
		return iscsi.StatusStoreError
	default:
		return iscsi.StatusError
	}
}
