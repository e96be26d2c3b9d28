package prins

import (
	"errors"
	"fmt"
	"net"
	"time"

	"prins/internal/block"
	"prins/internal/core"
	"prins/internal/iscsi"
	"prins/internal/journal"
	"prins/internal/parity"
	"prins/internal/resync"
)

// Store is a fixed-geometry block device addressed by logical block
// address. All library storage plugs in through this interface.
type Store interface {
	// ReadBlock fills buf (exactly BlockSize bytes) from block lba.
	ReadBlock(lba uint64, buf []byte) error
	// WriteBlock replaces block lba with data (exactly BlockSize bytes).
	WriteBlock(lba uint64, data []byte) error
	// BlockSize returns the device block size in bytes.
	BlockSize() int
	// NumBlocks returns the device capacity in blocks.
	NumBlocks() uint64
	// Close releases the device.
	Close() error
}

// NewMemStore allocates a dense in-memory block device.
func NewMemStore(blockSize int, numBlocks uint64) (Store, error) {
	return block.NewMem(blockSize, numBlocks)
}

// NewSparseStore allocates a thin-provisioned in-memory device that
// materializes only written blocks.
func NewSparseStore(blockSize int, numBlocks uint64) (Store, error) {
	return block.NewSparse(blockSize, numBlocks)
}

// NewFileStore creates (or truncates) a file-backed block device.
func NewFileStore(path string, blockSize int, numBlocks uint64) (Store, error) {
	return block.CreateFile(path, blockSize, numBlocks)
}

// OpenFileStore opens an existing file-backed device.
func OpenFileStore(path string, blockSize int) (Store, error) {
	return block.OpenFile(path, blockSize)
}

// Mode selects the replication technique.
type Mode uint8

// Replication modes, in the paper's presentation order.
const (
	// ModeTraditional ships every changed block whole.
	ModeTraditional = Mode(core.ModeTraditional)
	// ModeCompressed ships each changed block DEFLATE-compressed.
	ModeCompressed = Mode(core.ModeCompressed)
	// ModePRINS ships the zero-run-length-encoded forward parity. There
	// is no compression option on top: an Async primary's ship pipeline
	// adds DEFLATE to the frames of a backlog by itself, for as long as
	// that makes its lists smaller (DESIGN.md section 4, "Squeezing a
	// backlog").
	ModePRINS = Mode(core.ModePRINS)
)

// String returns the mode name.
func (m Mode) String() string { return core.Mode(m).String() }

// Config parameterizes a Primary.
type Config struct {
	// Mode is the replication technique. Required.
	Mode Mode
	// Async ships frames from per-replica pipeline workers (the paper's
	// PRINS-engine thread, one per replica); writes return after the
	// local write and enqueue. Errors surface on Drain. When false,
	// writes additionally wait for every replica's acknowledgement —
	// the deliveries still run in parallel, so sync write latency
	// tracks the slowest replica rather than the sum.
	Async bool
	// QueueDepth bounds each replica's ship queue (default 256).
	QueueDepth int
	// SkipUnchanged elides replication of writes that did not change
	// the block (PRINS mode only).
	SkipUnchanged bool
	// RecordDensity tracks per-write change density (PRINS mode only).
	RecordDensity bool

	// Shards splits the device into that many contiguous LBA ranges,
	// each with its own write lock, sequence space, dirty maps, and
	// per-replica ship pipelines, so concurrent writers to different
	// regions of the device never contend and their replication round
	// trips overlap. Same-LBA write ordering is preserved (an LBA
	// always maps to the same shard). Zero or one keeps the classic
	// single-lock engine and a wire format identical to pre-sharding
	// peers; maximum 256.
	Shards int

	// BatchFrames caps how many queued frames a replica pipeline worker
	// drains into one wire-level batch. Batching is opportunistic: a
	// worker never waits for a batch to fill, it just takes whatever has
	// queued behind the frame in hand, so an idle pipeline still ships
	// every write immediately. Zero selects the default (32); 1 disables
	// batching entirely and every frame ships as a single-frame push.
	BatchFrames int

	// RetryAttempts is how many times a replication push is tried before
	// the engine gives up on it (default 1 = no retry).
	RetryAttempts int
	// RetryTimeout bounds each push attempt; zero means no deadline.
	RetryTimeout time.Duration
	// RetryBackoff is the base delay between attempts, doubled each
	// retry with jitter; zero retries immediately.
	RetryBackoff time.Duration
	// AllowDegraded keeps writes succeeding locally when a replica
	// exhausts its retry budget: the replica is marked degraded and
	// subsequent frames to it are dropped and counted rather than
	// failing the write. Recover with Drain, a resync against the
	// replica, then ClearDegraded. When false (default), a failed push
	// fails the write (sync) or surfaces on Drain (async).
	AllowDegraded bool

	// DedupeEntries enables content-addressed dedupe on the ship path
	// (wire protocol v8): the primary tracks which (lba, content hash)
	// pairs each replica provably holds, and when a queued frame's
	// content is already present on the replica it ships a by-ref entry,
	// an entry header of about 11 bytes, instead of the parity frame. The replica materializes
	// the block by local copy after re-hashing the source, and answers
	// REF-MISS when it cannot — the primary then transparently re-ships
	// the frame by value, so dedupe never affects correctness, only
	// bytes. DedupeEntries bounds the per-replica index (LRU beyond it);
	// zero disables dedupe, negative selects a default bound. Dedupe is
	// ineffective with BatchFrames: 1 (by-ref rides the batch path). In
	// group mode each replica's index addresses its own unit's content:
	// two LBAs holding one block hold one unit at every index, so a copy
	// ships by reference to every unit.
	DedupeEntries int

	// GroupK and GroupN (both set) turn the replica set into an
	// erasure-coded group: every write is Reed-Solomon striped into
	// GroupN unit frames of which any GroupK reconstruct the block,
	// and a synchronous write commits once any GroupK units are
	// acknowledged (quorum commit). Attach exactly GroupN replicas, in
	// unit-index order; each is an ordinary Replica over a unit-sized
	// device (block size GroupUnitSize, not the primary's block size),
	// and the attach order is what makes it unit i. Only ModePRINS
	// checks that order, through the hash of the new unit a write
	// carries; in the other modes a unit attached out of order goes
	// unnoticed and the attach order is trusted. The group
	// survives GroupN-GroupK replica losses: any GroupK units
	// reconstruct a block, and a lost or stale unit is rebuilt from the
	// primary's own device by ResyncReplica, which ships one unit per
	// differing block (RepairGroupUnit). Zero GroupN keeps classic
	// full-copy mirroring. A VolumeManager mirrors only and refuses a
	// group.
	GroupK int
	GroupN int
}

// Stats is a point-in-time snapshot of a Primary's replication
// counters.
type Stats struct {
	// Writes is the number of block writes intercepted.
	Writes int64
	// Replicated is the number of frames shipped (writes x replicas).
	Replicated int64
	// Skipped counts writes elided because nothing changed.
	Skipped int64
	// PayloadBytes is the total encoded payload shipped.
	PayloadBytes int64
	// WireBytes models on-the-wire bytes (payload + packet headers).
	WireBytes int64
	// RawBytes is what traditional replication would have shipped.
	RawBytes int64
	// EncodeTime is the cumulative primary-side compute time.
	EncodeTime time.Duration
	// MeanPayload is the average frame payload in bytes.
	MeanPayload float64
	// SavingsVsRaw is RawBytes / PayloadBytes.
	SavingsVsRaw float64
	// MeanChangedFraction is the mean fraction of each block changed
	// per write (only populated with Config.RecordDensity).
	MeanChangedFraction float64
	// Retries counts replication push attempts beyond the first.
	Retries int64
	// Dropped counts frames abandoned because a replica was degraded.
	Dropped int64
	// Diverged counts applies a replica refused because the recovered
	// block failed hash verification (detected corruption).
	Diverged int64
	// Batches counts multi-frame batch deliveries.
	Batches int64
	// CoalescedFrames counts frames merged away by same-LBA parity
	// coalescing before shipping.
	CoalescedFrames int64
	// BatchSavedWireBytes is the modeled wire bytes saved by batching:
	// what the batched frames would have cost as single pushes minus
	// what their batches cost.
	BatchSavedWireBytes int64
	// DedupeHits counts frames delivered by reference: the replica held
	// the content already and the wire carried an entry header instead
	// of the frame (requires Config.DedupeEntries).
	DedupeHits int64
	// DedupeMisses counts by-ref attempts the replica refused with
	// REF-MISS, forcing a by-value re-ship.
	DedupeMisses int64
	// DedupeSavedWireBytes is the net data-segment bytes dedupe saved:
	// frame bytes elided by delivered by-ref entries minus the overhead
	// of refused attempts. Only delivered writes are credited; a miss
	// storm can drive it negative.
	DedupeSavedWireBytes int64
}

// Primary is the primary-side replication engine over a local Store.
// It implements Store itself: reads and writes go to local storage,
// and writes additionally replicate to every attached replica.
type Primary struct {
	engine    *core.Engine
	target    *iscsi.Target
	conns     []*iscsi.Initiator
	resilient []*resync.ResilientClient
	scrubs    []*scrubSession
}

// scrubSession pairs a background scrubber with the dedicated replica
// session it audits over.
type scrubSession struct {
	conn *iscsi.Initiator
	s    *resync.Scrubber
}

var _ Store = (*Primary)(nil)

// NewPrimary wraps local with a replication engine.
func NewPrimary(local Store, cfg Config) (*Primary, error) {
	engine, err := core.NewEngine(local, coreConfig(cfg))
	if err != nil {
		return nil, err
	}
	return &Primary{engine: engine}, nil
}

// coreConfig is the one translation of a Config into the engine's.
func coreConfig(cfg Config) core.Config {
	return core.Config{
		Mode:          core.Mode(cfg.Mode),
		Async:         cfg.Async,
		QueueDepth:    cfg.QueueDepth,
		SkipUnchanged: cfg.SkipUnchanged,
		RecordDensity: cfg.RecordDensity,
		Retry: core.RetryPolicy{
			Attempts: cfg.RetryAttempts,
			Timeout:  cfg.RetryTimeout,
			Backoff:  cfg.RetryBackoff,
		},
		AllowDegraded: cfg.AllowDegraded,
		DedupeEntries: cfg.DedupeEntries,
		BatchFrames:   cfg.BatchFrames,
		Shards:        cfg.Shards,
		Group:         core.GroupConfig{K: cfg.GroupK, N: cfg.GroupN},
	}
}

// AttachReplicaAddr connects to a replica node serving exportName at
// addr and replicates to it from now on. Call before serving writes.
func (p *Primary) AttachReplicaAddr(addr, exportName string) error {
	init, err := iscsi.Dial(addr)
	if err != nil {
		return err
	}
	if err := init.Login(exportName); err != nil {
		_ = init.Close()
		return err
	}
	if err := p.checkGeometry(addr, init); err != nil {
		_ = init.Close()
		return err
	}
	if err := p.engine.AttachReplica(init); err != nil {
		_ = init.Close()
		return err
	}
	p.conns = append(p.conns, init)
	return nil
}

// AttachReplica attaches an in-process replica. Its device is held to
// the same geometry as AttachReplicaAddr's.
func (p *Primary) AttachReplica(r *Replica) error {
	if err := p.checkGeometry("in-process", r.Store()); err != nil {
		return err
	}
	return p.engine.AttachReplica(&core.Loopback{Replica: r.engine})
}

// checkGeometry refuses a replica device that cannot hold what this
// primary ships it: one block per logical block, of the primary's block
// size — or, for a group member, of the unit size, since it stores one
// unit per logical block. It is the only geometry guard a group member
// has: the unit index is the attach order, which only a ModePRINS
// group checks, through the unit hash of a write that finds the wrong
// unit in place (GroupK's doc).
func (p *Primary) checkGeometry(name string, dev Store) error {
	bs, nb := p.engine.Geometry()
	if u := p.engine.GroupUnitSize(); u > 0 {
		bs = u
	}
	if dev.BlockSize() != bs || dev.NumBlocks() < nb {
		return fmt.Errorf("prins: replica %s geometry %dx%d incompatible with primary %dx%d",
			name, dev.NumBlocks(), dev.BlockSize(), nb, bs)
	}
	return nil
}

// AttachReplicaResilient connects to a replica like AttachReplicaAddr
// but survives session loss: on a failed push it reconnects, runs a
// hash-based delta resync to heal the writes lost while disconnected,
// and resumes. Use it when the WAN is expected to flap. A group primary
// refuses it: its heal resyncs whole logical blocks, and a group member
// holds one unit of each (attach with AttachReplicaAddr and heal with
// ResyncReplica instead).
func (p *Primary) AttachReplicaResilient(addr, exportName string) error {
	if p.engine.Group().N > 0 {
		return errors.New("prins: a resilient replica resyncs whole blocks; a group member holds units")
	}
	rc, err := resync.NewResilientClient(p.engine, addr, exportName)
	if err != nil {
		return err
	}
	if err := p.engine.AttachReplica(rc); err != nil {
		_ = rc.Close()
		return err
	}
	p.resilient = append(p.resilient, rc)
	return nil
}

// InitialSync copies the primary's current contents to a replica over
// its device interface, establishing the A_old state PRINS requires.
func (p *Primary) InitialSync(r *Replica) error {
	return block.Copy(r.engine.Store(), p.engine)
}

// ReadBlock implements Store.
func (p *Primary) ReadBlock(lba uint64, buf []byte) error {
	return p.engine.ReadBlock(lba, buf)
}

// WriteBlock implements Store: local write plus replication.
func (p *Primary) WriteBlock(lba uint64, data []byte) error {
	return p.engine.WriteBlock(lba, data)
}

// BlockSize implements Store.
func (p *Primary) BlockSize() int { return p.engine.BlockSize() }

// NumBlocks implements Store.
func (p *Primary) NumBlocks() uint64 { return p.engine.NumBlocks() }

// Serve exports the primary device over TCP so applications can mount
// it with Dial. Returns the bound address.
func (p *Primary) Serve(addr, exportName string) (net.Addr, error) {
	if p.target == nil {
		p.target = iscsi.NewTarget()
	}
	p.target.Export(exportName, p.engine)
	return p.target.Listen(addr)
}

// Drain blocks until all queued replication has shipped and reports
// the first asynchronous replication error.
func (p *Primary) Drain() error { return p.engine.Drain() }

// Degraded reports whether any attached replica has been dropped from
// live replication after exhausting its retry budget (requires
// Config.AllowDegraded).
func (p *Primary) Degraded() bool { return p.engine.Degraded() }

// ReplicaLag returns the largest number of frames dropped for any
// degraded replica — how far behind the worst replica is.
func (p *Primary) ReplicaLag() int64 { return p.engine.ReplicaLag() }

// Range is a contiguous run of blocks [Start, Start+Count). It carries
// no origin: which blocks of a resync's ranges ship without a hash
// exchange is the engine's call, from its dirty map (ResyncReplica).
type Range struct {
	Start uint64
	Count uint64
}

// DirtyRanges returns the merged runs of blocks replica i (attach
// order) is not known to hold correctly — dropped while degraded,
// failed past the retry budget, or refused as diverged. Repair them
// with ResyncReplica, which ships them without asking the replica for
// their hashes, and then forget them with ClearDirty.
func (p *Primary) DirtyRanges(i int) []Range {
	rs := p.engine.DirtyRanges(i)
	out := make([]Range, len(rs))
	for j, r := range rs {
		out[j] = Range{Start: r.Start, Count: r.Count}
	}
	return out
}

// ClearDirty forgets the given dirty runs of replica i after they have
// been repaired; with no runs it forgets all of them.
func (p *Primary) ClearDirty(i int, ranges ...Range) {
	p.engine.ClearDirty(i, toBlockRanges(ranges)...)
}

// ResyncReplica heals replica i (attach order) over a dedicated
// session to its export: it compares per-block content hashes
// restricted to ranges (the whole device with none), rewrites
// differing blocks from the primary's authoritative store, and — when
// replica i runs a dedupe index (Config.DedupeEntries) — feeds every
// block the scan proved present back into that index. A degrade wipes
// the index (nothing about a dropped replica's content can be
// assumed), so resyncing through this method re-warms the
// ship-by-reference fast path as a free side effect of the comparison
// it does anyway. The blocks of ranges that replica i's dirty map
// holds (DirtyRanges) differ on the replica by construction, so they
// are shipped without the hash exchange; the rest are compared, so
// ResyncReplica(i, addr, name, p.DirtyRanges(i)...) asks the replica
// nothing. On a group primary (Config.GroupN) replica i holds
// stripe unit i, and the comparison runs against that unit of the
// primary's blocks (RepairGroupUnit); that source is the only thing
// group-specific about it. Quiesce writes first (Drain) and follow with
// ClearDirty / ClearDegraded as usual.
func (p *Primary) ResyncReplica(i int, addr, exportName string, ranges ...Range) (ResyncStats, error) {
	var src Store = p.engine
	if g := p.engine.Group(); g.N > 0 {
		unit, err := newGroupUnit(p.engine, g.K, g.N, i)
		if err != nil {
			return ResyncStats{}, err
		}
		src = unit
	}
	cfg := resync.Config{}
	if idx := p.engine.ReplicaDedupe(i); idx != nil {
		cfg.Learn = idx.Put
	}
	rs := block.NormalizeRanges(wholeIfNone(p.engine, ranges), p.engine.NumBlocks())
	rs = append(rs, block.Intersect(rs, p.engine.DirtyRanges(i))...)
	return resyncTo(src, addr, exportName, cfg, rs)
}

// Shards returns how many LBA-range shards the primary's write path
// runs (see Config.Shards).
func (p *Primary) Shards() int { return p.engine.Shards() }

// ShardRange returns the LBA range shard s owns.
func (p *Primary) ShardRange(s int) Range {
	r := p.engine.ShardRange(s)
	return Range{Start: r.Start, Count: r.Count}
}

// ShardStat is a snapshot of one shard's write-path counters.
type ShardStat struct {
	// Writes is the number of block writes routed to this shard.
	Writes int64
	// Skipped counts writes the shard elided because nothing changed.
	Skipped int64
	// Shipped counts frames this shard's pipelines delivered across all
	// replicas.
	Shipped int64
	// Dropped counts frames this shard's pipelines elided while a
	// replica was degraded.
	Dropped int64
}

// ShardStats reports each shard's counters, indexed by shard id.
func (p *Primary) ShardStats() []ShardStat {
	snaps := p.engine.ShardStats()
	out := make([]ShardStat, len(snaps))
	for i, s := range snaps {
		out[i] = ShardStat{Writes: s.Writes, Skipped: s.Skipped, Shipped: s.Shipped, Dropped: s.Dropped}
	}
	return out
}

// ShardDirtyRanges returns replica i's dirty runs restricted to shard
// s — the unit a per-shard ranged resync repairs.
func (p *Primary) ShardDirtyRanges(i, s int) []Range {
	rs := p.engine.ShardDirtyRanges(i, s)
	out := make([]Range, len(rs))
	for j, r := range rs {
		out[j] = Range{Start: r.Start, Count: r.Count}
	}
	return out
}

func toBlockRanges(ranges []Range) []block.Range {
	out := make([]block.Range, len(ranges))
	for i, r := range ranges {
		out[i] = block.Range{Start: r.Start, Count: r.Count}
	}
	return out
}

// ScrubStats is a snapshot of one background scrubber's counters.
type ScrubStats struct {
	// Passes is how many full device scrubs have completed.
	Passes int64
	// Scanned is how many blocks have been hash-compared.
	Scanned int64
	// Diverged is how many blocks were found differing.
	Diverged int64
	// Repaired is how many diverged blocks were rewritten.
	Repaired int64
}

// StartScrub launches a background scrubber against the replica
// export at addr: every interval it walks the whole device comparing
// content hashes and rewrites any block that differs, pausing for
// pause between hash batches so the audit trickles along under live
// replication. The scrubber uses its own session and is stopped by
// Close.
func (p *Primary) StartScrub(addr, exportName string, interval, pause time.Duration) error {
	conn, err := iscsi.Dial(addr)
	if err != nil {
		return err
	}
	if err := conn.Login(exportName); err != nil {
		_ = conn.Close()
		return err
	}
	s := resync.NewScrubber(p.engine, conn, resync.Config{}, pause)
	s.Start(interval)
	p.scrubs = append(p.scrubs, &scrubSession{conn: conn, s: s})
	return nil
}

// ScrubStats reports each running scrubber's counters, in StartScrub
// order.
func (p *Primary) ScrubStats() []ScrubStats {
	out := make([]ScrubStats, len(p.scrubs))
	for i, sc := range p.scrubs {
		m := sc.s.Metrics()
		out[i] = ScrubStats{
			Passes:   m.Passes,
			Scanned:  m.Scanned,
			Diverged: m.Diverged,
			Repaired: m.Repaired,
		}
	}
	return out
}

// ClearDegraded re-admits all replicas to live replication, zeroes
// their lag, and forgets any sticky asynchronous delivery error so a
// healed Primary drains cleanly again. Call it only after quiescing
// writes (Drain) and healing each degraded replica with a resync;
// clearing a stale replica corrupts it in PRINS mode, which XORs
// against the replica's current content.
func (p *Primary) ClearDegraded() { p.engine.ClearDegraded() }

// Group returns the erasure-coded group shape, or (0, 0) when the
// primary mirrors full copies.
func (p *Primary) Group() (k, n int) {
	g := p.engine.Group()
	return g.K, g.N
}

// GroupUnitSize returns the stripe unit size group replicas must use
// as their block size, or zero when the primary mirrors.
func (p *Primary) GroupUnitSize() int { return p.engine.GroupUnitSize() }

// RepairGroupUnit rebuilds stripe unit lost of a k-of-n group onto the
// group replica serving exportName at addr. local is the group's
// logical device: the primary's own store, or its served export
// mounted with Dial. The rebuild is a resync from local projected onto
// the unit: each compared block is read from local and RS-encoded, and
// only unit blocks whose hash differs from the replica's are shipped,
// one unit (not k of them) per block. With no ranges the whole device
// is compared; pass DirtyRanges output to rebuild only what the
// replica missed. Quiesce writes to local first.
func RepairGroupUnit(local Store, k, n, lost int, addr, exportName string, ranges ...Range) (ResyncStats, error) {
	unit, err := newGroupUnit(local, k, n, lost)
	if err != nil {
		return ResyncStats{}, err
	}
	return resyncTo(unit, addr, exportName, resync.Config{}, wholeIfNone(local, ranges))
}

// groupUnit is the read-only view of a logical device as one unit of
// its stripe: block lba of the view is unit `unit` of the RS encoding
// of block lba of src, encoded alone. It reuses one block buffer, so it
// serves one reader at a time, as a resync's comparer is.
type groupUnit struct {
	src  Store
	rs   *parity.RS
	unit int
	blk  []byte
}

// newGroupUnit returns src viewed as unit `unit` of its k-of-n stripe.
func newGroupUnit(src Store, k, n, unit int) (*groupUnit, error) {
	rs, err := parity.NewRS(k, n)
	if err != nil {
		return nil, err
	}
	if unit < 0 || unit >= n {
		return nil, fmt.Errorf("prins: unit %d outside a %d-unit group", unit, n)
	}
	return &groupUnit{src: src, rs: rs, unit: unit, blk: make([]byte, src.BlockSize())}, nil
}

func (g *groupUnit) ReadBlock(lba uint64, buf []byte) error {
	if len(buf) != g.BlockSize() {
		return block.ErrBadBufSize
	}
	if err := g.src.ReadBlock(lba, g.blk); err != nil {
		return err
	}
	return g.rs.EncodeUnit(buf, g.blk, g.unit)
}

// WriteBlock refuses: the view is a resync source, never a target.
func (g *groupUnit) WriteBlock(uint64, []byte) error {
	return errors.New("prins: a group unit view is read-only")
}

func (g *groupUnit) BlockSize() int    { return g.rs.UnitSize(len(g.blk)) }
func (g *groupUnit) NumBlocks() uint64 { return g.src.NumBlocks() }
func (g *groupUnit) Close() error      { return nil }

// ReplicaStat is one attached replica's pipeline health and delivery
// counters.
type ReplicaStat struct {
	// Degraded reports whether this replica has been dropped from live
	// replication.
	Degraded bool
	// Shipped is the number of frames this replica acknowledged.
	Shipped int64
	// PayloadBytes is the encoded payload delivered to this replica.
	PayloadBytes int64
	// WireBytes models on-the-wire bytes delivered to this replica.
	WireBytes int64
	// Retries counts delivery attempts beyond the first.
	Retries int64
	// Reconnects counts how many times the replica's session was
	// re-established after it failed (0 for an in-process replica).
	Reconnects int64
	// Dropped counts frames elided while the replica was degraded.
	Dropped int64
	// Lag is how many frames behind this replica currently is; zeroed
	// by ClearDegraded after a resync.
	Lag int64
	// Diverged counts applies this replica refused after hash
	// verification failed; the refused blocks are in DirtyRanges.
	Diverged int64
	// DedupeHits counts frames delivered to this replica by reference
	// instead of by value (requires Config.DedupeEntries).
	DedupeHits int64
	// DedupeMisses counts by-ref attempts this replica refused with
	// REF-MISS.
	DedupeMisses int64
	// DedupeSavedWireBytes is the net data-segment bytes dedupe saved
	// on this replica's wire, crediting delivered writes only.
	DedupeSavedWireBytes int64
	// Squeezed counts entries this replica acknowledged in a squeezed
	// list (an Async primary's backlog runs; DESIGN.md section
	// 4, "Squeezing a backlog"), SqueezeSavedWireBytes the bytes
	// squeezing took off their pushes, and SqueezeSwitches how often a
	// ship pipeline's gate turned squeezing on or off.
	Squeezed              int64
	SqueezeSavedWireBytes int64
	SqueezeSwitches       int64
}

// ReplicaStats reports each attached replica's state in attach order.
func (p *Primary) ReplicaStats() []ReplicaStat { return replicaStats(p.engine) }

// replicaStats reports one engine's replicas; a Primary and a Volume
// report the same set.
func replicaStats(e *core.Engine) []ReplicaStat {
	stats := e.ReplicaStats()
	out := make([]ReplicaStat, len(stats))
	for i, rs := range stats {
		out[i] = ReplicaStat{
			Degraded:     rs.Degraded,
			Shipped:      rs.Metrics.Shipped,
			PayloadBytes: rs.Metrics.PayloadBytes,
			WireBytes:    rs.Metrics.WireBytes,
			Retries:      rs.Metrics.Retries,
			Reconnects:   rs.Reconnects,
			Dropped:      rs.Metrics.Dropped,
			Lag:          rs.Metrics.Lag,
			Diverged:     rs.Metrics.Diverged,

			DedupeHits:           rs.Metrics.DedupeHits,
			DedupeMisses:         rs.Metrics.DedupeMisses,
			DedupeSavedWireBytes: rs.Metrics.DedupeSavedWire,

			Squeezed:              rs.Metrics.Squeezed,
			SqueezeSavedWireBytes: rs.Metrics.SqueezeSavedWire,
			SqueezeSwitches:       rs.Metrics.SqueezeSwitches,
		}
	}
	return out
}

// Stats snapshots the replication counters.
func (p *Primary) Stats() Stats { return engineStats(p.engine) }

// engineStats snapshots one engine's replication counters; a Primary
// and a Volume report the same set.
func engineStats(e *core.Engine) Stats {
	s := e.Traffic().Snapshot()
	return Stats{
		Writes:              s.Writes,
		Replicated:          s.Replicated,
		Skipped:             s.Skipped,
		PayloadBytes:        s.PayloadBytes,
		WireBytes:           s.WireBytes,
		RawBytes:            s.RawBytes,
		EncodeTime:          s.EncodeTime,
		MeanPayload:         s.MeanPayload(),
		SavingsVsRaw:        s.SavingsVsRaw(),
		MeanChangedFraction: e.Density().Mean(),
		Retries:             s.Retries,
		Dropped:             s.Dropped,
		Diverged:            s.Diverged,
		Batches:             s.Batches,
		CoalescedFrames:     s.Coalesced,
		BatchSavedWireBytes: s.BatchSavedWire,

		DedupeHits:           s.DedupeHits,
		DedupeMisses:         s.DedupeMisses,
		DedupeSavedWireBytes: s.DedupeSavedWire,
	}
}

// Close stops the scrubbers, drains replication, stops serving, and
// closes replica connections. The local store remains open (the
// caller owns it). Scrubbers stop FIRST: a scrub pass reads the
// engine and repairs over its own session, so tearing the engine down
// under an in-flight pass would race it.
func (p *Primary) Close() error {
	var err error
	for _, sc := range p.scrubs {
		if serr := sc.s.Stop(); err == nil {
			err = serr
		}
		_ = sc.conn.Close()
	}
	p.scrubs = nil
	if cerr := p.engine.Close(); err == nil {
		err = cerr
	}
	if p.target != nil {
		if cerr := p.target.Close(); err == nil {
			err = cerr
		}
	}
	for _, c := range p.conns {
		if cerr := c.Close(); err == nil && !errors.Is(cerr, net.ErrClosed) {
			err = cerr
		}
	}
	for _, c := range p.resilient {
		if cerr := c.Close(); err == nil && !errors.Is(cerr, net.ErrClosed) {
			err = cerr
		}
	}
	return err
}

// Replica is the replica-side engine: it applies pushes from a
// primary to its local store, keeping a byte-identical copy.
type Replica struct {
	engine *core.ReplicaEngine
	target *iscsi.Target
	jrnl   *journal.Journal
}

// NewReplica wraps local as a replication target. Applies are not
// crash-safe; see NewReplicaJournaled.
func NewReplica(local Store) *Replica {
	return &Replica{engine: core.NewReplicaEngine(local)}
}

// NewReplicaJournaled wraps local as a replication target whose
// applies go through a crash-safe intent journal at journalPath: the
// decoded new block is persisted before the in-place write, so a
// write torn by a crash is replayed — here, on reopen — instead of
// leaving a block that is neither old nor new (fatal under PRINS's
// XOR recovery).
func NewReplicaJournaled(local Store, journalPath string) (*Replica, error) {
	jrnl, err := journal.OpenFile(journalPath)
	if err != nil {
		return nil, err
	}
	engine, err := core.NewReplicaEngineJournaled(local, jrnl)
	if err != nil {
		_ = jrnl.Close()
		return nil, err
	}
	return &Replica{engine: engine, jrnl: jrnl}, nil
}

// Serve exposes the replica on the network: primaries replicate to it
// and resync it, and clients may mount it (read-mostly) for
// verification or failover.
func (r *Replica) Serve(addr, exportName string) (net.Addr, error) {
	if r.target == nil {
		r.target = iscsi.NewTarget()
	}
	r.target.Export(exportName, r.engine)
	return r.target.Listen(addr)
}

// Store returns the replica's local device.
func (r *Replica) Store() Store { return r.engine.Store() }

// SetDedupe bounds (entries > 0) or disables (entries <= 0) the
// replica's content-addressed index — the table that lets a by-ref
// push (wire protocol v8) be materialized by local copy. Replicas run
// a default-sized index out of the box; disabling it forces every
// by-ref push into a REF-MISS fallback, which the primary heals by
// re-shipping the frame by value, so it is always safe, just slower.
// Call before Serve.
func (r *Replica) SetDedupe(entries int) { r.engine.SetDedupe(entries) }

// WarmDedupe scans the replica's device into its content index so a
// freshly (re)started or freshly InitialSync'd replica resolves
// by-ref pushes immediately instead of waiting for live applies to
// repopulate the index. Call before Serve or with applies quiesced.
func (r *Replica) WarmDedupe() error { return r.engine.WarmDedupe() }

// AppliedWrites returns how many pushes the replica has applied.
func (r *Replica) AppliedWrites() int64 {
	return r.engine.Traffic().Snapshot().ReplicaWrites
}

// Diverged returns how many pushes the replica refused because the
// recovered block failed hash verification.
func (r *Replica) Diverged() int64 {
	return r.engine.Traffic().Snapshot().Diverged
}

// Close stops serving and releases the journal, if any.
func (r *Replica) Close() error {
	var err error
	if r.target != nil {
		err = r.target.Close()
	}
	if r.jrnl != nil {
		if jerr := r.jrnl.Close(); err == nil {
			err = jerr
		}
	}
	return err
}

// RemoteStore is a Store mounted from a remote node plus session
// control.
type RemoteStore interface {
	Store
	// Logout ends the session politely before Close.
	Logout() error
}

// Dial mounts the named export at addr as a local Store, the way the
// paper's applications sit on an iSCSI initiator.
func Dial(addr, exportName string) (RemoteStore, error) {
	init, err := iscsi.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := init.Login(exportName); err != nil {
		_ = init.Close()
		return nil, err
	}
	return init, nil
}

// Equal reports whether two stores hold identical contents — the
// replica-convergence check.
func Equal(a, b Store) (bool, error) {
	return block.Equal(a, b)
}
