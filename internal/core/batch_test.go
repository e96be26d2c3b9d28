package core

import (
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"prins/internal/block"
	"prins/internal/faults"
	"prins/internal/iscsi"
	"prins/internal/wan"
)

// gatedClient wraps a Loopback so a test can hold the shipper inside
// its first delivery: everything the test writes while the gate is
// closed piles up in the pipeline queue, and when the gate opens the
// shipper drains exactly that backlog into one batch — deterministic
// batch composition without sleeping.
type gatedClient struct {
	inner   *Loopback
	started chan struct{} // closed when the first delivery begins
	gate    chan struct{} // deliveries block here until closed
	once    sync.Once

	mu      sync.Mutex
	singles int
	batches [][]iscsi.BatchEntry
	// sent holds, per squeezed push, the data-segment bytes it shipped
	// and the plain list's, and tags the history tag of each that
	// shipped squeezed.
	sent [][2]int
	tags []uint64
	// tx and rx are the two ends of the one stream's squeeze history a
	// squeezed push goes through, as it would through a session.
	tx      iscsi.SqueezeSender
	rx      iscsi.SqueezeReceiver
	decoded []iscsi.BatchEntry
	// unverified counts the squeezed pushes the replica answered
	// unverified, each re-shipped plain.
	unverified int
}

func newGatedClient(r *ReplicaEngine) *gatedClient {
	return &gatedClient{
		inner:   &Loopback{Replica: r},
		started: make(chan struct{}),
		gate:    make(chan struct{}),
	}
}

func (g *gatedClient) block() {
	g.once.Do(func() { close(g.started) })
	<-g.gate
}

func (g *gatedClient) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	g.block()
	g.mu.Lock()
	g.singles++
	g.mu.Unlock()
	return g.inner.ReplicaWriteStream(mode, shard, vol, seq, lba, hash, frame)
}

func (g *gatedClient) ReplicaWriteBatchStream(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) ([]iscsi.Status, error) {
	g.block()
	copied := make([]iscsi.BatchEntry, len(entries))
	for i, e := range entries {
		copied[i] = e
		copied[i].Frame = append([]byte(nil), e.Frame...)
	}
	g.mu.Lock()
	g.batches = append(g.batches, copied)
	g.mu.Unlock()
	return g.inner.ReplicaWriteBatchStream(mode, shard, vol, entries)
}

// ReplicaWriteSqueezed records a squeezed push among the batches, its
// entries with their frames as encoded, and the bytes it shipped.
func (g *gatedClient) ReplicaWriteSqueezed(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) ([]iscsi.Status, int, error) {
	g.block()
	st, sent, err := g.squeeze(mode, shard, vol, entries)
	g.mu.Lock()
	g.batches = append(g.batches, copyEntries(entries))
	g.sent = append(g.sent, [2]int{sent, iscsi.BatchWireLen(entries)})
	g.mu.Unlock()
	return st, sent, err
}

// squeeze ships a squeezed push through both ends of the client's
// stream history, as a session would, and applies what the receiving
// end decodes, verified against its digest; a list the replica answers
// unverified is re-shipped plain, as iscsi.Initiator does. The stream's
// pushes are one at a time, as an async pipe's are.
func (g *gatedClient) squeeze(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) ([]iscsi.Status, int, error) {
	plain := func() ([]iscsi.Status, error) {
		return g.inner.ReplicaWriteBatchStream(mode, shard, vol, entries)
	}
	seg, tag, ok, err := g.tx.Encode(entries)
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		st, err := plain()
		return st, iscsi.BatchWireLen(entries), err
	}
	decoded, err := g.rx.Decode(g.decoded, seg, tag)
	if err != nil {
		g.tx.Reset()
		return nil, 0, err
	}
	g.tx.Commit()
	g.decoded = decoded
	g.mu.Lock()
	g.tags = append(g.tags, tag)
	g.mu.Unlock()
	st := g.inner.Replica.HandleReplicaSqueezed(mode, shard, vol, decoded, g.rx.Digest())
	if slices.ContainsFunc(st, func(s iscsi.Status) bool { return s != iscsi.StatusUnverified }) {
		return st, len(seg), nil
	}
	g.mu.Lock()
	g.unverified++
	g.mu.Unlock()
	st, err = plain()
	return st, len(seg) + iscsi.BatchWireLen(entries), err
}

func (g *gatedClient) ResetSqueeze(uint8, uint16) { g.tx.Reset() }

// copyEntries deep-copies a push's entries, frames included.
func copyEntries(entries []iscsi.BatchEntry) []iscsi.BatchEntry {
	copied := make([]iscsi.BatchEntry, len(entries))
	for i, e := range entries {
		copied[i] = e
		copied[i].Frame = append([]byte(nil), e.Frame...)
	}
	return copied
}

// batchPair builds a PRINS async engine whose single replica sits
// behind a gated loopback client.
func batchPair(t *testing.T, cfg Config, bs int, nb uint64) (*Engine, *ReplicaEngine, block.Store, block.Store, *gatedClient) {
	t.Helper()
	primaryStore, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	replicaStore, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	replica := NewReplicaEngine(replicaStore)
	e, err := NewEngine(primaryStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	g := newGatedClient(replica)
	e.AttachReplica(g)
	return e, replica, primaryStore, replicaStore, g
}

// fillBlock returns a block-sized buffer with a distinctive fill.
func fillBlock(bs int, fill byte) []byte {
	buf := make([]byte, bs)
	for i := 0; i < bs/8; i++ { // sparse change: realistic PRINS parity
		buf[i] = fill
	}
	return buf
}

// TestBatchCoalescesSameLBA: back-to-back PRINS writes to one LBA that
// land in the same drained batch ship as a single XOR-merged frame
// carrying the newest seq and hash, the replica converges to the final
// content, and both coalescing counters advance.
func TestBatchCoalescesSameLBA(t *testing.T) {
	const bs, nb = 512, 16
	e, replica, primaryStore, replicaStore, g := batchPair(t, Config{
		Mode:        ModePRINS,
		Async:       true,
		BatchFrames: 64,
	}, bs, nb)

	// First write: the shipper picks it up alone and blocks at the gate.
	if err := e.WriteBlock(0, fillBlock(bs, 1)); err != nil {
		t.Fatal(err)
	}
	<-g.started

	// Backlog while the gate is closed: two writes to LBA 5 (the
	// coalescing candidates) plus two other blocks.
	for _, w := range []struct {
		lba  uint64
		fill byte
	}{{5, 2}, {6, 3}, {5, 4}, {7, 5}} {
		if err := e.WriteBlock(w.lba, fillBlock(bs, w.fill)); err != nil {
			t.Fatal(err)
		}
	}
	close(g.gate)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if g.singles != 1 {
		t.Errorf("first delivery: %d single pushes, want 1", g.singles)
	}
	if len(g.batches) != 1 {
		t.Fatalf("got %d batches, want 1", len(g.batches))
	}
	batch := g.batches[0]
	if len(batch) != 3 {
		t.Fatalf("batch carries %d entries, want 3 (two LBA-5 frames merged)", len(batch))
	}
	for k := 1; k < len(batch); k++ {
		if batch[k].Seq <= batch[k-1].Seq {
			t.Errorf("batch entries not seq-sorted: %d then %d", batch[k-1].Seq, batch[k].Seq)
		}
	}
	var merged *iscsi.BatchEntry
	for k := range batch {
		if batch[k].LBA == 5 {
			merged = &batch[k]
		}
	}
	if merged == nil {
		t.Fatal("no entry for the coalesced LBA")
	}
	// The merged entry must describe the block after the NEWEST write:
	// seq 4 (writes 2..5 queued behind the gate) and the final hash.
	if merged.Seq != 4 {
		t.Errorf("merged entry seq = %d, want 4 (the last LBA-5 write)", merged.Seq)
	}
	if want := iscsi.HashBlock(fillBlock(bs, 4)); merged.Hash != want {
		t.Errorf("merged entry hash = %x, want hash of the final content %x", merged.Hash, want)
	}

	mustEqual(t, "replica after coalesced batch", replicaStore, primaryStore)

	s := e.Traffic().Snapshot()
	if s.Coalesced != 1 {
		t.Errorf("Coalesced = %d, want 1", s.Coalesced)
	}
	if s.Batches != 1 {
		t.Errorf("Batches = %d, want 1", s.Batches)
	}
	// Replicated counts logical pushes delivered, merged or not.
	if s.Replicated != 5 {
		t.Errorf("Replicated = %d, want 5", s.Replicated)
	}
	// Frames-per-batch histogram: one delivery of 1, one of 4.
	if s.FramesPerBatch[0] != 1 || s.FramesPerBatch[2] != 1 {
		t.Errorf("FramesPerBatch = %v, want one batch-of-1 and one batch-of-4", s.FramesPerBatch)
	}
	// The replica applied 4 frames for 5 writes: one was merged away.
	if got := replica.Traffic().Snapshot().ReplicaWrites; got != 4 {
		t.Errorf("replica applied %d frames, want 4", got)
	}
	if rs := e.ReplicaStats(); rs[0].Metrics.Coalesced != 1 || rs[0].Metrics.Batches != 1 {
		t.Errorf("per-replica batch counters = %+v, want Coalesced 1, Batches 1", rs[0].Metrics)
	}
}

// TestBatchMixedResultMarksOnlyDivergedDirty: one corrupted replica
// block inside a batch comes back StatusDiverged for its own entry
// only — the batch-mates apply, the writes all succeed, and exactly the
// diverged LBA lands in the dirty map for a ranged resync.
func TestBatchMixedResultMarksOnlyDivergedDirty(t *testing.T) {
	const bs, nb = 512, 16
	e, _, primaryStore, replicaStore, g := batchPair(t, Config{
		Mode:        ModePRINS,
		Async:       true,
		BatchFrames: 64,
	}, bs, nb)

	// Corrupt the replica's copy of LBA 7 before replication touches it:
	// its PRINS pre-image no longer matches the primary's, so the
	// backward parity recovers a block whose hash cannot verify.
	if err := replicaStore.WriteBlock(7, fillBlock(bs, 0xEE)); err != nil {
		t.Fatal(err)
	}

	if err := e.WriteBlock(0, fillBlock(bs, 1)); err != nil {
		t.Fatal(err)
	}
	<-g.started
	for _, w := range []struct {
		lba  uint64
		fill byte
	}{{6, 2}, {7, 3}, {8, 4}} {
		if err := e.WriteBlock(w.lba, fillBlock(bs, w.fill)); err != nil {
			t.Fatal(err)
		}
	}
	close(g.gate)
	if err := e.Drain(); err != nil {
		t.Fatalf("a diverged entry must not fail the drain: %v", err)
	}

	if got := e.DirtyRanges(0); len(got) != 1 || got[0].Start != 7 || got[0].Count != 1 {
		t.Errorf("DirtyRanges = %+v, want exactly [{7 1}]", got)
	}
	if s := e.Traffic().Snapshot(); s.Diverged != 1 {
		t.Errorf("Diverged = %d, want 1", s.Diverged)
	}

	// The batch-mates were applied; only the refused block differs.
	buf := make([]byte, bs)
	want := make([]byte, bs)
	for _, lba := range []uint64{0, 6, 8} {
		if err := replicaStore.ReadBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
		if err := primaryStore.ReadBlock(lba, want); err != nil {
			t.Fatal(err)
		}
		if string(buf) != string(want) {
			t.Errorf("lba %d: batch-mate did not apply", lba)
		}
	}
	if err := replicaStore.ReadBlock(7, buf); err != nil {
		t.Fatal(err)
	}
	if err := primaryStore.ReadBlock(7, want); err != nil {
		t.Fatal(err)
	}
	if string(buf) == string(want) {
		t.Error("diverged block must be refused, not silently written")
	}
}

// singleOnlyClient hides Loopback's batching side, standing in for a
// pre-batching replica client.
type singleOnlyClient struct{ inner *Loopback }

func (c *singleOnlyClient) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	return c.inner.ReplicaWriteStream(mode, shard, vol, seq, lba, hash, frame)
}

// TestBatchFallsBackForSingleFrameClients: a client without
// ReplicaWriteBatchStream keeps the v3 single-frame ship path even with
// batching configured, and still converges.
func TestBatchFallsBackForSingleFrameClients(t *testing.T) {
	const bs, nb = 512, 32
	primaryStore, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	replicaStore, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(primaryStore, Config{Mode: ModePRINS, Async: true, BatchFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AttachReplica(&singleOnlyClient{inner: &Loopback{Replica: NewReplicaEngine(replicaStore)}})

	writeWorkload(t, e, 42, 80)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "replica behind single-frame client", replicaStore, primaryStore)
	if s := e.Traffic().Snapshot(); s.Batches != 0 {
		t.Errorf("Batches = %d, want 0 for a client without batch support", s.Batches)
	}
}

// TestBatchDisabled: BatchFrames 1 keeps even batch-capable clients on
// the single-frame path.
func TestBatchDisabled(t *testing.T) {
	const bs, nb = 512, 32
	e, _, primaryStore, replicaStore, g := batchPair(t, Config{
		Mode:        ModePRINS,
		Async:       true,
		BatchFrames: 1,
	}, bs, nb)
	close(g.gate)

	writeWorkload(t, e, 43, 80)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "replica with batching disabled", replicaStore, primaryStore)
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.batches) != 0 {
		t.Errorf("BatchFrames=1 still shipped %d batches", len(g.batches))
	}
	if s := e.Traffic().Snapshot(); s.Batches != 0 || s.Coalesced != 0 {
		t.Errorf("Batches = %d, Coalesced = %d, want 0, 0", s.Batches, s.Coalesced)
	}
}

// TestChaosBatchConnResetMidBatch drops the replication connection in
// the middle of a batched stream: the initiator reconnects, the whole
// batch is redelivered, and the replica's seq dedupe must acknowledge
// the already-applied prefix instead of double-XORing it — under PRINS
// a double apply corrupts the block, so byte-equality with a fault-free
// run is the no-double-apply proof.
func TestChaosBatchConnResetMidBatch(t *testing.T) {
	const (
		bs     = 1024
		nb     = 64
		seed   = 99
		writes = 120
	)
	base := chaosBaseline(t, bs, nb, []int64{seed}, writes)

	replicaStore, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	node := startNode(t, "replica", NewReplicaEngine(replicaStore))

	// The replication session: TCP, then a scheduled mid-stream reset,
	// then WAN shaping so the async writer builds the backlog batches
	// form from. The reset trips inside the batched stream (well past
	// the first few frames); reconnection dials a clean conn.
	raw, err := net.Dial("tcp", node.addr.String())
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.NewPlan(1)
	faulted := plan.WrapConn(raw, faults.ConnFaults{Fault: faults.FaultReset, AfterBytes: 2000})
	shaped := wan.Shape(faulted, wan.LinkConfig{Latency: 2 * time.Millisecond})
	repConn := iscsi.NewInitiator(shaped)
	defer repConn.Close()
	if err := repConn.Login("replica"); err != nil {
		t.Fatal(err)
	}
	repConn.EnableReconnect("replica", func() (net.Conn, error) {
		return net.DialTimeout("tcp", node.addr.String(), time.Second)
	})

	primaryStore, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(primaryStore, Config{
		Mode:        ModePRINS,
		Async:       true,
		Retry:       chaosRetry(),
		BatchFrames: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AttachReplica(repConn)

	writeWorkload(t, e, seed, writes)
	if err := e.Drain(); err != nil {
		t.Fatalf("drain after mid-batch reset: %v", err)
	}

	if !faulted.Tripped() {
		t.Fatal("the scheduled reset never fired")
	}
	if repConn.Reconnects() == 0 {
		t.Error("session should have reconnected after the reset")
	}
	s := e.Traffic().Snapshot()
	if s.Batches == 0 {
		t.Error("workload never formed a batch; the reset did not exercise batched shipping")
	}
	if s.Replicated+s.Dropped != int64(writes) {
		t.Errorf("replicated %d + dropped %d != %d writes", s.Replicated, s.Dropped, writes)
	}
	mustEqual(t, "primary after mid-batch reset", primaryStore, base)
	mustEqual(t, "replica after mid-batch reset (double apply would diverge)", replicaStore, base)
}

// TestBatchConfigDefaults pins the knob clamping: zero selects the
// default, negatives disable, and the wire cap bounds the top.
func TestBatchConfigDefaults(t *testing.T) {
	for _, tt := range []struct {
		in     Config
		frames int
	}{
		{Config{Mode: ModePRINS}, 32},
		{Config{Mode: ModePRINS, BatchFrames: -3}, 1},
		{Config{Mode: ModePRINS, BatchFrames: 1 << 20}, iscsi.MaxBatchFrames},
	} {
		if got := tt.in.withDefaults(); got.BatchFrames != tt.frames {
			t.Errorf("withDefaults(%+v): BatchFrames %d, want %d", tt.in, got.BatchFrames, tt.frames)
		}
	}
}

// TestBatchSavedWireExcludesFailedCoalesced: the batch savings counter
// measures delivered messages against single-frame shipping, so a
// coalesced entry the replica refuses must not credit its merged-away
// frames as savings. Regression test: two LBA-5 writes coalesce into
// one entry, the replica's LBA-5 pre-image is corrupted so that entry
// comes back StatusDiverged, and BatchSavedWire must be computed from
// the OK entries alone (it can go negative — the refused entry's wire
// bytes were spent without delivering anything).
func TestBatchSavedWireExcludesFailedCoalesced(t *testing.T) {
	const bs, nb = 512, 16
	e, _, _, replicaStore, g := batchPair(t, Config{
		Mode:        ModePRINS,
		Async:       true,
		BatchFrames: 64,
	}, bs, nb)

	// First write: the shipper picks it up alone and blocks at the gate.
	if err := e.WriteBlock(0, fillBlock(bs, 1)); err != nil {
		t.Fatal(err)
	}
	<-g.started

	// Backlog behind the gate: two LBA-5 writes (the coalescing pair)
	// plus two healthy blocks.
	for _, w := range []struct {
		lba  uint64
		fill byte
	}{{5, 2}, {6, 3}, {5, 4}, {7, 5}} {
		if err := e.WriteBlock(w.lba, fillBlock(bs, w.fill)); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the replica's LBA-5 pre-image so the merged entry's
	// backward XOR recovers garbage and fails its hash check.
	bad := make([]byte, bs)
	for i := range bad {
		bad[i] = 0xee
	}
	if err := replicaStore.WriteBlock(5, bad); err != nil {
		t.Fatal(err)
	}
	close(g.gate)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}

	g.mu.Lock()
	if len(g.batches) != 1 {
		g.mu.Unlock()
		t.Fatalf("got %d batches, want 1", len(g.batches))
	}
	batch := g.batches[0]
	g.mu.Unlock()
	if len(batch) != 3 {
		t.Fatalf("batch carries %d entries, want 3 (two LBA-5 frames merged)", len(batch))
	}

	// Expected savings: only the delivered (OK) entries count toward
	// the unbatched baseline; the whole batch's wire cost counts
	// against. The diverged LBA-5 group contributes nothing.
	var unbatchedOK int64
	for _, be := range batch {
		if be.LBA == 5 {
			continue
		}
		unbatchedOK += int64(wan.WireBytesDiscrete(len(be.Frame)))
	}
	want := unbatchedOK - int64(wan.WireBytesDiscrete(iscsi.BatchWireLen(batch)))

	s := e.Traffic().Snapshot()
	if s.Diverged != 1 {
		t.Fatalf("Diverged = %d, want 1 (the merged LBA-5 entry)", s.Diverged)
	}
	if s.BatchSavedWire != want {
		t.Errorf("BatchSavedWire = %d, want %d (OK entries only)", s.BatchSavedWire, want)
	}
	if rs := e.ReplicaStats(); rs[0].Metrics.BatchSavedWire != want {
		t.Errorf("per-replica BatchSavedWire = %d, want %d", rs[0].Metrics.BatchSavedWire, want)
	}
}
