package core

import (
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"prins/internal/block"
	"prins/internal/iscsi"
	"prins/internal/resync"
)

// byrefGated is the gated loopback client that records the lists that
// carry a reference apart from the others, so a test can pile a
// deterministic backlog behind the gate and watch exactly which
// deliveries go out as references.
type byrefGated struct {
	gatedClient
	byrefs [][]iscsi.BatchEntry
}

func newByrefGated(r *ReplicaEngine) *byrefGated {
	return &byrefGated{gatedClient: gatedClient{
		inner:   &Loopback{Replica: r},
		started: make(chan struct{}),
		gate:    make(chan struct{}),
	}}
}

// hasRef reports whether a list carries a reference.
func hasRef(entries []iscsi.BatchEntry) bool {
	return slices.ContainsFunc(entries, func(e iscsi.BatchEntry) bool { return e.ByRef() })
}

func (g *byrefGated) ReplicaWriteBatchStream(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) ([]iscsi.Status, error) {
	if !hasRef(entries) {
		return g.gatedClient.ReplicaWriteBatchStream(mode, shard, vol, entries)
	}
	g.block()
	copied := make([]iscsi.BatchEntry, len(entries))
	for i, e := range entries {
		copied[i] = e
		copied[i].Frame = append([]byte(nil), e.Frame...)
	}
	g.mu.Lock()
	g.byrefs = append(g.byrefs, copied)
	g.mu.Unlock()
	return g.inner.ReplicaWriteBatchStream(mode, shard, vol, entries)
}

// ReplicaWriteSqueezed records a squeezed by-ref push among the by-ref
// pushes (a by-value one among the batches, as gatedClient does).
func (g *byrefGated) ReplicaWriteSqueezed(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) ([]iscsi.Status, int, error) {
	if !hasRef(entries) {
		return g.gatedClient.ReplicaWriteSqueezed(mode, shard, vol, entries)
	}
	g.block()
	st, sent, err := g.squeeze(mode, shard, vol, entries)
	g.mu.Lock()
	g.byrefs = append(g.byrefs, copyEntries(entries))
	g.sent = append(g.sent, [2]int{sent, iscsi.BatchWireLen(entries)})
	g.mu.Unlock()
	return st, sent, err
}

// byrefPair builds a PRINS async dedupe engine whose single replica
// sits behind a gated loopback client that tells by-ref lists apart.
func byrefPair(t *testing.T, cfg Config, bs int, nb uint64) (*Engine, *ReplicaEngine, block.Store, block.Store, *byrefGated) {
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
	g := newByrefGated(replica)
	e.AttachReplica(g)
	return e, replica, primaryStore, replicaStore, g
}

// TestByRefShipsReferencesForKnownContent is the dedupe fast path end
// to end: once the replica has acknowledged holding some content, every
// later queued frame with that content ships as a reference
// instead of the parity frame, the replica materializes the blocks by
// local copy, and both saved bytes and hit counters record it.
func TestByRefShipsReferencesForKnownContent(t *testing.T) {
	const bs, nb = 512, 32
	e, replica, primaryStore, replicaStore, g := byrefPair(t, Config{
		Mode:          ModePRINS,
		Async:         true,
		BatchFrames:   64,
		DedupeEntries: 1024,
	}, bs, nb)

	content := fillBlock(bs, 9)
	// First write ships by value (the index has never seen the hash)
	// and blocks at the gate; the duplicates pile up behind it.
	if err := e.WriteBlock(0, content); err != nil {
		t.Fatal(err)
	}
	<-g.started
	for lba := uint64(1); lba <= 4; lba++ {
		if err := e.WriteBlock(lba, content); err != nil {
			t.Fatal(err)
		}
	}
	close(g.gate)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.batches) != 1 || len(g.batches[0]) != 1 {
		t.Fatalf("by-value deliveries = %d batches, want exactly the warmup push", len(g.batches))
	}
	if len(g.byrefs) != 1 || len(g.byrefs[0]) != 4 {
		t.Fatalf("by-ref deliveries = %v, want one push of 4 references", g.byrefs)
	}
	for i, be := range g.byrefs[0] {
		if !be.ByRef() {
			t.Errorf("entry %d shipped a %d-byte frame, want a pure reference", i, len(be.Frame))
		}
		if be.Hash != iscsi.HashBlock(content) {
			t.Errorf("entry %d hash = %x, want the content hash", i, be.Hash)
		}
	}

	frameLen := int64(len(g.batches[0][0].Frame))
	s := e.Traffic().Snapshot()
	if s.DedupeHits != 4 || s.DedupeMisses != 0 {
		t.Errorf("DedupeHits = %d, DedupeMisses = %d, want 4, 0", s.DedupeHits, s.DedupeMisses)
	}
	// All five writes carry identical content over zeroed blocks, so
	// every frame is byte-identical: the savings are exactly the four
	// elided frames.
	if want := 4 * frameLen; s.DedupeSavedWire != want {
		t.Errorf("DedupeSavedWire = %d, want %d (4 elided %d-byte frames)", s.DedupeSavedWire, want, frameLen)
	}
	if rs := e.ReplicaStats(); rs[0].Metrics.DedupeHits != 4 || rs[0].Metrics.DedupeSavedWire != 4*frameLen {
		t.Errorf("per-replica dedupe counters = %+v", rs[0].Metrics)
	}
	if got := e.ReplicaDedupe(0).Len(); got != 5 {
		t.Errorf("primary index tracks %d LBAs, want 5", got)
	}
	if got := replica.DedupeIndex().Len(); got != 5 {
		t.Errorf("replica index tracks %d LBAs, want 5", got)
	}
	if got := replica.Traffic().Snapshot().ReplicaWrites; got != 5 {
		t.Errorf("replica applied %d writes, want 5 (references materialize as applies)", got)
	}
	mustEqual(t, "replica after by-ref batch", replicaStore, primaryStore)
}

// TestByRefMissStormFallsBackByValue: a replica that runs no content
// index refuses every reference with REF-MISS. The primary must
// transparently re-ship the refused suffix by value — no write lost,
// none double-applied (byte equality under PRINS proves it) — and the
// savings counter must charge the wasted reference overhead rather
// than credit anything.
func TestByRefMissStormFallsBackByValue(t *testing.T) {
	const bs, nb = 512, 32
	e, replica, primaryStore, replicaStore, g := byrefPair(t, Config{
		Mode:          ModePRINS,
		Async:         true,
		BatchFrames:   64,
		DedupeEntries: 1024,
	}, bs, nb)
	// The replica opts out of dedupe entirely: every by-ref push will
	// come back StatusRefMiss.
	replica.SetDedupe(0)

	content := fillBlock(bs, 7)
	if err := e.WriteBlock(0, content); err != nil {
		t.Fatal(err)
	}
	<-g.started
	for lba := uint64(1); lba <= 4; lba++ {
		if err := e.WriteBlock(lba, content); err != nil {
			t.Fatal(err)
		}
	}
	close(g.gate)
	// The fallback must make every write succeed; nothing surfaces.
	if err := e.Drain(); err != nil {
		t.Fatalf("drain through a miss storm: %v", err)
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.byrefs) != 1 || len(g.byrefs[0]) != 4 {
		t.Fatalf("by-ref deliveries = %v, want one refused push of 4", g.byrefs)
	}
	// Warmup push, then the by-value fallback of the whole refused
	// suffix, frames intact.
	if len(g.batches) != 2 || len(g.batches[1]) != 4 {
		t.Fatalf("by-value deliveries = %d batches, want warmup + 4-entry fallback", len(g.batches))
	}
	for i, be := range g.batches[1] {
		if be.ByRef() {
			t.Errorf("fallback entry %d still shipped by reference", i)
		}
	}

	s := e.Traffic().Snapshot()
	if s.DedupeHits != 0 || s.DedupeMisses != 4 {
		t.Errorf("DedupeHits = %d, DedupeMisses = %d, want 0, 4", s.DedupeHits, s.DedupeMisses)
	}
	// Delivered-only accounting: nothing was saved, and each of the four
	// failed references cost the entry header it went out as.
	var want int64
	for k := range g.byrefs[0] {
		want -= int64(entryHeaderLen(g.byrefs[0], k))
	}
	if s.DedupeSavedWire != want {
		t.Errorf("DedupeSavedWire = %d, want %d (miss storms read negative)", s.DedupeSavedWire, want)
	}
	if got := replica.Traffic().Snapshot().ReplicaWrites; got != 5 {
		t.Errorf("replica applied %d writes, want 5 (refused references must not apply)", got)
	}
	mustEqual(t, "replica after miss-storm fallback", replicaStore, primaryStore)
}

// entryHeaderLen is the header bytes entries[k] cost in the entry list
// entries went out as.
func entryHeaderLen(entries []iscsi.BatchEntry, k int) int {
	if k == 0 {
		return iscsi.EntryHeaderLen(nil, &entries[0])
	}
	return iscsi.EntryHeaderLen(&entries[k-1], &entries[k])
}

// scriptedByRef is a by-ref-capable client whose replica side is
// scripted: it can resolve exactly the content hashes in resolvable,
// refuses the rest per the by-ref suffix rule, and accepts every by-value
// entry. It exists to pin the savings accounting on mixed status
// vectors without a real replica's behaviour in the way.
type scriptedByRef struct {
	started    chan struct{}
	gate       chan struct{}
	once       sync.Once
	resolvable map[uint64]bool

	mu      sync.Mutex
	byrefs  [][]iscsi.BatchEntry
	batches [][]iscsi.BatchEntry
}

func newScriptedByRef(resolvable ...uint64) *scriptedByRef {
	c := &scriptedByRef{
		started:    make(chan struct{}),
		gate:       make(chan struct{}),
		resolvable: make(map[uint64]bool, len(resolvable)),
	}
	for _, h := range resolvable {
		c.resolvable[h] = true
	}
	return c
}

func (c *scriptedByRef) block() {
	c.once.Do(func() { close(c.started) })
	<-c.gate
}

func (c *scriptedByRef) record(dst *[][]iscsi.BatchEntry, entries []iscsi.BatchEntry) {
	copied := make([]iscsi.BatchEntry, len(entries))
	for i, e := range entries {
		copied[i] = e
		copied[i].Frame = append([]byte(nil), e.Frame...)
	}
	c.mu.Lock()
	*dst = append(*dst, copied)
	c.mu.Unlock()
}

func (c *scriptedByRef) ReplicaWriteStream(uint8, uint8, uint16, uint64, uint64, uint64, []byte) error {
	c.block()
	return nil
}

func (c *scriptedByRef) ReplicaWriteBatchStream(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) ([]iscsi.Status, error) {
	c.block()
	if !hasRef(entries) {
		c.record(&c.batches, entries)
		return make([]iscsi.Status, len(entries)), nil // all OK
	}
	c.record(&c.byrefs, entries)
	statuses := make([]iscsi.Status, len(entries))
	for k := range entries {
		if entries[k].ByRef() && !c.resolvable[entries[k].Hash] {
			// By-ref suffix rule: the first unresolvable reference refuses
			// everything after it, applied or not.
			for j := k; j < len(entries); j++ {
				statuses[j] = iscsi.StatusRefMiss
			}
			break
		}
	}
	return statuses, nil
}

// TestDedupeSavedWireMixedStatuses pins the delivered-only savings
// accounting on a mixed batch (regression guard in the spirit of the
// batch-savings failed-entry fix): a delivered reference credits its
// elided frame, a reference that fell back charges its overhead, and a
// by-value entry dragged into the fallback suffix charges its whole
// first-attempt cost.
func TestDedupeSavedWireMixedStatuses(t *testing.T) {
	const bs, nb = 512, 32
	primaryStore, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	contentX := fillBlock(bs, 2) // resolvable on the fake replica
	contentZ := fillBlock(bs, 3) // promised by a stale index entry
	hX, hZ := iscsi.HashBlock(contentX), iscsi.HashBlock(contentZ)

	c := newScriptedByRef(hX)
	e, err := NewEngine(primaryStore, Config{
		Mode:          ModePRINS,
		Async:         true,
		BatchFrames:   64,
		DedupeEntries: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AttachReplica(c)

	// Warmup: ship contentX by value so the engine learns the replica
	// holds it (and so the test learns the frame size of contentX over
	// a zeroed block).
	if err := e.WriteBlock(9, contentX); err != nil {
		t.Fatal(err)
	}
	<-c.started
	// Plant a stale promise: the index claims some LBA holds contentZ.
	// (A real run gets here when the promised replica block is lost
	// after the index learned it.)
	e.ReplicaDedupe(0).Put(100, hZ)

	// The batch behind the gate: hit, by-value, stale hit, by-value.
	for _, w := range []struct {
		lba  uint64
		data []byte
	}{
		{1, contentX},         // A: delivered by reference
		{2, fillBlock(bs, 4)}, // B: by value, lands on the first attempt
		{3, contentZ},         // C: reference refused -> fallback
		{4, fillBlock(bs, 5)}, // D: by value, dragged into the fallback
	} {
		if err := e.WriteBlock(w.lba, w.data); err != nil {
			t.Fatal(err)
		}
	}
	close(c.gate)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.byrefs) != 1 || len(c.byrefs[0]) != 4 {
		t.Fatalf("by-ref pushes = %v, want one of 4 entries", c.byrefs)
	}
	if got := c.byrefs[0]; !got[0].ByRef() || got[1].ByRef() || !got[2].ByRef() || got[3].ByRef() {
		t.Fatalf("by-ref push shape wrong: %+v", got)
	}
	// Warmup batch, then the fallback re-ship of the refused suffix.
	if len(c.batches) != 2 || len(c.batches[1]) != 2 {
		t.Fatalf("by-value pushes = %d batches, want warmup + 2-entry fallback", len(c.batches))
	}
	if c.batches[1][0].LBA != 3 || c.batches[1][1].LBA != 4 {
		t.Fatalf("fallback suffix = %+v, want LBAs 3 and 4", c.batches[1])
	}

	// contentX over a zeroed block encodes identically wherever it is
	// written, so the warmup frame length equals A's elided frame.
	frameX := int64(len(c.batches[0][0].Frame))
	frameD := int64(len(c.batches[1][1].Frame))

	s := e.Traffic().Snapshot()
	if s.DedupeHits != 1 || s.DedupeMisses != 1 {
		t.Errorf("DedupeHits = %d, DedupeMisses = %d, want 1, 1", s.DedupeHits, s.DedupeMisses)
	}
	// A saved its frame; C's failed reference cost its entry header;
	// D's whole first attempt (header + frame) was wasted. B is neutral.
	first := c.byrefs[0]
	want := frameX - int64(entryHeaderLen(first, 2)) - (int64(entryHeaderLen(first, 3)) + frameD)
	if s.DedupeSavedWire != want {
		t.Errorf("DedupeSavedWire = %d, want %d", s.DedupeSavedWire, want)
	}

	// The stale promise is gone — and replaced by the delivered truth.
	idx := e.ReplicaDedupe(0)
	if lba, ok := idx.Lookup(hZ); !ok || lba != 3 {
		t.Errorf("index maps hZ to (%d, %v), want the freshly delivered LBA 3", lba, ok)
	}
	if idx.Refs(hZ) != 1 {
		t.Errorf("Refs(hZ) = %d, want 1 (the stale LBA-100 promise must be dropped)", idx.Refs(hZ))
	}
}

// TestDedupeIndexGating: the primary-side index only exists where the
// fast path can work — a client that ships entry lists, outside group mode.
func TestDedupeIndexGating(t *testing.T) {
	newStore := func() block.Store {
		s, err := block.NewMem(512, 16)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	attach := func(cfg Config, rc ReplicaClient) *Engine {
		e, err := NewEngine(newStore(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		if err := e.AttachReplica(rc); err != nil {
			t.Fatal(err)
		}
		return e
	}
	loop := func() *Loopback { return &Loopback{Replica: NewReplicaEngine(newStore())} }

	if e := attach(Config{Mode: ModePRINS, DedupeEntries: 64}, loop()); e.ReplicaDedupe(0) == nil {
		t.Error("by-ref client with dedupe configured must get an index")
	}
	if e := attach(Config{Mode: ModePRINS}, loop()); e.ReplicaDedupe(0) != nil {
		t.Error("DedupeEntries 0 must disable the index")
	}
	if e := attach(Config{Mode: ModePRINS, DedupeEntries: 64},
		&singleOnlyClient{inner: loop()}); e.ReplicaDedupe(0) != nil {
		t.Error("a client without the by-ref verb must not get an index")
	}
	if e := attach(Config{Mode: ModePRINS, DedupeEntries: 64}, nil); e != nil && e.ReplicaDedupe(5) != nil {
		t.Error("out-of-range ReplicaDedupe must be nil")
	}
}

// dupWorkload issues writes whose contents repeat out of a small pool —
// the duplicate-heavy shape the dedupe fast path feeds on. Deterministic
// per seed, so a baseline replay converges to identical bytes.
func dupWorkload(t *testing.T, e *Engine, seed int64, writes int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bs := e.BlockSize()
	pool := make([][]byte, 8)
	for i := range pool {
		pool[i] = make([]byte, bs)
		for j := range pool[i] {
			pool[i][j] = byte(rng.Intn(256))
		}
	}
	for i := 0; i < writes; i++ {
		lba := uint64(rng.Intn(int(e.NumBlocks())))
		if err := e.WriteBlock(lba, pool[rng.Intn(len(pool))]); err != nil {
			t.Fatal(err)
		}
	}
}

// dupBaseline replays dupWorkload seeds against a replica-free engine:
// the fault-free reference content.
func dupBaseline(t *testing.T, bs int, nb uint64, seeds []int64, writes int) block.Store {
	t.Helper()
	store, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(store, Config{Mode: ModePRINS})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		dupWorkload(t, e, seed, writes)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestChaosByRefReplicaCrashResyncRewarm kills the replica node in the
// middle of a duplicate-heavy by-ref workload, which is exactly when a
// stale index is dangerous: the primary must wipe its promises on the
// degrade (a reference resolved against a dead replica's assumed state
// could otherwise materialize the wrong block), heal the replica with a
// resync whose Learn callback re-warms the index, resume by-ref
// shipping, and end byte-identical to a fault-free run.
func TestChaosByRefReplicaCrashResyncRewarm(t *testing.T) {
	const (
		bs     = 1024
		nb     = 64
		writes = 60
	)
	// Phase 3 reuses phase 1's seed, so the re-warmed index gets hit
	// with content the device already held at resync time.
	seeds := []int64{11, 22, 11}
	base := dupBaseline(t, bs, nb, seeds, writes)

	replicaStore, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	repEngine := NewReplicaEngine(replicaStore)

	target1 := iscsi.NewTarget()
	target1.Export("replica", repEngine)
	addr1, err := target1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer target1.Close()

	var addrMu sync.Mutex
	currentAddr := addr1.String()
	repConn, err := iscsi.Dial(addr1.String())
	if err != nil {
		t.Fatal(err)
	}
	defer repConn.Close()
	if err := repConn.Login("replica"); err != nil {
		t.Fatal(err)
	}
	repConn.EnableReconnect("replica", func() (net.Conn, error) {
		addrMu.Lock()
		addr := currentAddr
		addrMu.Unlock()
		return net.DialTimeout("tcp", addr, time.Second)
	})

	primaryStore, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(primaryStore, Config{
		Mode:          ModePRINS,
		Async:         true,
		Retry:         chaosRetry(),
		AllowDegraded: true,
		BatchFrames:   32,
		DedupeEntries: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AttachReplica(repConn)

	// Phase 1: healthy duplicate-heavy replication. Repeated pool
	// contents must start going by reference once acknowledged.
	dupWorkload(t, e, seeds[0], writes)
	if err := e.Drain(); err != nil {
		t.Fatalf("healthy drain: %v", err)
	}
	phase1 := e.Traffic().Snapshot()
	if phase1.DedupeHits == 0 {
		t.Fatal("duplicate workload produced no by-ref deliveries; the crash would not exercise the fast path")
	}

	// Phase 2: kill the replica mid-workload, by-ref batches in flight.
	// Writes keep succeeding; the degrade must also wipe the index —
	// every promise in it is now unverifiable.
	target1.Close()
	dupWorkload(t, e, seeds[1], writes)
	if err := e.Drain(); err != nil {
		t.Fatalf("drain with replica down: %v", err)
	}
	if !e.Degraded() {
		t.Fatal("replica crash should degrade replication")
	}
	if got := e.ReplicaDedupe(0).Len(); got != 0 {
		t.Fatalf("degrade left %d stale index promises", got)
	}

	// Phase 3: restart the replica on its surviving store and heal it.
	// The resync's Learn callback re-warms the primary index with every
	// block the scan proved the replica holds.
	target2 := iscsi.NewTarget()
	target2.Export("replica", repEngine)
	addr2, err := target2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer target2.Close()
	addrMu.Lock()
	currentAddr = addr2.String()
	addrMu.Unlock()

	stats, err := resync.RunAddr(e, addr2.String(), "replica", resync.Config{
		Learn: e.ReplicaDedupe(0).Put,
	})
	if err != nil {
		t.Fatalf("resync: %v", err)
	}
	if stats.BlocksRepaired == 0 {
		t.Error("crash should leave divergence for resync to repair")
	}
	if got := e.ReplicaDedupe(0).Len(); got == 0 {
		t.Error("resync Learn should re-warm the index")
	}
	e.ClearDegraded()

	// Phase 4: replication resumes over a reconnected session; the
	// re-warmed index lets repeats of phase 1's contents go by-ref
	// without re-learning them from live ships.
	dupWorkload(t, e, seeds[2], writes)
	if err := e.Drain(); err != nil {
		t.Fatalf("post-recovery drain: %v", err)
	}
	if repConn.Reconnects() == 0 {
		t.Error("session should have reconnected to the restarted node")
	}
	final := e.Traffic().Snapshot()
	if final.DedupeHits <= phase1.DedupeHits {
		t.Errorf("by-ref shipping did not resume after recovery: hits %d -> %d",
			phase1.DedupeHits, final.DedupeHits)
	}

	// No stale-index apply anywhere: both ends byte-identical to the
	// fault-free reference.
	mustEqual(t, "primary after crash+rewarm", primaryStore, base)
	mustEqual(t, "replica after crash+rewarm (a stale reference would diverge here)", replicaStore, base)
}
