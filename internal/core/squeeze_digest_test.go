package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"

	"prins/internal/block"
	"prins/internal/iscsi"
	"prins/internal/journal"
	"prins/internal/parity"
	"prins/internal/wan"
	"prins/internal/xcode"
)

// countingBacking is a journal backing that counts its writes.
type countingBacking struct {
	journal.Mem
	mu     sync.Mutex
	writes int
}

func (b *countingBacking) WriteAt(p []byte, off int64) (int, error) {
	b.mu.Lock()
	b.writes++
	b.mu.Unlock()
	return b.Mem.WriteAt(p, off)
}

// digestRun is a run of PRINS writes over a random image, as squeezed
// list entries with their masked twins, and the blocks they leave.
type digestRun struct {
	image   *block.MemStore
	entries []iscsi.BatchEntry
	news    map[uint64][]byte
}

func newDigestRun(t *testing.T, bs int, nb uint64, lbas ...uint64) *digestRun {
	t.Helper()
	image, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	buf := make([]byte, bs)
	for lba := range nb {
		rng.Read(buf)
		if err := image.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
	}
	r := &digestRun{image: image, news: make(map[uint64][]byte)}
	for k, lba := range lbas {
		old := make([]byte, bs)
		if err := image.ReadBlock(lba, old); err != nil {
			t.Fatal(err)
		}
		newBlock := bytes.Clone(old)
		copy(newBlock[100:], textBlock(bs, 700, byte(k))[:700])
		fp := make([]byte, bs)
		if err := parity.ForwardInto(fp, newBlock, old); err != nil {
			t.Fatal(err)
		}
		frame, err := xcode.EncodeBest(fp, xcode.CodecZRL)
		if err != nil {
			t.Fatal(err)
		}
		mask, err := xcode.AppendMask(nil, frame, newBlock)
		if err != nil {
			t.Fatal(err)
		}
		hash := iscsi.HashBlock(newBlock)
		r.entries = append(r.entries, iscsi.BatchEntry{Seq: uint64(k + 1), LBA: lba, Hash: hash, Frame: frame, Mask: mask, Check: hash ^ iscsi.HashBlock(frame)})
		r.news[lba] = newBlock
	}
	return r
}

// squeeze returns the run's entries as the replica decodes them from a
// fresh squeezed list, and the list's digest.
func (r *digestRun) squeeze(t *testing.T) ([]iscsi.BatchEntry, uint64) {
	t.Helper()
	var tx iscsi.SqueezeSender
	var rx iscsi.SqueezeReceiver
	seg, tag, ok, err := tx.Encode(r.entries)
	if err != nil || !ok {
		t.Fatalf("squeeze: ok %v, %v", ok, err)
	}
	got, err := rx.Decode(nil, seg, tag)
	if err != nil {
		t.Fatal(err)
	}
	return got, rx.Digest()
}

// TestChaosSqueezeDigestFlippedBit: a squeezed list whose digest has
// one bit flipped. At the replica, nothing of it is applied — the store,
// the journal and the stream's window are untouched — and every entry
// is answered unverified; the same list with its digest intact applies
// whole. Over a session, a digest flipped in flight (the PDU's own CRC
// made to match, as a wrong digest from the primary would be) comes
// back unverified, the initiator re-ships the list plain inside the
// call, and the replica ends byte-identical to the primary with nothing
// counted diverged.
func TestChaosSqueezeDigestFlippedBit(t *testing.T) {
	t.Run("replica", func(t *testing.T) {
		const bs, nb = 4096, 16
		run := newDigestRun(t, bs, nb, 3, 5, 9, 12)
		store := cloneStore(t, run.image)
		backing := &countingBacking{}
		r, err := NewReplicaEngineJournaled(store, journal.New(backing))
		if err != nil {
			t.Fatal(err)
		}
		entries, digest := run.squeeze(t)
		for bit := range 64 {
			st := r.HandleReplicaSqueezed(uint8(ModePRINS), 0, 0, entries, digest^1<<bit)
			if slices.ContainsFunc(st, func(s iscsi.Status) bool { return s != iscsi.StatusUnverified }) {
				t.Fatalf("digest bit %d flipped: statuses %v, want every entry unverified", bit, st)
			}
		}
		mustEqual(t, "replica after unverified pushes", store, run.image)
		if backing.writes != 0 || r.StreamLastSeq(0, 0) != 0 {
			t.Fatalf("unverified pushes wrote the journal %d times and moved the window to %d", backing.writes, r.StreamLastSeq(0, 0))
		}
		if m := r.Traffic().Snapshot(); m.ReplicaWrites != 0 || m.Diverged != 0 {
			t.Fatalf("unverified pushes counted %d applies, %d diverged", m.ReplicaWrites, m.Diverged)
		}
		st := r.HandleReplicaSqueezed(uint8(ModePRINS), 0, 0, entries, digest)
		if slices.ContainsFunc(st, func(s iscsi.Status) bool { return s != iscsi.StatusOK }) {
			t.Fatalf("the intact digest: statuses %v", st)
		}
		cur := make([]byte, bs)
		for lba, want := range run.news {
			if err := store.ReadBlock(lba, cur); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cur, want) {
				t.Fatalf("lba %d does not hold its new block", lba)
			}
		}
		if r.StreamLastSeq(0, 0) != uint64(len(entries)) {
			t.Errorf("window at %d after the intact push, want %d", r.StreamLastSeq(0, 0), len(entries))
		}
	})
	t.Run("session", func(t *testing.T) {
		var flipped digestFlip
		c := newSqueezeChaos(t, Config{}, func(client, server net.Conn) (net.Conn, net.Conn) {
			return &digestFlipConn{Conn: client, f: &flipped}, server
		})
		c.write(t, 0, len(c.writes))
		st := c.check(t)
		lists := c.link.sessionLists(0)
		at := slices.IndexFunc(lists, func(l listPDU) bool { return l.itt == flipped.itt() })
		if at < 0 || at+1 == len(lists) || lists[at].tag == 0 {
			t.Fatalf("no squeezed list had its digest flipped (%d lists)", len(lists))
		}
		if re := lists[at+1]; re.tag != 0 || re.count != lists[at].count {
			t.Errorf("after the flipped list of %d entries went list %+v, want it re-shipped plain", lists[at].count, re)
		}
		if st.Metrics.Diverged != 0 || len(c.e.DirtyRanges(0)) != 0 || c.replicaEngine.Traffic().Snapshot().Diverged != 0 {
			t.Errorf("a flipped digest counted %d diverged, dirty %v", st.Metrics.Diverged, c.e.DirtyRanges(0))
		}
	})
}

// digestFlip flips one bit of the digest of the third squeezed list an
// initiator writes, or with odd set of the first, third, fifth and so
// on, and makes the PDU's CRC-32C match again.
type digestFlip struct {
	odd     bool
	mu      sync.Mutex
	seen    int
	flips   int
	flipped uint32 // the task tag of the last list flipped
}

func (f *digestFlip) itt() uint32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flipped
}

type digestFlipConn struct {
	net.Conn
	f *digestFlip
}

func (c *digestFlipConn) Write(p []byte) (int, error) {
	if len(p) > 48 && binary.BigEndian.Uint64(p[28:]) != 0 &&
		(iscsi.Opcode(p[2]) == iscsi.OpReplicaWriteBatch || iscsi.Opcode(p[2]) == iscsi.OpReplicaWriteByRef) {
		c.f.mu.Lock()
		c.f.seen++
		if c.f.seen == 3 || c.f.odd && c.f.seen%2 == 1 {
			c.f.flips++
			c.f.flipped = binary.BigEndian.Uint32(p[8:])
			p = bytes.Clone(p)
			_, n := binary.Uvarint(p[48:])
			_, w := binary.Uvarint(p[48+n:])
			p[48+n+w+7] ^= 0x10 // the digest's low byte
			binary.BigEndian.PutUint32(p[44:], 0)
			binary.BigEndian.PutUint32(p[44:], crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
		}
		c.f.mu.Unlock()
	}
	return c.Conn.Write(p)
}

// TestChaosSqueezeDigestWrongPreImage: a squeezed list whose entries
// stream their ZRL frames as they are (no masked twins) meets a replica
// whose pre-image is wrong at one of them. The digest does not verify,
// nothing is applied, and the plain re-ship refuses exactly that entry
// as diverged: its LBA comes back dirty, Diverged is 1 at both ends,
// and every other entry lands.
func TestChaosSqueezeDigestWrongPreImage(t *testing.T) {
	const bs, nb, bad = 4096, 16, 3
	var g *gatedClient
	e, _, primaryStore, replicaStore := wrappedPair(t, Config{Mode: ModePRINS, Async: true, BatchFrames: 4}, bs, nb,
		func(gc *gatedClient) ReplicaClient {
			g = gc
			return &unmaskedClient{gc}
		})
	e.replicas[0].pipes[0].sq.gate.on = true
	// The replica's block at bad is not the primary's: a torn byte.
	torn := make([]byte, bs)
	torn[200] = 0x5A
	if err := replicaStore.WriteBlock(bad, torn); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteBlock(0, textBlock(bs, 700, 1)); err != nil {
		t.Fatal(err)
	}
	<-g.started
	for lba := uint64(1); lba <= 4; lba++ {
		if err := e.WriteBlock(lba, textBlock(bs, 400+100*int(lba), byte(lba))); err != nil {
			t.Fatal(err)
		}
	}
	close(g.gate)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	unverified, decoded := g.unverified, slices.Clone(g.decoded)
	g.mu.Unlock()
	if unverified != 1 || !slices.ContainsFunc(decoded, func(be iscsi.BatchEntry) bool {
		return be.LBA == bad && xcode.Codec(be.Frame[0]) == xcode.CodecZRL
	}) {
		t.Fatalf("%d squeezed pushes unverified; want the run's, streaming lba %d's ZRL frame", unverified, bad)
	}
	m := e.ReplicaStats()[0].Metrics
	if dirty := e.DirtyRanges(0); len(dirty) != 1 || dirty[0] != (block.Range{Start: bad, Count: 1, Dirty: true}) || m.Diverged != 1 {
		t.Fatalf("dirty %v, diverged %d; want lba %d alone, diverged once", dirty, m.Diverged, bad)
	}
	if got := g.inner.Replica.Traffic().Snapshot().Diverged; got != 1 {
		t.Errorf("replica refused %d applies as diverged, want 1", got)
	}
	primary, cur := make([]byte, bs), make([]byte, bs)
	for lba := range uint64(nb) {
		if err := primaryStore.ReadBlock(lba, primary); err != nil {
			t.Fatal(err)
		}
		if err := replicaStore.ReadBlock(lba, cur); err != nil {
			t.Fatal(err)
		}
		want := primary
		if lba == bad {
			want = torn
		}
		if !bytes.Equal(cur, want) {
			t.Errorf("replica lba %d differs", lba)
		}
	}
}

// unmaskedClient squeezes a run's entries without their masked twins:
// a squeezed list of plain ZRL frames.
type unmaskedClient struct{ *gatedClient }

func (c *unmaskedClient) ReplicaWriteSqueezed(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) ([]iscsi.Status, iscsi.Sent, error) {
	bare := slices.Clone(entries)
	for k := range bare {
		bare[k].Mask, bare[k].Check = nil, 0
	}
	return c.gatedClient.ReplicaWriteSqueezed(mode, shard, vol, bare)
}

// TestChaosSqueezeDigestRedelivered: the answer to a squeezed push the
// replica applied is lost, the session redials, and the push goes out
// again, fresh, on the new session. Every entry of it is a duplicate,
// whose pre-image is gone, so the replica answers the list unverified;
// re-shipped plain, every entry is acknowledged as a duplicate, and no
// parity is applied twice: the replica ends byte-identical.
func TestChaosSqueezeDigestRedelivered(t *testing.T) {
	var lost lostAnswer
	c := newSqueezeChaos(t, Config{}, func(client, server net.Conn) (net.Conn, net.Conn) {
		return &lostAnswerClient{Conn: client, a: &lost}, &lostAnswerServer{Conn: server, a: &lost}
	})
	c.write(t, 0, len(c.writes))
	c.check(t)
	before, after := c.link.sessionLists(0), c.link.sessionLists(1)
	at := slices.IndexFunc(before, func(l listPDU) bool { return l.itt == lost.itt() })
	if at < 0 || before[at].tag < 2 {
		t.Fatalf("the lost answer was not a primed squeezed push's (lists %v)", before)
	}
	if len(after) < 2 || after[0].tag != 1 || after[0].count != before[at].count || after[1].tag != 0 || after[1].count != before[at].count {
		t.Fatalf("after the redial went %v; want the push of %d entries fresh, then plain", after[:min(len(after), 2)], before[at].count)
	}
	if dups := c.replicaEngine.Traffic().Snapshot().Duplicates; dups < int64(before[at].count) {
		t.Errorf("replica acknowledged %d duplicates, want all %d entries of the redelivered push", dups, before[at].count)
	}
}

// lostAnswer swallows the target's answer to the second history-primed
// squeezed list of a session, and everything the target writes after
// it: the push is applied, and its initiator never hears so.
type lostAnswer struct {
	mu     sync.Mutex
	primed int
	target uint32 // the task tag whose answer is lost; 0 until chosen
	gone   bool
}

func (a *lostAnswer) itt() uint32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.target
}

type lostAnswerClient struct {
	net.Conn
	a *lostAnswer
}

func (c *lostAnswerClient) Write(p []byte) (int, error) {
	if len(p) > 48 && binary.BigEndian.Uint64(p[28:]) >= 2 &&
		(iscsi.Opcode(p[2]) == iscsi.OpReplicaWriteBatch || iscsi.Opcode(p[2]) == iscsi.OpReplicaWriteByRef) {
		c.a.mu.Lock()
		if c.a.primed++; c.a.primed == 2 {
			c.a.target = binary.BigEndian.Uint32(p[8:])
		}
		c.a.mu.Unlock()
	}
	return c.Conn.Write(p)
}

type lostAnswerServer struct {
	net.Conn
	a *lostAnswer
}

func (c *lostAnswerServer) Write(p []byte) (int, error) {
	c.a.mu.Lock()
	if len(p) >= 48 && c.a.target != 0 && binary.BigEndian.Uint32(p[8:]) == c.a.target {
		c.a.gone = true
	}
	gone := c.a.gone
	c.a.mu.Unlock()
	if gone {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// TestChaosSqueezeDigestRefMiss: a reference the replica cannot resolve
// inside a squeezed by-ref list. The by-value entries behind it still
// stage for their checks, the digest verifies, and the list is answered
// exactly as the plain list is: the prefix applied, the suffix from the
// miss on refused as REF-MISS, with the same store and window after.
// A by-value entry at the missed reference's LBA has no pre-image to
// stage on, and its list is answered unverified, nothing applied.
func TestChaosSqueezeDigestRefMiss(t *testing.T) {
	const bs, nb = 4096, 16
	run := newDigestRun(t, bs, nb, 2, 4, 6, 8, 10)
	known := make([]byte, bs)
	if err := run.image.ReadBlock(15, known); err != nil {
		t.Fatal(err)
	}
	// Entry 2 is a reference to content the replica holds at lba 15;
	// entry 3 one to content it holds nowhere.
	run.entries[2] = iscsi.BatchEntry{Seq: 3, LBA: 6, Hash: iscsi.HashBlock(known)}
	run.entries[3] = iscsi.BatchEntry{Seq: 4, LBA: 8, Hash: 0xDEAD}
	plainStore, squeezedStore := cloneStore(t, run.image), cloneStore(t, run.image)
	plainReplica, squeezedReplica := NewReplicaEngine(plainStore), NewReplicaEngine(squeezedStore)
	for _, r := range []*ReplicaEngine{plainReplica, squeezedReplica} {
		if err := r.WarmDedupe(); err != nil {
			t.Fatal(err)
		}
	}
	plain := plainReplica.HandleReplicaBatchStream(uint8(ModePRINS), 0, 0, run.entries)
	entries, digest := run.squeeze(t)
	squeezed := squeezedReplica.HandleReplicaSqueezed(uint8(ModePRINS), 0, 0, entries, digest)
	want := []iscsi.Status{iscsi.StatusOK, iscsi.StatusOK, iscsi.StatusOK, iscsi.StatusRefMiss, iscsi.StatusRefMiss}
	if !slices.Equal(plain, want) || !slices.Equal(squeezed, want) {
		t.Fatalf("statuses: plain %v, squeezed %v, want %v", plain, squeezed, want)
	}
	mustEqual(t, "squeezed replica against the plain one", squeezedStore, plainStore)
	if p, s := plainReplica.StreamLastSeq(0, 0), squeezedReplica.StreamLastSeq(0, 0); p != 3 || s != 3 {
		t.Errorf("windows at %d (plain) and %d (squeezed), want 3", p, s)
	}
	pm, sm := plainReplica.Traffic().Snapshot(), squeezedReplica.Traffic().Snapshot()
	if pm.DedupeMisses != 1 || sm.DedupeMisses != 1 || pm.DedupeHits != 1 || sm.DedupeHits != 1 {
		t.Errorf("dedupe hits/misses: plain %d/%d, squeezed %d/%d, want 1/1", pm.DedupeHits, pm.DedupeMisses, sm.DedupeHits, sm.DedupeMisses)
	}

	// A by-value entry behind the miss, at its LBA.
	run.entries[4].LBA = 8
	fresh := cloneStore(t, run.image)
	r := NewReplicaEngine(fresh)
	if err := r.WarmDedupe(); err != nil {
		t.Fatal(err)
	}
	entries, digest = run.squeeze(t)
	st := r.HandleReplicaSqueezed(uint8(ModePRINS), 0, 0, entries, digest)
	if slices.ContainsFunc(st, func(s iscsi.Status) bool { return s != iscsi.StatusUnverified }) {
		t.Fatalf("an entry on the missed reference's block: statuses %v, want every entry unverified", st)
	}
	mustEqual(t, "replica after an unverified push", fresh, run.image)
	if m := r.Traffic().Snapshot(); r.StreamLastSeq(0, 0) != 0 || m.DedupeMisses != 0 || m.ReplicaWrites != 0 {
		t.Errorf("an unverified push moved the window to %d, counted %d misses", r.StreamLastSeq(0, 0), m.DedupeMisses)
	}
}

// segmentMeter models the data segments an initiator writes to its
// connection as the engine books them on the wire: wan.WireBytesDiscrete
// of each PDU's segment, each PDU arriving in one Write.
type segmentMeter struct {
	net.Conn
	mu       sync.Mutex
	pdus     int
	modelled int64
}

func (m *segmentMeter) Write(p []byte) (int, error) {
	if len(p) >= 48 {
		m.mu.Lock()
		m.pdus++
		m.modelled += int64(wan.WireBytesDiscrete(int(binary.BigEndian.Uint32(p[24:]))))
		m.mu.Unlock()
	}
	return m.Conn.Write(p)
}

// TestSqueezeUnverifiedWireAccounting: every other squeezed list has
// its digest flipped in flight, comes back unverified and is re-shipped
// plain inside the same call: two PDUs, each with its own packet
// headers. The engine's modelled WireBytes is still exactly the
// modelled cost of every data segment the connection carried.
func TestSqueezeUnverifiedWireAccounting(t *testing.T) {
	flipped := digestFlip{odd: true}
	meter := &segmentMeter{}
	c := newSqueezeChaos(t, Config{}, func(client, server net.Conn) (net.Conn, net.Conn) {
		meter.Conn = &digestFlipConn{Conn: client, f: &flipped}
		return meter, server
	})
	meter.mu.Lock()
	meter.pdus, meter.modelled = 0, 0 // the login is not the engine's
	meter.mu.Unlock()
	c.write(t, 0, len(c.writes))
	st := c.check(t)
	flipped.mu.Lock()
	flips := flipped.flips
	flipped.mu.Unlock()
	if flips < 2 {
		t.Fatalf("%d squeezed lists had their digests flipped, want the gate's probes too", flips)
	}
	meter.mu.Lock()
	defer meter.mu.Unlock()
	if st.Metrics.WireBytes != meter.modelled {
		t.Errorf("engine WireBytes %d, the connection's %d PDUs modelled as %d", st.Metrics.WireBytes, meter.pdus, meter.modelled)
	}
}

// tagSkip makes the target refuse squeezed lists as built on a stale
// history: it adds one to the history tag of every third squeezed list
// past a stream's first push that an initiator writes, and makes the
// PDU's CRC-32C match again. The segment's length is unchanged.
type tagSkip struct {
	mu      sync.Mutex
	seen    int
	skipped int
}

type tagSkipConn struct {
	net.Conn
	s *tagSkip
}

func (c *tagSkipConn) Write(p []byte) (int, error) {
	if len(p) > 48 && binary.BigEndian.Uint64(p[28:]) > 1 &&
		(iscsi.Opcode(p[2]) == iscsi.OpReplicaWriteBatch || iscsi.Opcode(p[2]) == iscsi.OpReplicaWriteByRef) {
		c.s.mu.Lock()
		c.s.seen++
		if c.s.seen%3 == 0 {
			c.s.skipped++
			p = bytes.Clone(p)
			binary.BigEndian.PutUint64(p[28:], binary.BigEndian.Uint64(p[28:])+1)
			binary.BigEndian.PutUint32(p[44:], 0)
			binary.BigEndian.PutUint32(p[44:], crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
		}
		c.s.mu.Unlock()
	}
	return c.Conn.Write(p)
}

// TestSqueezeStaleWireAccounting: squeezed lists are refused
// STALE-HISTORY on a metered connection and re-shipped fresh inside the
// same call: two PDUs, each with its own packet headers, and the
// refused one is on the wire as much as its re-ship. The engine's
// modelled WireBytes is exactly the modelled cost of every data segment
// the connection carried.
func TestSqueezeStaleWireAccounting(t *testing.T) {
	var skip tagSkip
	meter := &segmentMeter{}
	c := newSqueezeChaos(t, Config{}, func(client, server net.Conn) (net.Conn, net.Conn) {
		meter.Conn = &tagSkipConn{Conn: client, s: &skip}
		return meter, server
	})
	meter.mu.Lock()
	meter.pdus, meter.modelled = 0, 0 // the login is not the engine's
	meter.mu.Unlock()
	c.write(t, 0, len(c.writes))
	st := c.check(t)
	skip.mu.Lock()
	skipped := skip.skipped
	skip.mu.Unlock()
	if skipped == 0 {
		t.Fatal("no squeezed list was refused as stale")
	}
	stale := 0
	for _, l := range c.link.sessionLists(0) {
		if l.tag == 1 {
			stale++
		}
	}
	if stale <= skipped {
		t.Errorf("%d fresh squeezed lists for %d refused as stale: the refusals did not re-ship fresh", stale, skipped)
	}
	meter.mu.Lock()
	defer meter.mu.Unlock()
	if st.Metrics.WireBytes != meter.modelled {
		t.Errorf("engine WireBytes %d, the connection's %d PDUs modelled as %d", st.Metrics.WireBytes, meter.pdus, meter.modelled)
	}
}
