package core

import (
	"bytes"
	"math/rand"
	"testing"

	"prins/internal/block"
	"prins/internal/dedupe"
	"prins/internal/faults"
	"prins/internal/iscsi"
	"prins/internal/journal"
	"prins/internal/parity"
	"prins/internal/xcode"
)

// poisonBackend is a replica behind a target that enforces the Backend
// buffer-lifetime contract the hard way: the moment a handler returns,
// everything the target lent it — the data segment, every frame, the
// entry slice — is overwritten with 0xA5, as the session's next PDU
// would overwrite it. A staged block, journal record or index entry
// that still aliases the request is garbage from then on.
type poisonBackend struct{ *ReplicaEngine }

func poison(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}

func poisonEntries(entries []iscsi.BatchEntry) {
	for i := range entries {
		poison(entries[i].Frame)
		entries[i] = iscsi.BatchEntry{Seq: 0xA5A5A5A5, LBA: 0xA5A5A5A5, Hash: 0xA5A5A5A5}
	}
}

func (b poisonBackend) HandleWrite(lba uint64, data []byte) iscsi.Status {
	defer poison(data)
	return b.ReplicaEngine.HandleWrite(lba, data)
}

func (b poisonBackend) HandleReplica(mode uint8, seq, lba, hash uint64, frame []byte) iscsi.Status {
	defer poison(frame)
	return b.ReplicaEngine.HandleReplica(mode, seq, lba, hash, frame)
}

func (b poisonBackend) HandleReplicaStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) iscsi.Status {
	defer poison(frame)
	return b.ReplicaEngine.HandleReplicaStream(mode, shard, vol, seq, lba, hash, frame)
}

func (b poisonBackend) HandleReplicaBatch(mode uint8, entries []iscsi.BatchEntry) []iscsi.Status {
	defer poisonEntries(entries)
	return b.ReplicaEngine.HandleReplicaBatch(mode, entries)
}

func (b poisonBackend) HandleReplicaBatchStream(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) []iscsi.Status {
	defer poisonEntries(entries)
	return b.ReplicaEngine.HandleReplicaBatchStream(mode, shard, vol, entries)
}

func (b poisonBackend) HandleReplicaByRef(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) []iscsi.Status {
	defer poisonEntries(entries)
	return b.ReplicaEngine.HandleReplicaByRef(mode, shard, vol, entries)
}

// poisonRig drives a poisoned replica by hand-built pushes and keeps the
// image the replica must end up with.
type poisonRig struct {
	t     *testing.T
	rng   *rand.Rand
	image [][]byte // what every replica block must hold
	seq   uint64
}

const poisonShard = 1

// entry builds the verified PRINS push that rewrites a tenth of lba (or
// all of it, when dense), against the image as earlier entries left it.
func (r *poisonRig) entry(lba uint64, dense bool) iscsi.BatchEntry {
	old := r.image[lba]
	next := bytes.Clone(old)
	if dense {
		r.rng.Read(next)
	} else {
		off := r.rng.Intn(len(next) * 9 / 10)
		r.rng.Read(next[off : off+len(next)/10])
	}
	fp, err := parity.Forward(next, old)
	if err != nil {
		r.t.Fatal(err)
	}
	frame, err := xcode.EncodeBest(fp, xcode.CodecZRL)
	if err != nil {
		r.t.Fatal(err)
	}
	r.image[lba] = next
	r.seq++
	return iscsi.BatchEntry{Seq: r.seq, LBA: lba, Hash: iscsi.HashBlock(next), Frame: frame}
}

// serve exports rep, poisoned, and returns a logged-in session to it.
func (r *poisonRig) serve(rep *ReplicaEngine) (*iscsi.Initiator, *node) {
	r.t.Helper()
	n := startNode(r.t, "replica", poisonBackend{rep})
	in, err := iscsi.Dial(n.addr.String())
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { in.Close() })
	if err := in.Login("replica"); err != nil {
		r.t.Fatal(err)
	}
	return in, n
}

// check compares the store with the image, block for block, and every
// (lba, hash) pair the content index holds with the store.
func (r *poisonRig) check(what string, store block.Store, idx *dedupe.Index) {
	r.t.Helper()
	buf := make([]byte, store.BlockSize())
	for lba := range r.image {
		if err := store.ReadBlock(uint64(lba), buf); err != nil {
			r.t.Fatal(err)
		}
		if !bytes.Equal(buf, r.image[lba]) {
			r.t.Fatalf("%s: replica block %d differs from the image", what, lba)
		}
	}
	recs, err := dedupe.DecodeSnapshot(idx.EncodeSnapshot())
	if err != nil {
		r.t.Fatal(err)
	}
	if len(recs) == 0 {
		r.t.Fatalf("%s: the content index is empty", what)
	}
	for _, rec := range recs {
		if got := iscsi.HashBlock(r.image[rec.LBA]); got != rec.Hash {
			r.t.Fatalf("%s: index maps lba %d to %016x, the block hashes to %016x", what, rec.LBA, rec.Hash, got)
		}
	}
}

func wantStatuses(t *testing.T, what string, got []iscsi.Status, err error, want ...iscsi.Status) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d statuses, want %d", what, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: entry %d is %v, want %v (all: %v)", what, k, got[k], want[k], got)
		}
	}
}

// TestPoisonedRequestBuffers drives every path that stages request
// bytes — journaled single pushes, a batch with same-LBA predecessors,
// a by-ref push with a refused suffix re-shipped by value, and a crash
// between the journal's Begin and Commit followed by replay — through a
// target whose request buffers are poisoned as each handler returns.
func TestPoisonedRequestBuffers(t *testing.T) {
	const bs, nb = 1024, 48
	r := &poisonRig{t: t, rng: rand.New(rand.NewSource(24))}
	inner, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	backing := &journal.Mem{}
	rep, err := NewReplicaEngineJournaled(inner, journal.New(backing))
	if err != nil {
		t.Fatal(err)
	}
	in, n := r.serve(rep)
	mode := uint8(ModePRINS)
	ok := func(n int) []iscsi.Status { return make([]iscsi.Status, n) } // StatusOK is zero

	// Initial sync: two repair spans. The first half is random and goes
	// raw, landed from the request buffer in place; the second half is
	// text and goes DEFLATE, landed from the session's decode scratch in
	// three extents (blocks 30 and 37 are left out and stay zero).
	raw := iscsi.Span{LBA: 0, Blocks: nb / 2, Mask: bytes.Repeat([]byte{0xff}, nb/16)}
	text := iscsi.Span{LBA: nb / 2, Blocks: nb / 2, Mask: bytes.Repeat([]byte{0xff}, nb/16), Compress: true}
	text.Mask[(30-nb/2)/8] &^= 1 << ((30 - nb/2) % 8)
	text.Mask[(37-nb/2)/8] &^= 1 << ((37 - nb/2) % 8)
	for lba := 0; lba < nb; lba++ {
		b := make([]byte, bs)
		switch {
		case lba < nb/2:
			r.rng.Read(b)
			raw.Data = append(raw.Data, b...)
		case lba != 30 && lba != 37:
			for i := range b {
				b[i] = "acgt"[r.rng.Intn(4)]
			}
			text.Data = append(text.Data, b...)
		}
		r.image = append(r.image, b)
	}
	for _, s := range []*iscsi.Span{&raw, &text} {
		sent, err := in.WriteSpan(s)
		if err != nil {
			t.Fatal(err)
		}
		if shrank := sent < len(s.Data); shrank != s.Compress {
			t.Fatalf("span at %d: sent %d bytes for %d, want it compressed: %v", s.LBA, sent, len(s.Data), s.Compress)
		}
	}
	r.check("initial sync", inner, rep.DedupeIndex())

	// Journaled single pushes, sparse and dense, some LBAs twice.
	for i := 0; i < 24; i++ {
		e := r.entry(uint64(r.rng.Intn(8)), i%3 == 0)
		if err := in.ReplicaWriteStream(mode, poisonShard, 0, e.Seq, e.LBA, e.Hash, e.Frame); err != nil {
			t.Fatalf("single push %d: %v", i, err)
		}
	}
	r.check("single pushes", inner, rep.DedupeIndex())

	// A 32-entry batch in which LBA 5 has three predecessors: each is
	// staged against the block its predecessor staged, not the store's.
	batch := make([]iscsi.BatchEntry, 32)
	for i := range batch {
		lba := uint64(8 + i)
		if i%9 == 4 {
			lba = 5
		}
		batch[i] = r.entry(lba, i%4 == 1)
	}
	st, err := in.ReplicaWriteBatchStream(mode, poisonShard, 0, batch)
	wantStatuses(t, "batch", st, err, ok(32)...)
	r.check("batch", inner, rep.DedupeIndex())

	// A by-ref push: a frame, a reference the replica can resolve (block
	// 41 takes block 9's content), a reference it cannot, and a frame
	// behind it. The refused suffix is re-shipped by value, same seqs.
	byRef := []iscsi.BatchEntry{r.entry(40, false), {LBA: 41, Hash: iscsi.HashBlock(r.image[9])}}
	r.seq++
	byRef[1].Seq = r.seq
	r.image[41] = bytes.Clone(r.image[9])
	byRef = append(byRef, r.entry(42, true), r.entry(43, false))
	held := byRef[2].Frame
	byRef[2].Frame = nil // the replica holds nothing that hashes to this
	st, err = in.ReplicaWriteByRef(mode, poisonShard, 0, byRef)
	wantStatuses(t, "by-ref push", st, err, iscsi.StatusOK, iscsi.StatusOK, iscsi.StatusRefMiss, iscsi.StatusRefMiss)
	byRef[2].Frame = held
	st, err = in.ReplicaWriteBatchStream(mode, poisonShard, 0, byRef[2:])
	wantStatuses(t, "by-value re-ship", st, err, ok(2)...)
	r.check("by-ref", inner, rep.DedupeIndex())

	// Crash between Begin and Commit: the second store write of a
	// four-entry batch tears, and the node dies with the intent journaled.
	in.Close()
	n.target.Close()
	torn := faults.NewPlan(1).WrapStore(inner, faults.StoreFaults{TornWriteAt: 2})
	rep, err = NewReplicaEngineJournaled(torn, journal.New(backing))
	if err != nil {
		t.Fatal(err)
	}
	in, n = r.serve(rep)
	last := []iscsi.BatchEntry{r.entry(3, false), r.entry(44, true), r.entry(3, false), r.entry(45, false)}
	st, err = in.ReplicaWriteBatchStream(mode, poisonShard, 0, last)
	wantStatuses(t, "torn batch", st, err, iscsi.StatusOK, iscsi.StatusStoreError, iscsi.StatusStoreError, iscsi.StatusStoreError)
	in.Close()
	n.target.Close()

	// Replay, from two copies of the surviving journal in turn: the
	// second replay of the same intent must change nothing.
	record := make([]byte, 64<<10)
	got, _ := backing.ReadAt(record, 0)
	for pass := 1; pass <= 2; pass++ {
		again := &journal.Mem{}
		if _, err := again.WriteAt(record[:got], 0); err != nil {
			t.Fatal(err)
		}
		if rep, err = NewReplicaEngineJournaled(inner, journal.New(again)); err != nil {
			t.Fatalf("replay %d: %v", pass, err)
		}
		if got := rep.StreamLastSeq(poisonShard, 0); got != r.seq {
			t.Errorf("replay %d: stream at seq %d, want %d", pass, got, r.seq)
		}
		r.check("replay", inner, rep.DedupeIndex())
	}
	// The primary redelivers the batch it saw refused: all duplicates.
	in, _ = r.serve(rep)
	st, err = in.ReplicaWriteBatchStream(mode, poisonShard, 0, last)
	wantStatuses(t, "redelivery", st, err, ok(4)...)
	if err := rep.WarmDedupe(); err != nil {
		t.Fatal(err)
	}
	r.check("redelivery", inner, rep.DedupeIndex())
	if dup := rep.Traffic().Snapshot().Duplicates; dup != 4 {
		t.Errorf("redelivery: %d duplicates, want 4", dup)
	}
}
