package core

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"prins/internal/block"
	"prins/internal/faults"
	"prins/internal/iscsi"
	"prins/internal/journal"
	"prins/internal/parity"
	"prins/internal/resync"
	"prins/internal/xcode"
)

// maskRig is an async PRINS engine, mirroring or k-of-n, whose replicas
// start as an initial sync of a random primary image and sit behind
// gated in-process clients with the squeeze forced on: a backlog held
// behind the gates ships as one squeezed list of masked twins.
type maskRig struct {
	e        *Engine
	primary  block.Store
	rs       *parity.RS // nil when mirroring
	replicas []*ReplicaEngine
	stores   []block.Store
	gates    []*gatedClient
}

func newMaskRig(t *testing.T, group GroupConfig, bs int, nb uint64) *maskRig {
	t.Helper()
	primary, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	buf := make([]byte, bs)
	for lba := range nb {
		rng.Read(buf)
		if err := primary.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
	}
	e, err := NewEngine(primary, Config{Mode: ModePRINS, Async: true, BatchFrames: 4, Group: group})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	rig := &maskRig{e: e, primary: primary}
	n := 1
	if group.N > 0 {
		n = group.N
		if rig.rs, err = parity.NewRS(group.K, group.N); err != nil {
			t.Fatal(err)
		}
	}
	for i := range n {
		size := bs
		if rig.rs != nil {
			size = rig.rs.UnitSize(bs)
		}
		store, err := block.NewMem(size, nb)
		if err != nil {
			t.Fatal(err)
		}
		for lba := range nb {
			if err := store.WriteBlock(lba, rig.expected(t, i, lba)); err != nil {
				t.Fatal(err)
			}
		}
		r := NewReplicaEngine(store)
		g := newGatedClient(r)
		if err := e.AttachReplica(g); err != nil {
			t.Fatal(err)
		}
		e.replicas[i].pipes[0].sq.gate.on = true
		rig.replicas, rig.stores, rig.gates = append(rig.replicas, r), append(rig.stores, store), append(rig.gates, g)
	}
	return rig
}

// unitOf returns what replica i holds of block: the block, or its unit i.
func (r *maskRig) unitOf(t *testing.T, i int, blk []byte) []byte {
	t.Helper()
	if r.rs == nil {
		return bytes.Clone(blk)
	}
	u := make([]byte, r.rs.UnitSize(len(blk)))
	if err := r.rs.EncodeUnit(u, blk, i); err != nil {
		t.Fatal(err)
	}
	return u
}

// expected returns what replica i should hold at lba.
func (r *maskRig) expected(t *testing.T, i int, lba uint64) []byte {
	t.Helper()
	blk := make([]byte, r.primary.BlockSize())
	if err := r.primary.ReadBlock(lba, blk); err != nil {
		t.Fatal(err)
	}
	return r.unitOf(t, i, blk)
}

// ship writes a warm-up block to LBA 0, which every shipper holds at its
// gate, then writes behind it — BatchFrames of them, one backlog run per
// replica — and opens the gates and drains.
func (r *maskRig) ship(t *testing.T, writes ...blockWrite) {
	t.Helper()
	if err := r.e.WriteBlock(0, textBlock(r.primary.BlockSize(), 700, 1)); err != nil {
		t.Fatal(err)
	}
	for _, g := range r.gates {
		<-g.started
	}
	for _, w := range writes {
		if err := r.e.WriteBlock(w.lba, w.data); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range r.gates {
		close(g.gate)
	}
	if err := r.e.Drain(); err != nil {
		t.Fatal(err)
	}
}

// rewrite returns the primary's block at lba with two stretches, one in
// each half, overwritten with prose: a write whose new bytes compress
// where its parity against the random old block does not.
func (r *maskRig) rewrite(t *testing.T, lba uint64, salt byte) []byte {
	t.Helper()
	bs := r.primary.BlockSize()
	blk := make([]byte, bs)
	if err := r.primary.ReadBlock(lba, blk); err != nil {
		t.Fatal(err)
	}
	text := textBlock(bs, 1000, salt)
	copy(blk[64:1064], text[:1000])
	copy(blk[bs/2+64:bs/2+1064], text[:1000])
	return blk
}

// streamedMask reports whether the last squeezed list replica i took in
// carried lba's entry as a mask frame.
func (r *maskRig) streamedMask(i int, lba uint64) bool {
	g := r.gates[i]
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, e := range g.decoded {
		if e.LBA == lba && len(e.Frame) > 0 && xcode.Codec(e.Frame[0]) == xcode.CodecMask {
			return true
		}
	}
	return false
}

// TestChaosSqueezeMaskWrongPreImage is the case a masked twin could
// have healed instead of detected: a replica block that is wrong only at
// bytes the next write changes, so that landing the write's new bytes
// would leave exactly the right block. The XOR path refuses such a
// write as diverged; a squeezed list's mask must too, or the damage
// under it — and whatever else the cause of it damaged — goes unseen.
// Two causes: a torn write (each changed byte holding its old or its
// new value), and two units of a 2-of-3 group holding each other's
// bytes where the write changes them. The write ships as a mask, comes
// back diverged, marks its LBA dirty, and a ranged resync heals it.
func TestChaosSqueezeMaskWrongPreImage(t *testing.T) {
	const bs, nb, lba = 4096, 16, 5
	for _, tc := range []struct {
		name   string
		group  GroupConfig
		wrong  []int // the replicas tampered with
		tamper func(t *testing.T, rig *maskRig, newBlock []byte) map[int][]byte
	}{
		{"torn", GroupConfig{}, []int{0}, func(t *testing.T, rig *maskRig, newBlock []byte) map[int][]byte {
			torn := rig.expected(t, 0, lba)
			for p := range torn {
				if torn[p] != newBlock[p] && p%2 == 0 {
					torn[p] = newBlock[p]
				}
			}
			return map[int][]byte{0: torn}
		}},
		{"swapped-unit", GroupConfig{K: 2, N: 3}, []int{0, 1}, func(t *testing.T, rig *maskRig, newBlock []byte) map[int][]byte {
			out := make(map[int][]byte)
			for _, i := range []int{0, 1} {
				old, other := rig.expected(t, i, lba), rig.expected(t, 1-i, lba)
				changed := rig.unitOf(t, i, newBlock)
				unit := bytes.Clone(old)
				for p := range unit {
					if changed[p] != old[p] {
						unit[p] = other[p]
					}
				}
				out[i] = unit
			}
			return out
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newMaskRig(t, tc.group, bs, nb)
			newBlock := rig.rewrite(t, lba, 3)
			tampered := tc.tamper(t, rig, newBlock)
			for i, blk := range tampered {
				if bytes.Equal(blk, rig.expected(t, i, lba)) {
					t.Fatalf("replica %d: tampering changed nothing", i)
				}
				if bytes.Equal(blk, rig.unitOf(t, i, newBlock)) {
					t.Fatalf("replica %d: tampering already wrote the new block", i)
				}
				if err := rig.stores[i].WriteBlock(lba, blk); err != nil {
					t.Fatal(err)
				}
			}
			rig.ship(t,
				blockWrite{lba, newBlock},
				blockWrite{lba + 1, rig.rewrite(t, lba+1, 4)},
				blockWrite{lba + 2, rig.rewrite(t, lba+2, 5)},
				blockWrite{lba + 3, rig.rewrite(t, lba+3, 6)})

			cur := make([]byte, rig.stores[0].BlockSize())
			for i := range rig.replicas {
				if !rig.streamedMask(i, lba) {
					t.Fatalf("replica %d: lba %d did not ship as a mask frame in a squeezed list", i, lba)
				}
				dirty, m := rig.e.DirtyRanges(i), rig.e.ReplicaStats()[i].Metrics
				if !slices.Contains(tc.wrong, i) {
					if len(dirty) != 0 || m.Diverged != 0 {
						t.Errorf("replica %d was not tampered with: dirty %v, diverged %d", i, dirty, m.Diverged)
					}
					continue
				}
				if len(dirty) != 1 || dirty[0] != (block.Range{Start: lba, Count: 1, Dirty: true}) || m.Diverged != 1 {
					t.Fatalf("replica %d: dirty %v, diverged %d; want lba %d refused as diverged", i, dirty, m.Diverged, lba)
				}
				if got := rig.replicas[i].Traffic().Snapshot().Diverged; got != 1 {
					t.Errorf("replica %d refused %d applies as diverged, want 1", i, got)
				}
				if err := rig.stores[i].ReadBlock(lba, cur); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(cur, tampered[i]) {
					t.Errorf("replica %d: the refused write touched lba %d", i, lba)
				}

				var src block.Store = rig.e
				if rig.rs != nil {
					src = &unitView{src: rig.e, rs: rig.rs, unit: i, blk: make([]byte, bs)}
				}
				n := startNode(t, "replica", rig.replicas[i])
				in, err := iscsi.Dial(n.addr.String())
				if err != nil {
					t.Fatal(err)
				}
				defer in.Close()
				if err := in.Login("replica"); err != nil {
					t.Fatal(err)
				}
				st, err := resync.RunRanges(src, in, resync.Config{}, dirty...)
				if err != nil {
					t.Fatal(err)
				}
				if st.BlocksRepaired != 1 {
					t.Errorf("replica %d: ranged resync repaired %d blocks, want 1", i, st.BlocksRepaired)
				}
				rig.e.ClearDirty(i)
			}
			for i := range rig.replicas {
				for l := range uint64(nb) {
					if err := rig.stores[i].ReadBlock(l, cur); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(cur, rig.expected(t, i, l)) {
						t.Fatalf("replica %d differs at lba %d after the repair", i, l)
					}
				}
			}
		})
	}
}

// unitView is unit i of every block of src: the resync source of a
// group unit's replica.
type unitView struct {
	src  block.Store
	rs   *parity.RS
	unit int
	blk  []byte
}

func (u *unitView) ReadBlock(lba uint64, buf []byte) error {
	if err := u.src.ReadBlock(lba, u.blk); err != nil {
		return err
	}
	return u.rs.EncodeUnit(buf, u.blk, u.unit)
}

func (u *unitView) WriteBlock(uint64, []byte) error { return errors.New("a unit view is read-only") }
func (u *unitView) BlockSize() int                  { return u.rs.UnitSize(len(u.blk)) }
func (u *unitView) NumBlocks() uint64               { return u.src.NumBlocks() }
func (u *unitView) Close() error                    { return nil }

// maskList returns the entries of a squeezed list of one mask entry as
// its target decodes them, and the list's digest: the write of newBlock
// over oldBlock at lba, streamed as its masked twin, whose check the
// digest folds.
func maskList(t *testing.T, seq, lba uint64, oldBlock, newBlock []byte) ([]iscsi.BatchEntry, uint64) {
	t.Helper()
	fp := make([]byte, len(newBlock))
	if err := parity.ForwardInto(fp, newBlock, oldBlock); err != nil {
		t.Fatal(err)
	}
	frame, err := xcode.Encode(xcode.CodecZRL, fp)
	if err != nil {
		t.Fatal(err)
	}
	mask, err := xcode.AppendMask(nil, frame, newBlock)
	if err != nil {
		t.Fatal(err)
	}
	hash := iscsi.HashBlock(newBlock)
	sent := []iscsi.BatchEntry{{Seq: seq, LBA: lba, Hash: hash, Frame: frame, Mask: mask, Check: hash ^ iscsi.HashBlock(frame)}}
	var tx iscsi.SqueezeSender
	var rx iscsi.SqueezeReceiver
	seg, tag, ok, err := tx.Encode(sent)
	if err != nil || !ok {
		t.Fatalf("squeeze: ok %v, %v", ok, err)
	}
	got, err := rx.Decode(nil, seg, tag)
	if err != nil {
		t.Fatal(err)
	}
	if xcode.Codec(got[0].Frame[0]) != xcode.CodecMask || got[0].Hash != 0 {
		t.Fatal("the list did not carry the mask without a hash")
	}
	var checks [8]byte
	binary.BigEndian.PutUint64(checks[:], sent[0].Check)
	if rx.Digest() != iscsi.HashBlock(checks[:]) {
		t.Fatal("the list's digest is not the hash of its check")
	}
	return got, rx.Digest()
}

// TestSqueezeMaskJournalKeepsBlockHash: a mask entry's hash field is its
// check, but what a replica records of an apply — in its content index
// and in its journal — is the block's own hash. Through the engine, on a
// journaled replica with dedupe, a block that landed from a mask is a
// by-ref source: copying it ships a reference the replica resolves with
// no REF-MISS. And a mask apply torn between the journal's Begin and
// Commit replays to the new block and indexes its hash.
func TestSqueezeMaskJournalKeepsBlockHash(t *testing.T) {
	const bs, nb = 4096, 16
	t.Run("applied", func(t *testing.T) {
		primaryStore, err := block.NewMem(bs, nb)
		if err != nil {
			t.Fatal(err)
		}
		replicaStore, err := block.NewMem(bs, nb)
		if err != nil {
			t.Fatal(err)
		}
		replica, err := NewReplicaEngineJournaled(replicaStore, journal.New(&journal.Mem{}))
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(primaryStore, Config{Mode: ModePRINS, Async: true, BatchFrames: 4, DedupeEntries: 1024})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		g := newByrefGated(replica)
		if err := e.AttachReplica(g); err != nil {
			t.Fatal(err)
		}
		e.replicas[0].pipes[0].sq.gate.on = true
		if err := e.WriteBlock(0, textBlock(bs, 700, 1)); err != nil {
			t.Fatal(err)
		}
		<-g.started
		blocks := make(map[uint64][]byte)
		for lba := uint64(1); lba <= 4; lba++ {
			blocks[lba] = textBlock(bs, 500+100*int(lba), byte(lba))
			if err := e.WriteBlock(lba, blocks[lba]); err != nil {
				t.Fatal(err)
			}
		}
		close(g.gate)
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		g.mu.Lock()
		masks := 0
		for _, be := range g.decoded {
			if xcode.Codec(be.Frame[0]) == xcode.CodecMask {
				masks++
			}
		}
		g.mu.Unlock()
		if masks != 4 {
			t.Fatalf("%d of 4 entries landed as masks", masks)
		}
		for lba, blk := range blocks {
			if got, ok := replica.DedupeIndex().Lookup(iscsi.HashBlock(blk)); !ok || got != lba {
				t.Errorf("replica index resolves lba %d's block to %d, %v", lba, got, ok)
			}
		}
		// A copy of lba 3 ships by reference and resolves.
		if err := e.WriteBlock(9, blocks[3]); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		m := e.ReplicaStats()[0].Metrics
		if m.DedupeHits != 1 || m.DedupeMisses != 0 {
			t.Errorf("copy of a masked block: %d dedupe hits, %d misses; want 1, 0", m.DedupeHits, m.DedupeMisses)
		}
		mustEqual(t, "replica", replicaStore, primaryStore)
	})
	t.Run("crash-replay", func(t *testing.T) {
		const lba = 3
		inner, err := block.NewMem(bs, nb)
		if err != nil {
			t.Fatal(err)
		}
		oldBlock := make([]byte, bs)
		rand.New(rand.NewSource(4)).Read(oldBlock)
		if err := inner.WriteBlock(lba, oldBlock); err != nil {
			t.Fatal(err)
		}
		newBlock := bytes.Clone(oldBlock)
		copy(newBlock[100:], textBlock(bs, 900, 7)[:900])
		hash := iscsi.HashBlock(newBlock)

		faulted := faults.NewPlan(1).WrapStore(inner, faults.StoreFaults{TornWriteAt: 1})
		backing := &journal.Mem{}
		rep, err := NewReplicaEngineJournaled(faulted, journal.New(backing))
		if err != nil {
			t.Fatal(err)
		}
		list, digest := maskList(t, 1, lba, oldBlock, newBlock)
		if st := rep.HandleReplicaSqueezed(uint8(ModePRINS), 0, 0, list, digest); st[0] != iscsi.StatusStoreError {
			t.Fatalf("torn mask apply: status %v", st[0])
		}
		pending, err := journal.New(backing).PendingEntries()
		if err != nil {
			t.Fatal(err)
		}
		if len(pending) != 1 || pending[0].Hash != hash || !bytes.Equal(pending[0].Block, newBlock) {
			t.Fatalf("journal holds %d entries; want the new block under its own hash", len(pending))
		}
		// Crash: a restarted replica replays the intent.
		rep2, err := NewReplicaEngineJournaled(faulted, journal.New(backing))
		if err != nil {
			t.Fatal(err)
		}
		cur := make([]byte, bs)
		if err := inner.ReadBlock(lba, cur); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cur, newBlock) {
			t.Fatal("replay did not restore the new block")
		}
		if got, ok := rep2.DedupeIndex().Lookup(hash); !ok || got != lba {
			t.Errorf("replayed block indexed at %d, %v; want lba %d under its hash", got, ok, lba)
		}
	})
}

// TestSqueezeProbeReadsTheStream: the probe that decides whether a run
// is worth squeezing reads a sample of what the squeezed list would
// stream, cut across all its entries. A run led by raw-floored frames
// of random bytes, which cost a squeezed list next to nothing, keeps its
// probe when the ZRL frames behind them compress; and of a frame with a
// masked twin the probe reads the twin, which compresses where the
// parity's own literals do not.
func TestSqueezeProbeReadsTheStream(t *testing.T) {
	const bs = 4096
	rng := rand.New(rand.NewSource(3))
	entry := func(k int, blk []byte) iscsi.BatchEntry {
		frame, err := xcode.EncodeBest(blk, xcode.CodecZRL)
		if err != nil {
			t.Fatal(err)
		}
		return iscsi.BatchEntry{Seq: uint64(k + 1), LBA: uint64(k), Hash: 1, Frame: frame}
	}
	probe := func(entries []iscsi.BatchEntry) (squeezed, lost bool) {
		sq := new(squeezer)
		sq.gate.since = squeezeMinSpacing // a probe is due
		r := sq.begin(entries, iscsi.BatchWireLen(entries))
		return r.squeezed, sq.gate.spacing != 0
	}

	var ledByRaw []iscsi.BatchEntry
	for k := range 3 {
		noise := make([]byte, bs)
		rng.Read(noise)
		ledByRaw = append(ledByRaw, entry(k, noise))
		if xcode.Codec(ledByRaw[k].Frame[0]) != xcode.CodecRaw {
			t.Fatal("a random block did not floor to raw")
		}
	}
	for k := 3; k < 12; k++ {
		ledByRaw = append(ledByRaw, entry(k, textBlock(bs, 600, byte(k))))
	}
	if squeezed, lost := probe(ledByRaw); !squeezed || lost {
		t.Errorf("a run led by raw frames: squeezed %v, probe lost %v; want a kept probe", squeezed, lost)
	}

	var masked []iscsi.BatchEntry
	for k := range 12 {
		oldBlock, newBlock := make([]byte, bs), textBlock(bs, 600, byte(k))
		rng.Read(oldBlock[:600])
		copy(newBlock[600:], oldBlock[600:])
		fp := make([]byte, bs)
		if err := parity.ForwardInto(fp, newBlock, oldBlock); err != nil {
			t.Fatal(err)
		}
		be := entry(k, fp)
		var err error
		if be.Mask, err = xcode.AppendMask(nil, be.Frame, newBlock); err != nil {
			t.Fatal(err)
		}
		masked = append(masked, be)
	}
	unmasked := make([]iscsi.BatchEntry, len(masked))
	for k, be := range masked {
		unmasked[k] = iscsi.BatchEntry{Seq: be.Seq, LBA: be.LBA, Hash: be.Hash, Frame: be.Frame}
	}
	if squeezed, lost := probe(unmasked); squeezed || !lost {
		t.Fatalf("random parities without twins: squeezed %v, probe lost %v; want the probe lost", squeezed, lost)
	}
	if squeezed, lost := probe(masked); !squeezed || lost {
		t.Errorf("random parities with prose twins: squeezed %v, probe lost %v; want a kept probe", squeezed, lost)
	}
}

// TestSqueezeMaskCoalesced: a coalesced group's twin is the members'
// twins laid over each other, on the structure of the merged parity's
// exact frame. The writes here change bytes two and three apart, so the
// usual frame of their merged parity absorbs bytes no member changed,
// which no member's twin covers; the group still ships its usual frame
// plain, and its twin, landed on the group's pre-image, leaves the last
// write's block and rebuilds the exact frame its check was made from.
func TestSqueezeMaskCoalesced(t *testing.T) {
	const bs = 512
	rng := rand.New(rand.NewSource(8))
	blocks := [][]byte{make([]byte, bs)}
	rng.Read(blocks[0])
	for _, offs := range [][]int{{10, 40, 41, 300}, {12, 44, 301}, {15, 42, 302, 500}} {
		next := bytes.Clone(blocks[len(blocks)-1])
		for _, o := range offs {
			next[o] ^= byte(1 + rng.Intn(255))
		}
		blocks = append(blocks, next)
	}
	var members []repMsg
	acc := make([]byte, bs)
	for w := 1; w < len(blocks); w++ {
		fp := make([]byte, bs)
		if err := parity.ForwardInto(fp, blocks[w], blocks[w-1]); err != nil {
			t.Fatal(err)
		}
		subtle.XORBytes(acc, acc, fp)
		fb := &frameBuf{}
		var err error
		if fb.buf, err = xcode.AppendEncodeBest(nil, fp, xcode.CodecZRL); err != nil {
			t.Fatal(err)
		}
		fb.buf = append(make([]byte, iscsi.FrameHeadroom), fb.buf...)
		if fb.twin, err = xcode.AppendMask(nil, fb.frame(), blocks[w]); err != nil {
			t.Fatal(err)
		}
		members = append(members, repMsg{seq: uint64(w), lba: 1, hash: iscsi.HashBlock(blocks[w]), frame: fb})
	}
	frame, twin, check, err := mergedFrames(acc, members)
	if err != nil {
		t.Fatal(err)
	}
	usual, err := xcode.EncodeBest(acc, xcode.CodecZRL)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := xcode.EncodeExact(acc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, usual) || bytes.Equal(usual, exact) {
		t.Fatalf("merged frame is not the usual one, or the usual one absorbs no gap")
	}
	if len(twin) == 0 {
		t.Fatal("no twin for a group whose members all have one")
	}
	landed := bytes.Clone(blocks[0])
	rebuilt, err := xcode.MaskInto(landed, twin, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := blocks[len(blocks)-1]
	if !bytes.Equal(landed, last) || !bytes.Equal(rebuilt, exact) {
		t.Fatal("the merged twin does not land the last write over the first pre-image")
	}
	if check != iscsi.HashBlock(last)^iscsi.HashBlock(exact) {
		t.Error("the merged twin's check is not the last block's hash XOR the exact frame's")
	}

	members[1].frame.twin = nil
	if _, twin, _, err := mergedFrames(acc, members); err != nil || twin != nil {
		t.Errorf("a member without a twin: twin %d bytes, %v; want none", len(twin), err)
	}
}
