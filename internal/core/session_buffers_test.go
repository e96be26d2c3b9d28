package core

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"prins/internal/block"
	"prins/internal/iscsi"
	"prins/internal/xcode"
)

// lentBackend is a replica behind a target that records every buffer
// the target lends it: each HandleRead's dst apart, and the request
// bytes of every write and push (a raw span's data segment, a
// compressed span's inflate scratch, a list's frames, a squeezed list's
// frames in its stream's buffer). It never reads a recorded slice after
// the call returns; it keeps them so that no later allocation can take
// an address it compares.
type lentBackend struct {
	*ReplicaEngine
	mu    sync.Mutex
	reads [][]byte
	lent  [][]byte
}

func (b *lentBackend) lend(bufs ...[]byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, buf := range bufs {
		if len(buf) > 0 {
			b.lent = append(b.lent, buf)
		}
	}
}

func (b *lentBackend) lendEntries(entries []iscsi.BatchEntry) {
	for _, e := range entries {
		b.lend(e.Frame, e.Mask)
	}
}

func (b *lentBackend) HandleRead(lba uint64, dst []byte) iscsi.Status {
	b.mu.Lock()
	b.reads = append(b.reads, dst)
	b.mu.Unlock()
	return b.ReplicaEngine.HandleRead(lba, dst)
}

func (b *lentBackend) HandleWrite(lba uint64, data []byte) iscsi.Status {
	b.lend(data)
	return b.ReplicaEngine.HandleWrite(lba, data)
}

func (b *lentBackend) HandleReplicaStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) iscsi.Status {
	b.lend(frame)
	return b.ReplicaEngine.HandleReplicaStream(mode, shard, vol, seq, lba, hash, frame)
}

func (b *lentBackend) HandleReplicaBatchStream(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) []iscsi.Status {
	b.lendEntries(entries)
	return b.ReplicaEngine.HandleReplicaBatchStream(mode, shard, vol, entries)
}

func (b *lentBackend) HandleReplicaSqueezed(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry, digest uint64) []iscsi.Status {
	b.lendEntries(entries)
	return b.ReplicaEngine.HandleReplicaSqueezed(mode, shard, vol, entries, digest)
}

// overlaps reports whether a and b share a byte.
func overlaps(a, b []byte) bool {
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(len(b)) && b0 < a0+uintptr(len(a))
}

// TestSessionBuffersUnderReuse interleaves, on one session, reads of
// every size, hash commands answered in full and settled by their
// digest, raw and compressed repair spans, plain lists and squeezed
// pushes primed by their stream's history. Every read and every hash
// answer matches the image byte for byte, every squeezed push after the
// first ships smaller than its plain list (its history survived the
// reads between), the store ends equal to the image, and no read's
// buffer ever shared a byte with a buffer the session lent a write or a
// push.
func TestSessionBuffersUnderReuse(t *testing.T) {
	const bs, nb, shard = 2048, 64, 2
	rng := rand.New(rand.NewSource(46))
	rep := NewReplicaEngine(mustMem(t, bs, nb))
	backend := &lentBackend{ReplicaEngine: rep}
	n := startNode(t, "replica", backend)
	in, err := iscsi.Dial(n.addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close() })
	if err := in.Login("replica"); err != nil {
		t.Fatal(err)
	}
	mode := uint8(ModePRINS)
	image := make([][]byte, nb)
	for lba := range image {
		image[lba] = make([]byte, bs)
	}
	var seq uint64

	// A span of random blocks goes raw, one of text goes DEFLATE.
	span := func(lba uint64, blocks int, text bool) {
		t.Helper()
		s := iscsi.Span{LBA: lba, Blocks: uint32(blocks), Mask: make([]byte, iscsi.SpanMaskLen(uint32(blocks))), Compress: text}
		for k := range blocks {
			s.Mask[k/8] |= 1 << (k % 8)
			b := make([]byte, bs)
			if text {
				b = textBlock(bs, bs, byte(rng.Intn(256)))
			} else {
				rng.Read(b)
			}
			image[lba+uint64(k)] = b
			s.Data = append(s.Data, b...)
		}
		if _, err := in.WriteSpan(&s); err != nil {
			t.Fatalf("span at %d: %v", lba, err)
		}
	}
	// A PRINS entry that flips a fixed stretch of lba against the image:
	// the same frame every time, so a stream's history makes it cheap.
	delta := make([]byte, bs)
	copy(delta[200:], textBlock(bs, 600, 9)[:600])
	frame, err := xcode.EncodeBest(delta, xcode.CodecZRL)
	if err != nil {
		t.Fatal(err)
	}
	entry := func(lba uint64) iscsi.BatchEntry {
		next := bytes.Clone(image[lba])
		for i := range next {
			next[i] ^= delta[i]
		}
		image[lba] = next
		seq++
		return iscsi.BatchEntry{Seq: seq, LBA: lba, Hash: iscsi.HashBlock(next), Frame: frame}
	}
	allOK := func(what string, st []iscsi.Status, err error) {
		t.Helper()
		if err != nil || slices.ContainsFunc(st, func(s iscsi.Status) bool { return s != iscsi.StatusOK }) {
			t.Fatalf("%s: statuses %v, %v", what, st, err)
		}
	}
	read := func(lba uint64, blocks uint32) {
		t.Helper()
		got, err := in.ReadBlocks(lba, blocks)
		if err != nil {
			t.Fatalf("read of %d at %d: %v", blocks, lba, err)
		}
		if want := bytes.Join(image[lba:lba+uint64(blocks)], nil); !bytes.Equal(got, want) {
			t.Fatalf("read of %d at %d differs from the image", blocks, lba)
		}
	}
	hashes := func(lba uint64, count uint32) {
		t.Helper()
		want := make([]uint64, count)
		for k := range want {
			want[k] = iscsi.HashBlock(image[lba+uint64(k)])
		}
		digest := iscsi.HashBlock(iscsi.AppendHashes(nil, want))
		got, match, err := readHashes(in, lba, count, 0)
		if err != nil || match || !slices.Equal(got, want) {
			t.Fatalf("hashes of %d at %d: %v, match %v, equal %v", count, lba, err, match, slices.Equal(got, want))
		}
		if _, match, err := readHashes(in, lba, count, digest); err != nil || !match {
			t.Fatalf("hashes of %d at %d under their digest: %v, match %v", count, lba, err, match)
		}
		got, match, err = readHashes(in, lba, count, digest^1)
		if err != nil || match || !slices.Equal(got, want) {
			t.Fatalf("hashes of %d at %d under a wrong digest: %v, match %v, equal %v", count, lba, err, match, slices.Equal(got, want))
		}
	}

	span(0, nb/2, false)
	span(nb/2, nb/2, true)
	read(0, nb)
	for round := range 6 {
		list := make([]iscsi.BatchEntry, 8)
		for k := range list {
			list[k] = entry(uint64(8*round + k))
		}
		st, sent, err := in.ReplicaWriteSqueezed(mode, shard, 0, list)
		allOK("squeezed push", st, err)
		if plain := iscsi.BatchWireLen(list); round > 0 && sent.Total() >= plain {
			t.Errorf("round %d: the squeezed push sent %d bytes for a %d-byte list: its history did not survive", round, sent.Total(), plain)
		}
		read(uint64(8*round), 8)
		hashes(uint64(rng.Intn(nb/2)), uint32(1+rng.Intn(nb/2)))
		span(uint64(rng.Intn(nb-4)), 1+rng.Intn(4), round%2 == 1)
		read(0, 1)
		hashes(0, nb)
		lba := uint64(nb - 1 - round)
		st, err = in.ReplicaWriteBatchStream(mode, shard+1, 0, []iscsi.BatchEntry{entry(lba), entry(lba - 8)})
		allOK("list", st, err)
		read(uint64(rng.Intn(nb-16)), uint32(1+rng.Intn(16)))
	}
	read(0, nb)
	mustEqual(t, "replica", rep.store, imageStore(t, bs, image))

	backend.mu.Lock()
	defer backend.mu.Unlock()
	if len(backend.reads) == 0 || len(backend.lent) == 0 {
		t.Fatalf("%d reads and %d lent buffers recorded", len(backend.reads), len(backend.lent))
	}
	for _, dst := range backend.reads {
		for _, lent := range backend.lent {
			if overlaps(dst, lent) {
				t.Fatalf("a read's %d-byte buffer shares bytes with a %d-byte buffer lent to a write or push", len(dst), len(lent))
			}
		}
	}
}

func mustMem(t *testing.T, bs int, nb uint64) *block.MemStore {
	t.Helper()
	s, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// imageStore is a store holding image, one block per entry.
func imageStore(t *testing.T, bs int, image [][]byte) block.Store {
	t.Helper()
	s := mustMem(t, bs, uint64(len(image)))
	for lba, b := range image {
		if err := s.WriteBlock(uint64(lba), b); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// readHashes fetches the hashes of count blocks at lba in a hash
// command of one unit with digest: nil hashes and match when the
// target's own hashes digest to it.
func readHashes(in *iscsi.Initiator, lba uint64, count uint32, digest uint64) (hashes []uint64, match bool, err error) {
	c := iscsi.HashCmd{Units: []iscsi.HashUnit{{LBA: lba, Count: count, Digest: digest}}}
	if err := in.ReadHashUnits(&c); err != nil {
		return nil, false, err
	}
	return c.Units[0].Hashes, c.Units[0].Hashes == nil, nil
}

// TestHashCommandAllocs: a hash command reads each block into the
// session's read buffer and hashes it there, so on a warm session a
// command over 4096 blocks allocates no more, in count or in bytes,
// than one over 16, on both ends of a Target over a ReplicaEngine; nor
// does a command of eight units spread over the device, framed, header
// and unit list, in its HashCmd's buffer. The commands carry their
// digests, as a resync's do, so the answer is an empty segment at every
// size. A race-detector build compares counts only (see raceBuild).
func TestHashCommandAllocs(t *testing.T) {
	const bs, nb = 1024, 4096
	store := mustMem(t, bs, nb)
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, bs)
	local := make([]uint64, nb)
	for lba := range uint64(nb) {
		rng.Read(buf)
		if err := store.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
		local[lba] = iscsi.HashBlock(buf)
	}
	n := startNode(t, "replica", NewReplicaEngine(store))
	in, err := iscsi.Dial(n.addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close() })
	if err := in.Login("replica"); err != nil {
		t.Fatal(err)
	}
	unit := func(lba uint64, count uint32) iscsi.HashUnit {
		return iscsi.HashUnit{LBA: lba, Count: count, Digest: iscsi.HashBlock(iscsi.AppendHashes(nil, local[lba:lba+uint64(count)]))}
	}
	// Bytes are the least over three passes of 20 commands: the runtime's
	// own allocations land on one pass or another, never on all.
	measure := func(units ...iscsi.HashUnit) (allocs, bytes float64) {
		t.Helper()
		cmd := iscsi.HashCmd{Units: units}
		hash := func() {
			if err := in.ReadHashUnits(&cmd); err != nil || slices.ContainsFunc(units, func(u iscsi.HashUnit) bool { return u.Hashes != nil }) {
				t.Fatalf("hashes of %d units: %v", len(units), err)
			}
		}
		hash() // warm: the session's buffers grow to this command
		const runs = 20
		allocs = testing.AllocsPerRun(runs, hash)
		bytes = math.Inf(1)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				hash()
			}
			runtime.ReadMemStats(&after)
			bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return allocs, bytes
	}
	bigAllocs, bigBytes := measure(unit(0, nb))
	var spread []iscsi.HashUnit
	for k := range uint64(8) {
		spread = append(spread, unit(k*512+uint64(k), 256+uint32(k)))
	}
	unitsAllocs, unitsBytes := measure(spread...)
	smallAllocs, smallBytes := measure(unit(0, 16))
	t.Logf("hash command allocations: 4096 blocks %.0f (%.1f B), 8 units %.0f (%.1f B), 16 blocks %.0f (%.1f B)",
		bigAllocs, bigBytes, unitsAllocs, unitsBytes, smallAllocs, smallBytes)
	for _, c := range []struct {
		name          string
		allocs, bytes float64
	}{{"a 4096-block", bigAllocs, bigBytes}, {"an 8-unit", unitsAllocs, unitsBytes}} {
		if c.allocs > smallAllocs || c.bytes > smallBytes && !raceBuild() {
			t.Errorf("%s hash command allocates %.0f times (%.1f B), a 16-block one %.0f (%.1f B)",
				c.name, c.allocs, c.bytes, smallAllocs, smallBytes)
		}
	}
}

// raceBuild reports a race-detector build, whose sync.Pool drops a
// random share of what is put back: bytes allocated then vary from run
// to run with no change in what the code allocates.
func raceBuild() bool {
	info, ok := debug.ReadBuildInfo()
	return ok && slices.ContainsFunc(info.Settings, func(s debug.BuildSetting) bool { return s.Key == "-race" && s.Value == "true" })
}
