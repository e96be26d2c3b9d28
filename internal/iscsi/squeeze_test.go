package iscsi

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"slices"
	"testing"

	"prins/internal/xcode"
)

// squeezeEntries builds n entries from push p of a stream whose frames
// are CodecZRL parities with prose-like literals that repeat across
// pushes (a working set's rows), plus one raw-floored frame and, when
// withRef is set, one reference.
func squeezeEntries(t testing.TB, p, n int, withRef bool) []BatchEntry {
	t.Helper()
	const words = "warehouse district customer order line stock item history payment "
	entries := make([]BatchEntry, n)
	for k := range entries {
		parity := make([]byte, 2048)
		off := (k * 193) % 1500
		for j := 0; j < 120+7*k; j++ {
			parity[off+j] = words[(j+p+k)%len(words)]
		}
		parity[off] = byte(p)
		frame, err := xcode.Encode(xcode.CodecZRL, parity)
		if err != nil {
			t.Fatal(err)
		}
		entries[k] = BatchEntry{Seq: uint64(100*p + k + 1), LBA: uint64(3 * k), Hash: 0xABC0 + uint64(k), Frame: frame}
	}
	entries[n-1].Frame = append([]byte{byte(xcode.CodecRaw)}, bytes.Repeat([]byte{0x5A, 0xC3, 0x11}, 30)...)
	if withRef {
		entries[1].Frame = nil
	}
	return entries
}

// listDigest is the digest a squeezed list of entries carries: the
// hash of its by-value entries' checks, 8 bytes big-endian each, in
// entry order.
func listDigest(entries []BatchEntry) uint64 {
	var in []byte
	for _, e := range entries {
		if !e.ByRef() {
			in = binary.BigEndian.AppendUint64(in, e.check())
		}
	}
	return HashBlock(in)
}

// pushSqueezed encodes entries on tx and decodes them on rx, as the two
// ends of a session would, and checks the list survives intact: every
// entry's seq, LBA and streamed frame, a reference's hash, no hash for
// a by-value entry, and the list's digest.
func pushSqueezed(t *testing.T, tx *SqueezeSender, rx *SqueezeReceiver, entries []BatchEntry) (seg []byte, tag uint64) {
	t.Helper()
	seg, tag, ok, err := tx.Encode(entries)
	if err != nil || !ok {
		t.Fatalf("encode: ok %v, %v", ok, err)
	}
	got, err := rx.Decode(nil, append([]byte(nil), seg...), tag)
	if err != nil {
		t.Fatalf("decode of tag %d: %v", tag, err)
	}
	tx.Commit()
	if len(got) != len(entries) {
		t.Fatalf("%d entries decoded, %d sent", len(got), len(entries))
	}
	for k, e := range entries {
		hash := uint64(0)
		if e.ByRef() {
			hash = e.Hash
		}
		if got[k].Seq != e.Seq || got[k].LBA != e.LBA || got[k].Hash != hash || !bytes.Equal(got[k].Frame, e.InStream()) {
			t.Fatalf("entry %d: got %+v, sent %+v", k, got[k], e)
		}
	}
	if rx.Digest() != listDigest(entries) {
		t.Fatalf("digest %x, want %x", rx.Digest(), listDigest(entries))
	}
	return seg, tag
}

// TestSqueezeListRoundTrip: a stream's squeezed lists decode to exactly
// the entries sent, references and raw-floored frames included; the
// tags count the pushes; a push primed with the stream's history ships
// in fewer bytes than the same push would fresh; and a list too short
// to shrink is left to ship plain.
func TestSqueezeListRoundTrip(t *testing.T) {
	for _, withRef := range []bool{false, true} {
		t.Run(fmt.Sprintf("refs=%v", withRef), func(t *testing.T) {
			var tx SqueezeSender
			var rx SqueezeReceiver
			var primed []int
			for p := range 4 {
				entries := squeezeEntries(t, p, 12, withRef)
				seg, tag := pushSqueezed(t, &tx, &rx, entries)
				if tag != uint64(p+1) {
					t.Errorf("push %d: tag %d", p, tag)
				}
				if plain := BatchWireLen(entries); len(seg) >= plain {
					t.Errorf("push %d: %d squeezed bytes, %d plain", p, len(seg), plain)
				}
				primed = append(primed, len(seg))
			}
			var fresh SqueezeSender
			seg, tag, ok, err := fresh.Encode(squeezeEntries(t, 3, 12, withRef))
			if err != nil || !ok || tag != 1 {
				t.Fatalf("fresh encode: tag %d, ok %v, %v", tag, ok, err)
			}
			if primed[3] >= len(seg) {
				t.Errorf("push 3 primed with three pushes of history: %d bytes, fresh %d", primed[3], len(seg))
			}
			t.Logf("segments %v, the last one fresh %d", primed, len(seg))
		})
	}
	var tx SqueezeSender
	raw := []BatchEntry{{Seq: 1, LBA: 2, Hash: 3, Frame: []byte{byte(xcode.CodecRaw), 1, 2}}, {Seq: 2, LBA: 3, Hash: 4}}
	if _, _, ok, err := tx.Encode(raw); ok || err != nil {
		t.Errorf("a list of a reference and a 3-byte frame: ok %v, %v; want it left plain", ok, err)
	}
}

// TestSqueezeMaskList: an entry with a masked twin streams the twin in
// its frame's place, and the list's digest folds the twin's check in
// its hash's place; entries without one, references and raw-floored
// frames ship as before; a frame that is itself a mask streams as it
// is; and the plain encodings ignore masks.
func TestSqueezeMaskList(t *testing.T) {
	entries := squeezeEntries(t, 0, 6, true)
	masked := map[int]bool{0: true, 3: true}
	for k := range masked {
		e := &entries[k]
		newBlock, err := xcode.Decode(e.Frame)
		if err != nil {
			t.Fatal(err)
		}
		for i := range newBlock {
			newBlock[i] ^= byte(i%26) + 'a' // the block the parity leaves over a pre-image of letters
		}
		if e.Mask, err = xcode.AppendMask(nil, e.Frame, newBlock); err != nil {
			t.Fatal(err)
		}
		e.Check = e.Hash ^ 0xF00D
	}
	var tx SqueezeSender
	var rx SqueezeReceiver
	pushSqueezed(t, &tx, &rx, entries)
	unmasked := make([]BatchEntry, len(entries))
	for k, e := range entries {
		unmasked[k] = BatchEntry{Seq: e.Seq, LBA: e.LBA, Hash: e.Hash, Frame: e.Frame}
	}
	if listDigest(unmasked) == listDigest(entries) {
		t.Error("the digest does not fold the twins' checks")
	}

	maskFrame := BatchEntry{Frame: entries[0].Mask}
	if !bytes.Equal(maskFrame.InStream(), entries[0].Mask) {
		t.Error("a mask frame does not stream as it is")
	}
	withMasks, err := EncodeBatch(entries)
	if err != nil {
		t.Fatal(err)
	}
	without, err := EncodeBatch(unmasked)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(withMasks, without) {
		t.Error("a plain list carries masks")
	}
}

// TestSqueezeStaleHistoryRefused: a receiver refuses a push whose tag
// names a history it does not hold, before decoding anything, and keeps
// its own; a fresh push (tag 1) always decodes and resets it; a push
// that fails to decode leaves the history as it was.
func TestSqueezeStaleHistoryRefused(t *testing.T) {
	var tx SqueezeSender
	var rx SqueezeReceiver
	pushSqueezed(t, &tx, &rx, squeezeEntries(t, 0, 8, false))
	pushSqueezed(t, &tx, &rx, squeezeEntries(t, 1, 8, false))

	// The sender believes the receiver took one more push than it did.
	seg, tag, _, err := tx.Encode(squeezeEntries(t, 2, 8, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []uint64{tag + 1, tag - 1, 0} {
		if _, err := rx.Decode(nil, seg, bad); !errors.Is(err, ErrStaleHistory) && bad != 0 {
			t.Errorf("tag %d against 2 pushes held: %v, want ErrStaleHistory", bad, err)
		}
	}
	// A corrupt push with the right tag fails and leaves the history.
	corrupt := append([]byte(nil), seg...)
	corrupt[len(corrupt)-8] ^= 0x55
	if _, err := rx.Decode(nil, corrupt, tag); !errors.Is(err, ErrBadFrame) {
		t.Errorf("corrupt segment: %v, want ErrBadFrame", err)
	}
	if _, err := rx.Decode(nil, seg, tag); err != nil {
		t.Errorf("the intact push after a corrupt one: %v", err)
	}
	tx.Commit()

	// A fresh push from a sender that started over resets the receiver.
	tx.Reset()
	pushSqueezed(t, &tx, &rx, squeezeEntries(t, 3, 8, false))
	pushSqueezed(t, &tx, &rx, squeezeEntries(t, 4, 8, false))
}

// squeezedList lays out a squeezed list by hand: its count, plaintext
// length and digest, and a fresh stream segment that rebuilds plain,
// whatever it holds.
func squeezedList(t *testing.T, count, plainLen int, plain []byte) []byte {
	t.Helper()
	var def xcode.StreamDeflater
	seg := binary.AppendUvarint(nil, uint64(count))
	seg = binary.AppendUvarint(seg, uint64(plainLen))
	seg = binary.BigEndian.AppendUint64(seg, 0xD16E57)
	if err := def.Start(seg); err != nil {
		t.Fatal(err)
	}
	if err := def.Write(plain); err != nil {
		t.Fatal(err)
	}
	seg, err := def.End()
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// TestSqueezeDecodeStrict: the squeezed-list decoder refuses, as
// ErrBadFrame or ErrShortFrame and before allocating for them, counts
// and plaintexts declared beyond the protocol's bounds or beyond what
// their plaintext could hold; refuses truncated and trailing segment
// bytes and a segment that rebuilds another length than declared; and
// parses the plaintext as strictly as a plain list: no trailing bytes,
// no reference without a hash. A reference with one is accepted, as in
// any list.
func TestSqueezeDecodeStrict(t *testing.T) {
	var tx SqueezeSender
	entries := squeezeEntries(t, 0, 6, false)
	seg, _, ok, err := tx.Encode(entries)
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	seg = append([]byte(nil), seg...)
	count, n := binary.Uvarint(seg)
	plainLen, w := binary.Uvarint(seg[n:])
	head := n + w + HashSize // the segment starts here
	plain := AppendStream(nil, entries, MaxDataSegment)
	if count != 6 || int(plainLen) != len(plain) {
		t.Fatalf("list declares %d entries in %d bytes, want 6 in %d", count, plainLen, len(plain))
	}

	cases := map[string][]byte{
		"truncated stream":                seg[:len(seg)-1],
		"stream cut to sync":              append(append([]byte(nil), seg[:head+2]...), 0, 0, 0xff, 0xff),
		"trailing byte":                   append(append([]byte(nil), seg...), 0),
		"trailing garbage":                append(append([]byte(nil), seg...), 0xff, 0, 0, 0xff, 0xff),
		"no stream":                       seg[:head],
		"no digest":                       seg[:n+w+3],
		"no count":                        nil,
		"count of zero":                   squeezedList(t, 0, len(plain), plain),
		"count over the cap":              squeezedList(t, MaxBatchFrames+1, len(plain), plain),
		"count past the plaintext's room": squeezedList(t, len(plain)/minPlainEntryLen+1, len(plain), plain),
		"plaintext over MaxDataSegment":   squeezedList(t, 6, MaxDataSegment+1, plain),
		"plaintext declared one longer":   squeezedList(t, 6, len(plain)+1, plain),
		"plaintext declared one shorter":  squeezedList(t, 6, len(plain)-1, plain),
		"fewer entries than declared":     squeezedList(t, 7, len(plain), plain),
		"more entries than declared":      squeezedList(t, 5, len(plain), plain),
	}
	// A reference without a hash.
	hashless := AppendStream(nil, []BatchEntry{{Seq: 1, LBA: 1}}, 0)
	cases["reference without a hash"] = squeezedList(t, 1, len(hashless), hashless)
	// A plaintext that ends in the middle of an entry.
	cases["entry cut short"] = squeezedList(t, 6, len(plain)-1, plain[:len(plain)-1])
	// A list declaring the most plaintext it may, over a segment that
	// rebuilds nothing.
	huge := binary.AppendUvarint(nil, 1)
	huge = binary.AppendUvarint(huge, MaxDataSegment)
	huge = binary.BigEndian.AppendUint64(huge, 9)
	cases["declared past the ratio bound"] = append(huge, 0, 0, 0, 0xff, 0xff)

	for name, data := range cases {
		var rx SqueezeReceiver
		got, err := rx.Decode(nil, data, 1)
		if err == nil {
			t.Errorf("%s: accepted %d entries", name, len(got))
			continue
		}
		if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrShortFrame) {
			t.Errorf("%s: %v, want ErrBadFrame or ErrShortFrame", name, err)
		}
		if cap(rx.plain) > MaxDataSegment/2 {
			t.Errorf("%s: allocated %d bytes", name, cap(rx.plain))
		}
	}
	var rx SqueezeReceiver
	if _, err := rx.Decode(nil, seg, 1); err != nil {
		t.Errorf("the intact list: %v", err)
	}
	ref := AppendStream(nil, []BatchEntry{{Seq: 1, LBA: 1, Hash: 9}}, 0)
	if got, err := rx.Decode(nil, squeezedList(t, 1, len(ref), ref), 1); err != nil || len(got) != 1 || !got[0].ByRef() || got[0].Hash != 9 {
		t.Errorf("a list of one reference: %+v, %v", got, err)
	}
}

// squeezeBackend records what a target applied from squeezed pushes.
type squeezeBackend struct {
	batchSink
}

func (s *squeezeBackend) HandleReplicaSqueezed(mode, shard uint8, vol uint16, entries []BatchEntry, digest uint64) []Status {
	return s.HandleReplicaBatchStream(mode, shard, vol, entries)
}

// TestSqueezedPushOverSession drives squeezed pushes through an
// initiator and a target: the target applies exactly the entries sent;
// the pushes after the first carry growing tags; a stream whose
// initiator-side history has gone stale is refused and re-shipped fresh,
// applied once; ResetSqueeze makes the next push fresh, on the stream's
// own encoder; and the bytes
// ReplicaWriteSqueezed reports are the data segments that crossed the
// connection.
func TestSqueezedPushOverSession(t *testing.T) {
	sink := &squeezeBackend{}
	init, rec := startRecordedPair(t, sink)
	const shard, vol = 3, 7
	var tags []uint64
	push := func(p int) {
		t.Helper()
		entries := squeezeEntries(t, p, 10, false)
		st, sent, err := init.ReplicaWriteSqueezed(1, shard, vol, entries)
		if err != nil {
			t.Fatalf("push %d: %v", p, err)
		}
		if len(st) != len(entries) {
			t.Fatalf("push %d: %d statuses", p, len(st))
		}
		wire := rec.take()
		var hdrs int
		for off := 0; off < len(wire); {
			var pdu PDU
			if err := pdu.readHeader(bytes.NewReader(wire[off:]), make([]byte, headerLen)); err != nil {
				t.Fatal(err)
			}
			tags = append(tags, pdu.Seq)
			n := int(binary.BigEndian.Uint32(wire[off+24:]))
			off += headerLen + n
			hdrs += headerLen
		}
		if last := len(wire) - hdrs; sent != last && hdrs == headerLen {
			t.Errorf("push %d: reported %d bytes, %d crossed", p, sent, last)
		}
		sink.mu.Lock()
		got := sink.batches[len(sink.batches)-1]
		sink.mu.Unlock()
		for k := range got {
			if !bytes.Equal(got[k].Frame, entries[k].Frame) || got[k].Seq != entries[k].Seq {
				t.Fatalf("push %d entry %d applied differently", p, k)
			}
		}
	}
	push(0)
	push(1)
	push(2)
	if want := []uint64{1, 2, 3}; fmt.Sprint(tags) != fmt.Sprint(want) {
		t.Errorf("tags %v, want %v", tags, want)
	}

	// Knock the initiator's history out of step: the target refuses the
	// next push whole, and it re-ships fresh.
	init.mu.Lock()
	init.sess.squeeze[streamID(shard, vol)].tx.pushes += 5
	init.mu.Unlock()
	tags = nil
	before := len(sink.batches)
	push(3)
	if want := []uint64{9, 1}; fmt.Sprint(tags) != fmt.Sprint(want) {
		t.Errorf("stale push went out with tags %v, want %v", tags, want)
	}
	if got := len(sink.batches) - before; got != 1 {
		t.Errorf("a push refused as stale and re-shipped applied %d times", got)
	}

	tags = nil
	init.mu.Lock()
	held := init.sess.squeeze[streamID(shard, vol)]
	init.mu.Unlock()
	init.ResetSqueeze(shard, vol)
	push(4)
	push(5)
	if want := []uint64{1, 2}; fmt.Sprint(tags) != fmt.Sprint(want) {
		t.Errorf("after ResetSqueeze: tags %v, want %v", tags, want)
	}
	init.mu.Lock()
	kept := init.sess.squeeze[streamID(shard, vol)] == held
	init.mu.Unlock()
	if !kept {
		t.Error("ResetSqueeze dropped the stream's encoder: its next push built a new one")
	}
}

// FuzzDecodeSqueezed feeds arbitrary segments and tags to a receiver
// that holds a history: it never panics, never allocates more for the
// plaintext than MaxDataSegment or what an accepted push carries,
// refuses only with the documented sentinels, and whatever it accepts
// parses as a plain list would: no more entries than MaxBatchFrames,
// frames that fit the plaintext declared, no hashless reference, and a
// hash on references alone.
func FuzzDecodeSqueezed(f *testing.F) {
	var tx SqueezeSender
	var warm SqueezeReceiver
	first, _, _, err := tx.Encode(squeezeEntries(f, 0, 6, false))
	if err != nil {
		f.Fatal(err)
	}
	first = append([]byte(nil), first...)
	if _, err := warm.Decode(nil, first, 1); err != nil {
		f.Fatal(err)
	}
	firstLen := len(warm.plain)
	tx.Commit()
	second, _, _, err := tx.Encode(squeezeEntries(f, 1, 6, true))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(first, uint64(1))
	f.Add(append([]byte(nil), second...), uint64(2))
	f.Add(first[:len(first)-2], uint64(1))
	f.Add(append(countOf(3), make([]byte, 3*minEntryLen-1)...), uint64(1))
	// The new layout's edges: a plaintext declared past MaxDataSegment,
	// one declared a byte longer than its segment rebuilds, and a list
	// whose count its plaintext has no room for.
	count, n := binary.Uvarint(first)
	plainLen, w := binary.Uvarint(first[n:])
	relen := func(count, plainLen uint64) []byte {
		out := binary.AppendUvarint(nil, count)
		out = binary.AppendUvarint(out, plainLen)
		return append(out, first[n+w:]...)
	}
	f.Add(relen(count, MaxDataSegment+1), uint64(1))
	f.Add(relen(count, plainLen+1), uint64(1))
	f.Add(relen(plainLen/minPlainEntryLen+1, plainLen), uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, tag uint64) {
		var rx SqueezeReceiver
		if _, err := rx.Decode(nil, first, 1); err != nil {
			t.Fatal(err)
		}
		entries, err := rx.Decode(nil, data, tag)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrShortFrame) && !errors.Is(err, ErrStaleHistory) {
				t.Fatalf("unexpected error class: %v", err)
			}
			if cap(rx.plain) > max(MaxDataSegment, firstLen) {
				t.Fatalf("a refused push allocated %d bytes", cap(rx.plain))
			}
			return
		}
		if len(entries) == 0 || len(entries) > MaxBatchFrames {
			t.Fatalf("accepted %d entries", len(entries))
		}
		frames := 0
		for _, e := range entries {
			frames += len(e.Frame)
			switch {
			case e.ByRef() && e.Hash == 0:
				t.Fatal("accepted a reference without a hash")
			case !e.ByRef() && e.Hash != 0:
				t.Fatal("accepted a by-value entry with a hash")
			}
		}
		if frames > MaxDataSegment || cap(rx.plain) > max(frames+len(entries)*(3*binary.MaxVarintLen64+HashSize), firstLen) {
			t.Fatalf("%d frame bytes from a %d-byte segment into %d", frames, len(data), cap(rx.plain))
		}
	})
}

// TestSqueezeRepeatPastRatio: a push that repeats an earlier push's
// frames rebuilds far more than DEFLATE alone could carry in its
// segment, and decodes byte-exact; a hand-built run-length repeat that
// would rebuild past the plaintext its list declares is refused,
// leaving the history to decode the next push.
func TestSqueezeRepeatPastRatio(t *testing.T) {
	const words = "warehouse district customer order line stock item history payment "
	entries := make([]BatchEntry, 8)
	total := 0
	for k := range entries {
		block := make([]byte, 32<<10)
		for i := range block {
			block[i] = words[(i*7+k*131+i/97)%len(words)]
		}
		frame, err := xcode.Encode(xcode.CodecZRL, block)
		if err != nil {
			t.Fatal(err)
		}
		entries[k] = BatchEntry{Seq: uint64(k + 1), LBA: uint64(k), Hash: uint64(k), Frame: frame}
		total += len(frame)
	}
	var tx SqueezeSender
	var rx SqueezeReceiver
	pushSqueezed(t, &tx, &rx, entries)
	for k := range entries {
		entries[k].Seq += 100
	}
	seg, tag := pushSqueezed(t, &tx, &rx, entries)
	if total <= 1032*len(seg) {
		t.Fatalf("a repeated push of %d stream bytes took %d bytes: not past DEFLATE's ratio", total, len(seg))
	}
	t.Logf("a repeated push of %d stream bytes in a %d-byte data segment", total, len(seg))

	// A list declaring 100 bytes of plaintext whose segment repeats 'a'
	// a thousand times from one byte back.
	list := binary.AppendUvarint(nil, 1)
	list = binary.AppendUvarint(list, 100)
	list = binary.BigEndian.AppendUint64(list, 9)
	run := bytes.Repeat([]byte{'a'}, 1001)
	body := binary.BigEndian.AppendUint32(nil, crc32.Checksum(run, crc32.MakeTable(crc32.Castagnoli)))
	body = append(body, 1, 1)                         // one repeat, one literal before it
	body = binary.AppendUvarint(body, 1000)           // 1000 bytes
	body = append(binary.AppendUvarint(body, 1), 'a') // from 1 back, after the literal 'a'
	var z bytes.Buffer
	fw, err := flate.NewWriter(&z, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(body)
	fw.Flush()
	if _, err := rx.Decode(nil, append(list, z.Bytes()...), tag+1); !errors.Is(err, ErrBadFrame) {
		t.Errorf("a run-length repeat past its list's 100 bytes: %v, want ErrBadFrame", err)
	}
	for k := range entries {
		entries[k].Seq += 100
	}
	pushSqueezed(t, &tx, &rx, entries)
}

// imageBackend keeps the last frame each (vol, shard, lba) was sent:
// the image the pushes it applied built.
type imageBackend struct {
	replicaSink
	image map[[3]uint64][]byte
}

func (b *imageBackend) HandleReplicaBatchStream(mode, shard uint8, vol uint16, entries []BatchEntry) []Status {
	statuses := make([]Status, len(entries))
	for k, e := range entries {
		statuses[k] = b.HandleReplicaStream(mode, shard, vol, e.Seq, e.LBA, e.Hash, e.Frame)
	}
	return statuses
}

func (b *imageBackend) HandleReplicaSqueezed(mode, shard uint8, vol uint16, entries []BatchEntry, digest uint64) []Status {
	return b.HandleReplicaBatchStream(mode, shard, vol, entries)
}

func (b *imageBackend) HandleReplicaStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) Status {
	b.image[[3]uint64{uint64(vol), uint64(shard), lba}] = bytes.Clone(frame)
	return StatusOK
}

// TestSqueezeHistoryCap: a session whose pushes come from ten times
// maxSqueezeStreams streams keeps no more than that many histories. A
// stream that keeps pushing keeps its history while hundreds of others
// come and go; one that stops is forgotten, and its next push comes back
// StatusStaleHistory and re-ships fresh; and the image the pushes built
// holds exactly the frames last sent to every block.
func TestSqueezeHistoryCap(t *testing.T) {
	backend := &imageBackend{image: make(map[[3]uint64][]byte)}
	want := make(map[[3]uint64][]byte)
	rq := new(request)
	stale := 0
	push := func(tx *SqueezeSender, shard uint8, vol uint16, p int) (tag uint64) {
		t.Helper()
		entries := squeezeEntries(t, p, 4, false)
		for fresh := false; ; fresh = true {
			seg, tag, ok, err := tx.Encode(entries)
			if err != nil || !ok {
				t.Fatalf("encode: ok %v, %v", ok, err)
			}
			rq.pdu = PDU{Op: OpReplicaWriteBatch, Mode: 1, Shard: shard, Vol: vol, Seq: tag, Data: bytes.Clone(seg)}
			_, status := rq.applyEntryList(backend)
			if len(rq.squeeze) > maxSqueezeStreams {
				t.Fatalf("%d squeeze histories held", len(rq.squeeze))
			}
			if status == StatusStaleHistory && !fresh {
				stale++
				tx.Reset()
				continue
			}
			if status != StatusOK {
				t.Fatalf("stream (%d, %d) push %d: %v", shard, vol, p, status)
			}
			tx.Commit()
			for _, e := range entries {
				want[[3]uint64{uint64(vol), uint64(shard), e.LBA}] = e.Frame
			}
			return tag
		}
	}
	// Eight hot streams push between every few of 632 streams that push
	// once each, fresh.
	var hot [8]SqueezeSender
	var once SqueezeSender
	var hotTags, hotPushes [len(hot)]uint64
	for k := range 10*maxSqueezeStreams - len(hot) {
		once.Reset()
		push(&once, uint8(k%256), uint16(100+k/256), k)
		if k%4 == 0 {
			h := k / 4 % len(hot)
			hotTags[h] = push(&hot[h], uint8(h), 1, k)
			hotPushes[h]++
		}
	}
	if stale != 0 {
		t.Errorf("hot streams refused as stale %d times", stale)
	}
	if hotTags != hotPushes {
		t.Errorf("hot streams ended on tags %v after %v pushes: a history was dropped", hotTags, hotPushes)
	}
	// Now the one-shot streams alone, past the cap: the hot streams are
	// forgotten, and each one's next push re-ships fresh.
	for k := range maxSqueezeStreams {
		once.Reset()
		push(&once, uint8(k), 2000, k)
	}
	for h := range hot {
		if tag := push(&hot[h], uint8(h), 1, 7000+h); tag != 1 {
			t.Errorf("forgotten hot stream %d: tag %d, want a fresh push", h, tag)
		}
		push(&hot[h], uint8(h), 1, 8000+h)
	}
	if stale != len(hot) {
		t.Errorf("%d pushes refused as stale, want %d", stale, len(hot))
	}
	if len(backend.image) != len(want) {
		t.Fatalf("image holds %d blocks, %d sent", len(backend.image), len(want))
	}
	for key, frame := range want {
		if !bytes.Equal(backend.image[key], frame) {
			t.Fatalf("block %v differs from the frame last sent to it", key)
		}
	}
}

// TestSqueezeStreamCapOverSession: 256 streams, a volume's worth of
// shards, squeeze over one Initiator-Target session, round after round,
// while one hot stream pushes between every few of them. After every
// push neither end holds more than maxSqueezeStreams histories; the hot
// stream keeps its history throughout while each of the others is
// evicted before it comes round again, so its next push goes out fresh
// and is never refused as stale; every block ends holding the frame
// last sent to it. A stream new to the session when pushes hold every
// history the cap allows ships plain, and takes over the first history
// a push releases.
func TestSqueezeStreamCapOverSession(t *testing.T) {
	backend := &imageBackend{image: make(map[[3]uint64][]byte)}
	target := NewTarget()
	target.Export("r", backend)
	client, server := net.Pipe()
	rq := new(request)
	served := make(chan struct{})
	go func() {
		defer close(served)
		target.serve(server, rq)
	}()
	rec := &recordingConn{Conn: client}
	init := NewInitiator(rec)
	t.Cleanup(func() {
		init.Close()
		<-served
	})
	if err := init.Login("r"); err != nil {
		t.Fatal(err)
	}
	rec.take()

	want := make(map[[3]uint64][]byte)
	push := func(shard uint8, vol uint16, p int) (tag uint64) {
		t.Helper()
		entries := squeezeEntries(t, p, 4, false)
		_, sent, err := init.ReplicaWriteSqueezed(1, shard, vol, entries)
		if err != nil {
			t.Fatalf("stream (%d, %d) push %d: %v", shard, vol, p, err)
		}
		if sent >= BatchWireLen(entries) {
			t.Fatalf("stream (%d, %d) push %d shipped plain", shard, vol, p)
		}
		init.mu.Lock()
		held := len(init.sess.squeeze)
		init.mu.Unlock()
		if held > maxSqueezeStreams || len(rq.squeeze) > maxSqueezeStreams {
			t.Fatalf("after stream (%d, %d) push %d: %d histories held at the initiator, %d at the target",
				shard, vol, p, held, len(rq.squeeze))
		}
		wire := rec.take()
		if len(wire) > headerLen+int(binary.BigEndian.Uint32(wire[24:])) {
			t.Fatalf("stream (%d, %d) push %d went out twice: refused as stale", shard, vol, p)
		}
		for _, e := range entries {
			want[[3]uint64{uint64(vol), uint64(shard), e.LBA}] = e.Frame
		}
		return binary.BigEndian.Uint64(wire[28:])
	}
	const hot = 9
	var hotPushes uint64
	for round := range 3 {
		for shard := range 256 {
			if tag := push(uint8(shard), 1, 256*round+shard); tag != 1 {
				t.Fatalf("round %d stream %d went out on tag %d, want a fresh push", round, shard, tag)
			}
			if shard%4 == 0 {
				hotPushes++
				if tag := push(0, hot, 1000+shard); tag != hotPushes {
					t.Fatalf("hot stream went out on tag %d after %d pushes: its history was dropped", tag, hotPushes-1)
				}
			}
		}
	}
	if len(backend.image) != len(want) {
		t.Fatalf("image holds %d blocks, %d sent", len(backend.image), len(want))
	}
	for key, frame := range want {
		if !bytes.Equal(backend.image[key], frame) {
			t.Fatalf("block %v differs from the frame last sent to it", key)
		}
	}

	// Pushes hold every history: a new stream gets none until one is
	// released, then takes that one over.
	s := init.sess
	var claimed []*squeezeStream
	for key := range uint32(maxSqueezeStreams) {
		if st := init.claimSqueeze(s, 0x10000+key); st != nil {
			claimed = append(claimed, st)
		}
	}
	if len(claimed) != maxSqueezeStreams {
		t.Fatalf("%d of %d fresh streams claimed a history", len(claimed), maxSqueezeStreams)
	}
	if st := init.claimSqueeze(s, 0x20000); st != nil {
		t.Fatal("a stream took over a history a push holds")
	}
	init.settleSqueeze(claimed[5], false, false)
	if st := init.claimSqueeze(s, 0x20000); st != claimed[5] || len(s.squeeze) != maxSqueezeStreams {
		t.Fatalf("the released history was not taken over (%d held)", len(s.squeeze))
	}
}

// TestSqueezeUnverifiedReshipsPlain: a target whose backend cannot
// verify a squeezed list answers it StatusUnverified entry by entry,
// and the initiator re-ships it once, plain, inside the same call: its
// statuses are the plain list's, the bytes reported count both data
// segments, and the stream's history kept the unverified push, so the
// next one goes out primed.
func TestSqueezeUnverifiedReshipsPlain(t *testing.T) {
	sink := &batchSink{} // cannot verify a squeezed list
	init, rec := startRecordedPair(t, sink)
	const shard, vol = 1, 2
	for p := range 2 {
		entries := squeezeEntries(t, p, 8, false)
		sink.mu.Lock()
		sink.status = map[uint64]Status{entries[2].LBA: StatusDiverged}
		sink.mu.Unlock()
		st, sent, err := init.ReplicaWriteSqueezed(1, shard, vol, entries)
		if err != nil {
			t.Fatal(err)
		}
		for k, s := range st {
			if want := map[bool]Status{true: StatusDiverged, false: StatusOK}[k == 2]; s != want {
				t.Errorf("push %d entry %d: %v, want %v", p, k, s, want)
			}
		}
		wire := rec.take()
		var tags []uint64
		data := 0
		for off := 0; off < len(wire); {
			n := int(binary.BigEndian.Uint32(wire[off+24:]))
			tags = append(tags, binary.BigEndian.Uint64(wire[off+28:]))
			data += n
			off += headerLen + n
		}
		if want := []uint64{uint64(p + 1), 0}; !slices.Equal(tags, want) {
			t.Errorf("push %d went out with tags %v, want %v: squeezed, then plain", p, tags, want)
		}
		if sent != data {
			t.Errorf("push %d reported %d bytes, %d crossed", p, sent, data)
		}
		sink.mu.Lock()
		got := sink.batches[len(sink.batches)-1]
		sink.mu.Unlock()
		if len(got) != len(entries) || got[0].Hash != entries[0].Hash {
			t.Errorf("push %d: the plain re-ship applied %d entries", p, len(got))
		}
	}
}
