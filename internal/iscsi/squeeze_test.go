package iscsi

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"prins/internal/xcode"
)

// squeezeEntries builds n entries from push p of a stream whose frames
// are CodecZRL parities with prose-like literals that repeat across
// pushes (a working set's rows), plus one raw-floored frame, which stays
// inline, and one reference when refs is set.
func squeezeEntries(t testing.TB, p, n int, refs bool) []BatchEntry {
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
	if refs {
		entries[1].Frame = nil
	}
	return entries
}

// pushSqueezed encodes entries on tx and decodes them on rx, as the two
// ends of a session would, and checks the list survives intact.
func pushSqueezed(t *testing.T, tx *SqueezeSender, rx *SqueezeReceiver, entries []BatchEntry, refs bool) (seg []byte, tag uint64) {
	t.Helper()
	seg, tag, ok, err := tx.Encode(entries, refs)
	if err != nil || !ok {
		t.Fatalf("encode: ok %v, %v", ok, err)
	}
	got, err := rx.Decode(nil, append([]byte(nil), seg...), tag, refs)
	if err != nil {
		t.Fatalf("decode of tag %d: %v", tag, err)
	}
	tx.Commit()
	if len(got) != len(entries) {
		t.Fatalf("%d entries decoded, %d sent", len(got), len(entries))
	}
	for k := range got {
		if got[k].Seq != entries[k].Seq || got[k].LBA != entries[k].LBA || got[k].Hash != entries[k].Hash || !bytes.Equal(got[k].Frame, entries[k].Frame) {
			t.Fatalf("entry %d: got %+v, sent %+v", k, got[k], entries[k])
		}
	}
	return seg, tag
}

// TestSqueezeListRoundTrip: a stream's squeezed lists decode to exactly
// the entries sent, references and inline frames included; the tags
// count the pushes; a push primed with the stream's history ships in
// fewer bytes than the same push would fresh; and a list with nothing
// for the stream is left to ship plain.
func TestSqueezeListRoundTrip(t *testing.T) {
	for _, refs := range []bool{false, true} {
		t.Run(fmt.Sprintf("refs=%v", refs), func(t *testing.T) {
			var tx SqueezeSender
			var rx SqueezeReceiver
			var primed []int
			for p := range 4 {
				entries := squeezeEntries(t, p, 12, refs)
				seg, tag := pushSqueezed(t, &tx, &rx, entries, refs)
				if tag != uint64(p+1) {
					t.Errorf("push %d: tag %d", p, tag)
				}
				if plain := BatchWireLen(entries); len(seg) >= plain {
					t.Errorf("push %d: %d squeezed bytes, %d plain", p, len(seg), plain)
				}
				primed = append(primed, len(seg))
			}
			var fresh SqueezeSender
			seg, tag, ok, err := fresh.Encode(squeezeEntries(t, 3, 12, refs), refs)
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
	if _, _, ok, err := tx.Encode(raw, true); ok || err != nil {
		t.Errorf("a list with nothing for the stream: ok %v, %v; want it left plain", ok, err)
	}
}

// TestSqueezeMaskList: an entry with a masked twin streams the twin in
// its frame's place and its check in its hash's, so the target decodes
// the twin and the check; entries without one, references and inline
// frames ship as before; a frame that is itself a mask streams too; and
// the plain encodings ignore masks.
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
	seg, tag, ok, err := tx.Encode(entries, true)
	if err != nil || !ok {
		t.Fatalf("encode: ok %v, %v", ok, err)
	}
	got, err := rx.Decode(nil, append([]byte(nil), seg...), tag, true)
	if err != nil {
		t.Fatal(err)
	}
	for k, e := range entries {
		wantFrame, wantHash := e.Frame, e.Hash
		if masked[k] {
			wantFrame, wantHash = e.Mask, e.Check
		}
		if got[k].Hash != wantHash || !bytes.Equal(got[k].Frame, wantFrame) || got[k].Mask != nil {
			t.Errorf("entry %d (masked %v): decoded hash %x, frame %d bytes; want %x, %d bytes", k, masked[k], got[k].Hash, len(got[k].Frame), wantHash, len(wantFrame))
		}
	}

	maskFrame := BatchEntry{Frame: entries[0].Mask}
	if !maskFrame.Streamed() || !bytes.Equal(maskFrame.InStream(), entries[0].Mask) {
		t.Error("a mask frame does not go in the stream")
	}
	bare := make([]BatchEntry, len(entries))
	for k, e := range entries {
		bare[k] = BatchEntry{Seq: e.Seq, LBA: e.LBA, Hash: e.Hash, Frame: e.Frame}
	}
	withMasks, err := EncodeByRef(entries)
	if err != nil {
		t.Fatal(err)
	}
	without, err := EncodeByRef(bare)
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
	pushSqueezed(t, &tx, &rx, squeezeEntries(t, 0, 8, false), false)
	pushSqueezed(t, &tx, &rx, squeezeEntries(t, 1, 8, false), false)

	// The sender believes the receiver took one more push than it did.
	seg, tag, _, err := tx.Encode(squeezeEntries(t, 2, 8, false), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []uint64{tag + 1, tag - 1, 0} {
		if _, err := rx.Decode(nil, seg, bad, false); !errors.Is(err, ErrStaleHistory) && bad != 0 {
			t.Errorf("tag %d against 2 pushes held: %v, want ErrStaleHistory", bad, err)
		}
	}
	// A corrupt push with the right tag fails and leaves the history.
	corrupt := append([]byte(nil), seg...)
	corrupt[len(corrupt)-8] ^= 0x55
	if _, err := rx.Decode(nil, corrupt, tag, false); !errors.Is(err, ErrBadFrame) {
		t.Errorf("corrupt segment: %v, want ErrBadFrame", err)
	}
	if _, err := rx.Decode(nil, seg, tag, false); err != nil {
		t.Errorf("the intact push after a corrupt one: %v", err)
	}
	tx.Commit()

	// A fresh push from a sender that started over resets the receiver.
	tx.Reset()
	pushSqueezed(t, &tx, &rx, squeezeEntries(t, 3, 8, false), false)
	pushSqueezed(t, &tx, &rx, squeezeEntries(t, 4, 8, false), false)
}

// TestSqueezeDecodeStrict: the squeezed-list decoder refuses, as
// ErrBadFrame or ErrShortFrame and before allocating for them, streams
// declared larger than their segment could carry; refuses truncated and
// trailing stream bytes and an in-stream entry of no length; and never
// inflates past what was declared.
func TestSqueezeDecodeStrict(t *testing.T) {
	var tx SqueezeSender
	entries := squeezeEntries(t, 0, 6, false)
	seg, _, ok, err := tx.Encode(entries, false)
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	seg = append([]byte(nil), seg...)
	meta, _ := entryListSize(entries) // the headers run as long in both forms for these frames
	inline := len(entries[len(entries)-1].Frame)
	stream := meta + inline

	cases := map[string][]byte{
		"truncated stream":   seg[:len(seg)-1],
		"stream cut to sync": append(append([]byte(nil), seg[:stream+2]...), 0, 0, 0xff, 0xff),
		"trailing byte":      append(append([]byte(nil), seg...), 0),
		"trailing garbage":   append(append([]byte(nil), seg...), 0xff, 0, 0, 0xff, 0xff),
		"no stream":          seg[:stream],
	}
	// One more byte declared for the first frame than the stream holds,
	// and one fewer.
	for name, delta := range map[string]int{"stream longer than declared": -1, "stream shorter than declared": 1} {
		mut := append([]byte(nil), seg...)
		lenAt := 1 + 1 + 1 + HashSize // count, seq, lba, hash of entry 0
		n, w := binary.Uvarint(mut[lenAt:])
		fixed := binary.AppendUvarint(nil, uint64(int(n>>1)+delta)<<1|1)
		if len(fixed) != w {
			t.Fatalf("%s: length varint changed size", name)
		}
		copy(mut[lenAt:], fixed)
		cases[name] = mut
	}
	// An in-stream entry of zero length.
	cases["in-stream entry of zero length"] = zeroStreamList([]BatchEntry{{Seq: 1, LBA: 1, Hash: 1}})
	// A stream declared far beyond what its segment could carry.
	huge := binary.AppendUvarint(nil, 1)
	huge = append(huge, 2, 2)
	huge = binary.BigEndian.AppendUint64(huge, 9)
	huge = binary.AppendUvarint(huge, uint64(MaxDataSegment)<<1|1)
	cases["declared past the ratio bound"] = append(huge, 0, 0, 0, 0xff, 0xff)

	for name, data := range cases {
		var rx SqueezeReceiver
		got, err := rx.Decode(nil, data, 1, false)
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
}

// zeroStreamList lays entries out as a squeezed list whose entries all
// declare in-stream frames of no length, over an empty stream segment:
// a hand-built malformed list.
func zeroStreamList(entries []BatchEntry) []byte {
	seg := binary.AppendUvarint(nil, uint64(len(entries)))
	prev := BatchEntry{}
	for _, e := range entries {
		seg = binary.AppendVarint(seg, int64(e.Seq-prev.Seq))
		seg = binary.AppendVarint(seg, int64(e.LBA-prev.LBA))
		seg = binary.BigEndian.AppendUint64(seg, e.Hash)
		seg = binary.AppendUvarint(seg, 1) // frameLen 0, in the stream
		prev = e
	}
	return append(seg, 0, 0, 0, 0xff, 0xff)
}

// squeezeBackend records what a target applied from squeezed pushes.
type squeezeBackend struct {
	batchSink
}

func (s *squeezeBackend) HandleReplicaBatchStream(mode, shard uint8, vol uint16, entries []BatchEntry) []Status {
	return s.HandleReplicaBatch(mode, entries)
}

func (s *squeezeBackend) HandleReplicaStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) Status {
	return s.HandleReplica(mode, seq, lba, hash, frame)
}

// TestSqueezedPushOverSession drives squeezed pushes through an
// initiator and a target: the target applies exactly the entries sent;
// the pushes after the first carry growing tags; a stream whose
// initiator-side history has gone stale is refused and re-shipped fresh,
// applied once; ResetSqueeze makes the next push fresh; and the bytes
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
		st, sent, err := init.ReplicaWriteSqueezed(1, shard, vol, entries, false)
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
	init.ResetSqueeze(shard, vol)
	push(4)
	push(5)
	if want := []uint64{1, 2}; fmt.Sprint(tags) != fmt.Sprint(want) {
		t.Errorf("after ResetSqueeze: tags %v, want %v", tags, want)
	}
}

// FuzzDecodeSqueezed feeds arbitrary segments and tags to a receiver
// that holds a history: it never panics, never allocates more for the
// stream than MaxDataSegment or what an accepted push carries, refuses
// only with the documented sentinels, and whatever it accepts carries
// exactly the stream bytes it declared.
func FuzzDecodeSqueezed(f *testing.F) {
	var tx SqueezeSender
	var warm SqueezeReceiver
	first, _, _, err := tx.Encode(squeezeEntries(f, 0, 6, false), false)
	if err != nil {
		f.Fatal(err)
	}
	first = append([]byte(nil), first...)
	if _, err := warm.Decode(nil, first, 1, false); err != nil {
		f.Fatal(err)
	}
	firstLen := len(warm.plain)
	tx.Commit()
	second, _, _, err := tx.Encode(squeezeEntries(f, 1, 6, true), true)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(first, uint64(1), false)
	f.Add(append([]byte(nil), second...), uint64(2), true)
	f.Add(first[:len(first)-2], uint64(1), false)
	f.Add(append(countOf(3), make([]byte, 3*minEntryLen-1)...), uint64(1), false)
	f.Fuzz(func(t *testing.T, data []byte, tag uint64, refs bool) {
		var rx SqueezeReceiver
		if _, err := rx.Decode(nil, first, 1, false); err != nil {
			t.Fatal(err)
		}
		entries, err := rx.Decode(nil, data, tag, refs)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrShortFrame) && !errors.Is(err, ErrStaleHistory) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if len(entries) == 0 || len(entries) > MaxBatchFrames {
			t.Fatalf("accepted %d entries", len(entries))
		}
		streamed := 0
		for _, f := range rx.frames {
			streamed += f.n
		}
		if streamed > MaxDataSegment || cap(rx.plain) > max(streamed, firstLen) {
			t.Fatalf("streamed %d bytes from a %d-byte segment into %d", streamed, len(data), cap(rx.plain))
		}
		for _, e := range entries {
			if refs && e.ByRef() && e.Hash == 0 {
				t.Fatal("accepted a hashless reference")
			}
		}
	})
}

// TestSqueezeRepeatPastRatio: a push that repeats an earlier push's
// frames rebuilds far more than DEFLATE alone could carry in its
// segment, and decodes byte-exact; a hand-built run-length repeat that
// would rebuild past the bytes its list declares is refused, leaving the
// history to decode the next push.
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
	pushSqueezed(t, &tx, &rx, entries, false)
	for k := range entries {
		entries[k].Seq += 100
	}
	seg, tag := pushSqueezed(t, &tx, &rx, entries, false)
	if total <= 1032*len(seg) {
		t.Fatalf("a repeated push of %d stream bytes took %d bytes: not past DEFLATE's ratio", total, len(seg))
	}
	t.Logf("a repeated push of %d stream bytes in a %d-byte data segment", total, len(seg))

	// One in-stream frame of 100 bytes whose segment repeats 'a' a
	// thousand times from one byte back.
	list := binary.AppendUvarint(nil, 1)
	list = append(list, 2, 2)
	list = binary.BigEndian.AppendUint64(list, 9)
	list = binary.AppendUvarint(list, 100<<1|1)
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
	if _, err := rx.Decode(nil, append(list, z.Bytes()...), tag+1, false); !errors.Is(err, ErrBadFrame) {
		t.Errorf("a run-length repeat past its list's 100 bytes: %v, want ErrBadFrame", err)
	}
	for k := range entries {
		entries[k].Seq += 100
	}
	pushSqueezed(t, &tx, &rx, entries, false)
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
			seg, tag, ok, err := tx.Encode(entries, false)
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
