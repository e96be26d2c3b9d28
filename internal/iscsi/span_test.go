package iscsi

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"prins/internal/xcode"
)

// extentSink is a Backend that records every HandleWrite it is handed,
// copied, and answers OK: what a span landed, extent by extent.
type extentSink struct {
	bs int
	nb uint64

	mu      sync.Mutex
	extents []extent
}

type extent struct {
	lba  uint64
	data []byte
}

func (s *extentSink) Geometry() (int, uint64)          { return s.bs, s.nb }
func (s *extentSink) HandleRead(uint64, []byte) Status { return StatusBadRequest }
func (s *extentSink) HandleReplicaStream(uint8, uint8, uint16, uint64, uint64, uint64, []byte) Status {
	return StatusBadRequest
}

func (s *extentSink) HandleWrite(lba uint64, data []byte) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.extents = append(s.extents, extent{lba, bytes.Clone(data)})
	return StatusOK
}

// blocks returns what the sink landed as one block per LBA.
func (s *extentSink) blocks() map[uint64][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[uint64][]byte{}
	for _, e := range s.extents {
		for i := 0; i*s.bs < len(e.data); i++ {
			out[e.lba+uint64(i)] = e.data[i*s.bs : (i+1)*s.bs]
		}
	}
	return out
}

// testSpan builds the span of blocks blocks at lba whose present blocks
// are the offsets in present, in order: word soup when text, random
// bytes otherwise.
func testSpan(rng *rand.Rand, bs int, lba uint64, blocks uint32, present []uint32, text, compress bool) Span {
	s := Span{LBA: lba, Blocks: blocks, Mask: make([]byte, SpanMaskLen(blocks)), Compress: compress}
	for _, i := range present {
		s.Mask[i/8] |= 1 << (i % 8)
		b := make([]byte, bs)
		if text {
			for j := range b {
				b[j] = "the parity of a block "[rng.Intn(22)]
			}
		} else {
			rng.Read(b)
		}
		s.Data = append(s.Data, b...)
	}
	return s
}

// encodeSpan assembles a span's data segment contiguously: the pieces
// WriteSpan sends vectored, in wire order.
func encodeSpan(s *Span, bs int) ([]byte, error) {
	pieces, err := s.segment(bs)
	if err != nil {
		return nil, err
	}
	var out []byte
	for _, p := range pieces {
		out = append(out, p...)
	}
	return out, nil
}

// spanBlocks maps each present block of s to its LBA.
func spanBlocks(s *Span, bs int) map[uint64][]byte {
	out := map[uint64][]byte{}
	data := s.Data
	for i := uint32(0); i < s.Blocks; i++ {
		if s.Mask[i/8]&(1<<(i%8)) != 0 {
			out[s.LBA+uint64(i)], data = data[:bs], data[bs:]
		}
	}
	return out
}

// TestSpanWire: a raw span and a DEFLATE span leave the initiator as
// exactly the PDU built contiguously from encodeSpan — opcode 16 in v3
// framing, LBA and Blocks in the header — and the target lands every
// present block, one HandleWrite per run of consecutive ones, and
// nothing else.
func TestSpanWire(t *testing.T) {
	const bs = 512
	if OpWriteSpan != 16 {
		t.Fatalf("OpWriteSpan = %d, want 16: the opcode is wire contract", OpWriteSpan)
	}
	rng := rand.New(rand.NewSource(33))
	present := []uint32{0, 1, 2, 5, 9, 10, 19}
	for _, tc := range []struct {
		name           string
		text, compress bool
		frame          xcode.Codec
	}{
		{"raw", false, false, xcode.CodecRaw},
		{"random-compress", false, true, xcode.CodecRaw}, // DEFLATE's raw floor
		{"text-raw", true, false, xcode.CodecRaw},
		{"text-compress", true, true, xcode.CodecFlate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &extentSink{bs: bs, nb: 1024}
			init, rec := startRecordedPair(t, sink)
			s := testSpan(rng, bs, 100, 20, present, tc.text, tc.compress)
			sent, err := init.WriteSpan(&s)
			if err != nil {
				t.Fatal(err)
			}
			wire := rec.take()

			seg, err := encodeSpan(&s, bs)
			if err != nil {
				t.Fatal(err)
			}
			if sent != len(seg) {
				t.Errorf("WriteSpan reports %d bytes sent, the segment is %d", sent, len(seg))
			}
			if c, err := xcode.FrameCodec(seg[SpanMaskLen(s.Blocks):]); err != nil || c != tc.frame {
				t.Errorf("frame codec %v (%v), want %v", c, err, tc.frame)
			}
			if tc.frame == xcode.CodecRaw && len(seg) != SpanMaskLen(s.Blocks)+5+len(s.Data) {
				t.Errorf("raw span segment of %d bytes for %d of blocks", len(seg), len(s.Data))
			}
			var ref bytes.Buffer
			p := PDU{Op: OpWriteSpan, ITT: 2, LBA: s.LBA, Blocks: s.Blocks, Data: seg} // ITT 1 was the login
			if _, err := p.WriteTo(&ref); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wire, ref.Bytes()) {
				t.Errorf("initiator bytes differ from the contiguously built PDU:\n sent %x\n want %x", wire, ref.Bytes())
			}
			if wire[1] != baseVersion || wire[2] != byte(OpWriteSpan) {
				t.Errorf("header stamped version %d opcode %d, want %d and %d", wire[1], wire[2], baseVersion, OpWriteSpan)
			}

			if len(sink.extents) != 4 { // {0,1,2} {5} {9,10} {19}
				t.Errorf("%d HandleWrite calls, want one per run of present blocks (4)", len(sink.extents))
			}
			want, got := spanBlocks(&s, bs), sink.blocks()
			if len(got) != len(want) {
				t.Fatalf("landed %d blocks, want %d", len(got), len(want))
			}
			for lba, b := range want {
				if !bytes.Equal(got[lba], b) {
					t.Errorf("block %d landed wrong", lba)
				}
			}
		})
	}
}

// TestSpanCopies: a span whose repeated blocks ship as copies leaves
// the initiator as the contiguously built PDU with its copy count in the
// sequence field, sends less than the same span without copies, and
// lands the same blocks the same way: one HandleWrite per run of present
// blocks, each copy holding its source's bytes.
func TestSpanCopies(t *testing.T) {
	const bs = 512
	rng := rand.New(rand.NewSource(35))
	present := []uint32{0, 1, 2, 5, 9, 10, 19}
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress-%v", compress), func(t *testing.T) {
			whole := testSpan(rng, bs, 100, 20, present, true, compress)
			// Blocks 9 and 10 repeat 1 and 2, block 19 repeats 9.
			for o, src := range map[int]int{4: 1, 5: 2, 6: 1} {
				copy(whole.Data[o*bs:(o+1)*bs], whole.Data[src*bs:(src+1)*bs])
			}
			s := findCopies(whole, bs)
			if want := []SpanCopy{{4, 1}, {5, 2}, {6, 1}}; !slices.Equal(s.Copies, want) {
				t.Fatalf("copies %v, want %v", s.Copies, want)
			}
			var sent [2]int
			var landed [2]map[uint64][]byte
			for k, span := range []Span{whole, s} {
				sink := &extentSink{bs: bs, nb: 1024}
				init, rec := startRecordedPair(t, sink)
				n, err := init.WriteSpan(&span)
				if err != nil {
					t.Fatal(err)
				}
				wire := rec.take()
				seg, err := encodeSpan(&span, bs)
				if err != nil {
					t.Fatal(err)
				}
				var ref bytes.Buffer
				p := PDU{Op: OpWriteSpan, ITT: 2, LBA: span.LBA, Blocks: span.Blocks, Seq: uint64(len(span.Copies)), Data: seg}
				if _, err := p.WriteTo(&ref); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wire, ref.Bytes()) {
					t.Errorf("%d copies: initiator bytes differ from the contiguously built PDU", len(span.Copies))
				}
				if len(sink.extents) != 4 { // {0,1,2} {5} {9,10} {19}
					t.Errorf("%d copies: %d HandleWrite calls, want one per run of present blocks (4)", len(span.Copies), len(sink.extents))
				}
				sent[k], landed[k] = n, sink.blocks()
			}
			if sent[1] >= sent[0] {
				t.Errorf("the span sent %d bytes with copies, %d without", sent[1], sent[0])
			}
			want := spanBlocks(&whole, bs)
			for k := range landed {
				if fmt.Sprint(landed[k]) != fmt.Sprint(want) {
					t.Errorf("span %d landed other blocks than it names", k)
				}
			}
		})
	}
}

// TestWriteSpanRejectsMalformed: the initiator refuses to frame a span
// whose fields disagree, before anything reaches the wire.
func TestWriteSpanRejectsMalformed(t *testing.T) {
	init, rec := startRecordedPair(t, &extentSink{bs: 512, nb: 1024})
	good := testSpan(rand.New(rand.NewSource(1)), 512, 0, 9, []uint32{0, 8}, false, false)
	for name, s := range map[string]Span{
		"zero blocks":  {Mask: []byte{1}, Data: good.Data[:512]},
		"long mask":    {Blocks: 9, Mask: []byte{1, 1, 0}, Data: good.Data},
		"empty mask":   {Blocks: 9, Mask: []byte{0, 0}},
		"short data":   {Blocks: 9, Mask: good.Mask, Data: good.Data[:512]},
		"ragged data":  {Blocks: 9, Mask: good.Mask, Data: good.Data[:1000]},
		"compress too": {Blocks: 9, Mask: good.Mask, Data: good.Data[:513], Compress: true},
		"copy kept":    {Blocks: 9, Mask: good.Mask, Copies: []SpanCopy{{1, 0}}, Data: good.Data},
		"all copies":   {Blocks: 9, Mask: good.Mask, Copies: []SpanCopy{{0, 0}, {1, 0}}},
		"copy ahead":   {Blocks: 9, Mask: good.Mask, Copies: []SpanCopy{{0, 1}}, Data: good.Data[:512]},
		"copy of self": {Blocks: 9, Mask: good.Mask, Copies: []SpanCopy{{1, 1}}, Data: good.Data[:512]},
		"copy absent":  {Blocks: 17, Mask: []byte{1, 0, 1}, Copies: []SpanCopy{{2, 0}}, Data: good.Data[:512]},
	} {
		if _, err := init.WriteSpan(&s); err == nil {
			t.Errorf("%s: WriteSpan framed it", name)
		}
	}
	if n := len(rec.take()); n != 0 {
		t.Errorf("%d bytes reached the wire", n)
	}
}

// spanCase is one hand-built OpWriteSpan request.
type spanCase struct {
	name   string
	lba    uint64
	blocks uint32
	copies uint64 // the header's copy count
	seg    []byte
}

// withCopies turns the present blocks of s that copies names into
// copies of their sources: their bytes become the sources', and Data
// leaves them out.
func withCopies(s Span, bs int, copies []SpanCopy) Span {
	blocks := make([][]byte, len(s.Data)/bs)
	for o := range blocks {
		blocks[o] = s.Data[o*bs : (o+1)*bs]
	}
	s.Data, s.Copies = nil, copies
	for o, b := range blocks {
		if k := slices.IndexFunc(copies, func(c SpanCopy) bool { return c.Block == uint32(o) }); k >= 0 {
			continue
		}
		s.Data = append(s.Data, b...)
	}
	return s
}

// findCopies names, in a span whose Data holds every present block, each
// block that repeats an earlier one a copy of the first block with its
// bytes, and leaves it out of Data.
func findCopies(s Span, bs int) Span {
	var copies []SpanCopy
	first := map[string]uint32{}
	for o := 0; o*bs < len(s.Data); o++ {
		b := string(s.Data[o*bs : (o+1)*bs])
		if src, ok := first[b]; ok {
			copies = append(copies, SpanCopy{Block: uint32(o), Source: src})
			continue
		}
		first[b] = uint32(o)
	}
	return withCopies(s, bs, copies)
}

// rawFrame is a CodecRaw frame that declares n bytes around body.
func rawFrame(n int, body []byte) []byte {
	return append(xcode.AppendRawHeader(nil, n), body...)
}

// malformedSpans returns requests the strict decoder must refuse on a
// device of nb blocks of bs bytes, each next to a valid encoding it
// was derived from: raw and DEFLATE spans of 10 blocks at lba 40, all
// present but the fourth.
func malformedSpans(t testing.TB, bs int, nb uint64) (valid, bad []spanCase) {
	rng := rand.New(rand.NewSource(34))
	present := []uint32{0, 1, 2, 4, 5, 6, 7, 8, 9}
	raw := testSpan(rng, bs, 40, 10, present, false, false)
	text := testSpan(rng, bs, 40, 10, present, true, true)
	rawSeg, err := encodeSpan(&raw, bs)
	if err != nil {
		t.Fatal(err)
	}
	textSeg, err := encodeSpan(&text, bs)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := xcode.FrameCodec(textSeg[2:]); c != xcode.CodecFlate {
		t.Fatalf("text span went out as %v", c)
	}
	// Blocks 6, 7 and 9 (present ordinals 5, 6 and 8) as copies of blocks
	// 1, 2 and 0: the copy list is 5 4, 0 4, 1 8.
	copies := []SpanCopy{{5, 1}, {6, 2}, {8, 0}}
	copyRaw := withCopies(testSpan(rng, bs, 40, 10, present, false, false), bs, copies)
	copyText := withCopies(testSpan(rng, bs, 40, 10, present, true, true), bs, copies)
	copySeg, err := encodeSpan(&copyRaw, bs)
	if err != nil {
		t.Fatal(err)
	}
	copyTextSeg, err := encodeSpan(&copyText, bs)
	if err != nil {
		t.Fatal(err)
	}
	if list := copySeg[2:8]; !bytes.Equal(list, []byte{5, 4, 0, 4, 1, 8}) {
		t.Fatalf("copy list %x", list)
	}
	valid = []spanCase{{"raw", 40, 10, 0, rawSeg}, {"flate", 40, 10, 0, textSeg},
		{"copies raw", 40, 10, 3, copySeg}, {"copies flate", 40, 10, 3, copyTextSeg}}
	with := func(seg []byte, at int, b byte) []byte {
		seg = bytes.Clone(seg)
		seg[at] = b
		return seg
	}
	// copyList is the copy span's segment with list in place of its copy
	// list.
	copyList := func(list ...byte) []byte {
		return append(append(bytes.Clone(copySeg[:2]), list...), copySeg[8:]...)
	}
	n := len(present) * bs
	distinct := n - len(copies)*bs
	corrupt := bytes.Clone(textSeg)
	for i := 2 + 5; i < len(corrupt); i += 3 {
		corrupt[i] ^= 0x5a
	}
	bad = []spanCase{
		{"zero blocks", 40, 0, 0, rawSeg},
		{"past the device", nb - 9, 10, 0, rawSeg},
		{"lba overflow", ^uint64(0) - 3, 10, 0, rawSeg},
		{"blocks past the device", 0, uint32(nb + 1), 0, rawSeg},
		{"no mask", 40, 10, 0, rawSeg[:1]},
		{"no frame", 40, 10, 0, rawSeg[:2]},
		{"empty mask", 40, 10, 0, with(with(rawSeg, 0, 0), 1, 0)},
		{"bit past blocks", 40, 10, 0, with(rawSeg, 1, 0x07)},
		{"mask one byte long", 40, 8, 0, rawSeg},
		{"raw declares a block more", 40, 10, 0, append(rawSeg[:2:2], rawFrame(n+bs, rawSeg[7:])...)},
		{"raw declares a block less", 40, 10, 0, append(rawSeg[:2:2], rawFrame(n-bs, rawSeg[7:len(rawSeg)-bs])...)},
		{"raw body short", 40, 10, 0, rawSeg[:len(rawSeg)-1]},
		{"raw body long", 40, 10, 0, append(bytes.Clone(rawSeg), 0)},
		{"flate declares a block more", 40, 10, 0, with(textSeg, 2+3, byte((n+bs)>>8))},
		{"flate truncated", 40, 10, 0, textSeg[:len(textSeg)-4]},
		{"flate corrupt", 40, 10, 0, corrupt},
		{"unknown codec", 40, 10, 0, with(rawSeg, 2, 0x7f)},
		{"zrl frame", 40, 10, 0, with(rawSeg, 2, byte(xcode.CodecZRL))},
		{"copy count at the present count", 40, 10, uint64(len(present)), copySeg},
		{"copy count past the present count", 40, 10, 1 << 40, copySeg},
		{"copy count past the list", 40, 10, 4, copySeg[:2+6+1]},
		{"copy list without a copy count", 40, 10, 0, copySeg},
		{"copy list truncated", 40, 10, 3, copySeg[:2+5]},
		{"copy of itself", 40, 10, 3, copyList(5, 0, 0, 4, 1, 8)},
		{"copy of a block before the first", 40, 10, 3, copyList(5, 6, 0, 4, 1, 8)},
		{"copy of a copy", 40, 10, 3, copyList(5, 4, 0, 4, 1, 2)},
		{"copy past the present blocks", 40, 10, 3, copyList(5, 4, 0, 4, 2, 8)},
		{"copy overlong uvarint", 40, 10, 3, copyList(0x85, 0x00, 4, 0, 4, 1, 8)},
		{"copy count of one short", 40, 10, 2, copySeg},
		{"copies frame declares a block more", 40, 10, 3, append(bytes.Clone(copySeg[:8]), rawFrame(distinct+bs, copySeg[13:])...)},
		{"copies frame declares every present block", 40, 10, 3, append(bytes.Clone(copySeg[:8]), rawFrame(n, append(bytes.Clone(copySeg[13:]), make([]byte, len(copies)*bs)...))...)},
		{"copies frame declares a block less", 40, 10, 3, append(bytes.Clone(copySeg[:8]), rawFrame(distinct-bs, copySeg[13:len(copySeg)-bs])...)},
	}
	return valid, bad
}

// TestDecodeSpanStrict: every malformed span is StatusBadRequest and
// lands nothing, both decoded in place and sent over a session; the
// valid spans they were derived from land.
func TestDecodeSpanStrict(t *testing.T) {
	const bs, nb = 512, 64
	valid, bad := malformedSpans(t, bs, nb)
	for k, tc := range append(valid, bad...) {
		want := StatusBadRequest
		if k < len(valid) {
			want = StatusOK
		}
		sink := &extentSink{bs: bs, nb: nb}
		rq := request{pdu: PDU{Op: OpWriteSpan, LBA: tc.lba, Blocks: tc.blocks, Seq: tc.copies, Data: tc.seg}}
		if st := rq.applySpan(sink); st != want {
			t.Errorf("%s: status %v, want %v", tc.name, st, want)
		}
		if want != StatusOK && len(sink.extents) != 0 {
			t.Errorf("%s: a refused span landed %d extents", tc.name, len(sink.extents))
		}

		init := startPair(t, "r", &extentSink{bs: bs, nb: nb})
		if err := init.Login("r"); err != nil {
			t.Fatal(err)
		}
		resp, err := init.roundTrip(&PDU{Op: OpWriteSpan, LBA: tc.lba, Blocks: tc.blocks, Seq: tc.copies, Data: tc.seg})
		if err != nil || resp.Status != want {
			t.Errorf("%s over a session: %v, %v; want %v", tc.name, resp.Status, err, want)
		}
	}

	// A span the device could hold, but whose stretch is larger than a
	// data segment, is refused by its header alone: the scratch it could
	// ask for stays bounded.
	big := &extentSink{bs: 4096, nb: 1 << 40}
	blocks := uint32(MaxDataSegment/4096 + 1)
	seg := make([]byte, SpanMaskLen(blocks))
	seg[0] = 1
	seg = append(seg, rawFrame(4096, make([]byte, 4096))...)
	rq := request{pdu: PDU{Op: OpWriteSpan, LBA: 0, Blocks: blocks, Data: seg}}
	if st := rq.applySpan(big); st != StatusBadRequest || len(big.extents) != 0 {
		t.Errorf("span of %d blocks of 4 KiB: status %v, %d extents", blocks, st, len(big.extents))
	}
	seg = seg[:SpanMaskLen(blocks-1)]
	seg = append(seg, rawFrame(4096, make([]byte, 4096))...)
	rq = request{pdu: PDU{Op: OpWriteSpan, LBA: 0, Blocks: blocks - 1, Data: seg}}
	if st := rq.applySpan(big); st != StatusOK {
		t.Errorf("span of %d blocks of 4 KiB, just within a segment: status %v", blocks-1, st)
	}
}

// The fuzzed device: small blocks, so short inputs make whole spans.
const (
	fuzzSpanBS = 16
	fuzzSpanNB = 1 << 20
)

// FuzzDecodeSpan feeds arbitrary span requests, copy counts included, to
// the target's span path. No input panics; the only refusal is
// StatusBadRequest, and a refused span lands nothing; an accepted one
// lands exactly popcount(mask) x block size bytes, within
// MaxDataSegment, at the LBAs its mask names, one HandleWrite per run of
// them; and what it landed, encoded again by the initiator's encoder,
// raw and DEFLATE, each with no copies and with every repeated block a
// copy, lands the same blocks.
func FuzzDecodeSpan(f *testing.F) {
	valid, bad := malformedSpans(f, fuzzSpanBS, 256)
	for _, tc := range append(valid, bad...) {
		f.Add(tc.seg, tc.lba, tc.blocks, tc.copies)
	}
	f.Add([]byte{}, uint64(0), uint32(1), uint64(0))
	f.Fuzz(func(t *testing.T, seg []byte, lba uint64, blocks uint32, copies uint64) {
		sink := &extentSink{bs: fuzzSpanBS, nb: fuzzSpanNB}
		rq := request{pdu: PDU{Op: OpWriteSpan, LBA: lba, Blocks: blocks, Seq: copies, Data: seg}}
		switch st := rq.applySpan(sink); st {
		case StatusBadRequest:
			if len(sink.extents) != 0 {
				t.Fatalf("a refused span landed %d extents", len(sink.extents))
			}
			return
		case StatusOK:
		default:
			t.Fatalf("status %v, want OK or BAD-REQUEST", st)
		}

		mask := seg[:SpanMaskLen(blocks)]
		landed := Span{LBA: lba, Blocks: blocks, Mask: bytes.Clone(mask)}
		next := 0 // the extent the next run of present blocks must be
		for i := uint32(0); i < blocks; i++ {
			if mask[i/8]&(1<<(i%8)) == 0 {
				continue
			}
			first := i
			for i+1 < blocks && mask[(i+1)/8]&(1<<((i+1)%8)) != 0 {
				i++
			}
			if next >= len(sink.extents) {
				t.Fatalf("run at %d+%d never landed", lba+uint64(first), i-first+1)
			}
			e := sink.extents[next]
			if e.lba != lba+uint64(first) || len(e.data) != int(i-first+1)*fuzzSpanBS {
				t.Fatalf("run at %d+%d landed as %d bytes at %d", lba+uint64(first), i-first+1, len(e.data), e.lba)
			}
			landed.Data = append(landed.Data, e.data...)
			next++
		}
		if next != len(sink.extents) {
			t.Fatalf("%d extents landed for %d runs", len(sink.extents), next)
		}
		if n := len(landed.Data); n != popcount(mask)*fuzzSpanBS || n > MaxDataSegment {
			t.Fatalf("landed %d bytes for %d present blocks", n, popcount(mask))
		}

		for _, s := range []Span{landed, findCopies(landed, fuzzSpanBS)} {
			for _, compress := range []bool{false, true} {
				s.Compress = compress
				again, err := encodeSpan(&s, fuzzSpanBS)
				if err != nil {
					t.Fatalf("encode an accepted span (compress %v, %d copies): %v", compress, len(s.Copies), err)
				}
				redo := &extentSink{bs: fuzzSpanBS, nb: fuzzSpanNB}
				rq.pdu.Seq, rq.pdu.Data = uint64(len(s.Copies)), again
				if st := rq.applySpan(redo); st != StatusOK {
					t.Fatalf("re-encoded span (compress %v, %d copies): %v", compress, len(s.Copies), st)
				}
				if fmt.Sprint(redo.extents) != fmt.Sprint(sink.extents) {
					t.Fatalf("re-encoded span (compress %v, %d copies) landed differently", compress, len(s.Copies))
				}
			}
		}
	})
}

// TestSpanMaskLen pins the mask size: one bit per block of the span,
// rounded up to whole bytes.
func TestSpanMaskLen(t *testing.T) {
	for blocks, want := range map[uint32]int{1: 1, 8: 1, 9: 2, 128: 16, 129: 17, ^uint32(0): 1 << 29} {
		if got := SpanMaskLen(blocks); got != want {
			t.Errorf("SpanMaskLen(%d) = %d, want %d", blocks, got, want)
		}
	}
}
