package xcode

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// History-primed compression: one ordered stream of segments, each of
// which may refer back into what the stream carried before it. A
// backlogged replication stream ships its frames this way (iscsi's
// squeezed entry lists): a frame on its own is a few hundred bytes
// that a compressor must learn the statistics of from nothing, while
// the frames of one working set repeat each other's bytes push after
// push, most of them further back than DEFLATE's 32 KiB reaches.
//
// So a segment is one LZ parse of its plaintext against the stream's
// last StreamWindow bytes, range-coded with models the stream keeps
// adapting (lz.go, rangecoder.go):
//
//	check  (4 bytes)  CRC-32C of the plaintext the segment rebuilds
//	body              the range coder's bytes, from its first decision
//	                  to the flush that ends it; or, when those come to
//	                  as many bytes as the plaintext or more, the
//	                  plaintext itself (stored)
//
// A body exactly as long as the plaintext is stored, so no segment
// exceeds its plaintext by more than the check; a shorter one is coded
// and ends at the coder's flush, which leaves coderTail bytes after the
// last decision for the reader to load. Nothing else frames it: the
// reader rebuilds until it has the plaintext's length, which its caller
// knows, and refuses a body with a byte left over.
//
// A coded body is not a stream on its own. Its matches may reach back
// StreamWindow bytes into the plaintext of the segments before it, and
// its decisions are coded against the models, state and last four
// distances those segments left: only a reader that took in every one of
// them can rebuild it. Both ends keep all of it: the writer a ring of
// the plaintext, a 1 MiB index of it and the models (lz.go's models:
// every adaptive probability, the state and the last four distances);
// the reader the ring and the models. A stored segment moves the ring
// and leaves the models as they were.
//
// Rollback. The writer snapshots its models at Start. A segment stored,
// and one its caller Drops (a squeezed list that did not come out
// smaller ships plain instead), leaves the models at that snapshot; a
// dropped one also takes its positions back out of the index and never
// reaches the ring. A segment is taken into the ring at the next Start,
// so a caller may still drop the one End returned. The reader takes a
// segment in only when it rebuilt it exactly and its check holds, and a
// refused one leaves ring and models as they were.
//
// Reset forgets everything: the models start even, the ring empty. The
// memory stays: a writer holds the ring, the index, two models (about
// 15 KiB each) and its plaintext; a reader the ring and two models. All
// of it is allocated on a stream's first segment and kept for its life.
//
// The check is there for the history, not for the segment's own
// bytes, which their receiver verifies anyway: a corrupt segment can
// still decode to the right number of bytes, and the bytes it rebuilt
// would then be the source of every later match that reaches them, a
// megabyte of stream on, and its models the context of every later
// decision. Checked, it is refused before either takes it in.

// StreamWindow is how far back a segment's matches may reach: the
// plaintext history both ends of a stream keep.
const StreamWindow = 1 << 20

// maxCodedRatio bounds how many plaintext bytes one byte of a coded
// body rebuilds. The cheapest token per byte is a rep0 match of up to
// lenExtLen bytes: 14 decisions (isMatch, isRep, isRepG0, isRep0Long,
// two length choices and 8 bits of the high length tree). A decision
// costs at least log2(probOne/(probOne-2^move+1)) bits, 0.0106 for
// isMatch and 0.0220 for the other 13, so such a token costs at least
// 0.2967 bits, and one byte of input pays for at most 27 of them: 27 x
// 273 bytes. A longer match adds 4 decisions and n direct bits, a bit
// each, for at most 2^(n+1) - 2 more bytes, which rebuilds at most 5677
// bytes per byte (at n = 0).
const maxCodedRatio = 27 * lenExtLen

// castagnoli is the table of a segment's check.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// StreamDeflater is the writing end of one stream. The zero value is a
// stream with no history; it allocates its ring and index on its first
// segment. Not safe for concurrent use.
type StreamDeflater struct {
	lz    lzEncoder
	saved models // the models at Start
	dst   []byte
	kept  bool // lz.p is the last End's segment, for the next Start to take in
}

// Start begins a segment that End appends to dst, first taking the
// segment the last End returned into the history.
func (d *StreamDeflater) Start(dst []byte) {
	e := &d.lz
	if e.tab == nil {
		e.tab = make([]uint32, indexWays<<indexBits)
		e.hist = make([]byte, StreamWindow)
		e.m = freshModels
	}
	if d.kept {
		e.take(e.p)
		d.kept = false
	}
	d.saved = e.m
	d.dst = dst
	e.p = e.p[:0]
}

// Write adds p to the segment Start began.
func (d *StreamDeflater) Write(p []byte) { d.lz.p = append(d.lz.p, p...) }

// End codes the segment and returns Start's dst with it appended. The
// segment is taken into the history at the next Start, unless Drop or
// Reset comes first.
func (d *StreamDeflater) End() []byte {
	e := &d.lz
	out := binary.BigEndian.AppendUint32(d.dst, crc32.Checksum(e.p, castagnoli))
	head := len(out)
	e.rc.reset(out)
	e.parse()
	out = e.rc.flush()
	e.rc.out = nil
	if len(out)-head >= len(e.p) {
		e.m = d.saved
		out = append(out[:head], e.p...)
	}
	d.dst, d.kept = nil, true
	return out
}

// Drop rolls back the segment End returned: the history is as it was at
// Start, and the next segment is built on it.
func (d *StreamDeflater) Drop() {
	if d.kept {
		d.lz.unindex()
		d.lz.m = d.saved
		d.kept = false
	}
}

// Reset forgets the history, the segment End returned included: the
// next segment refers to nothing before it. The ring and index are
// kept: with no history held, a slot the index still holds is a
// candidate only within the next segment, and only as far as its bytes
// bear it out, as any slot is.
func (d *StreamDeflater) Reset() {
	d.kept = false
	d.lz.held = 0
	d.lz.m = freshModels
}

// StreamInflater is the reading end of one stream: its plaintext ring
// and models. The zero value is a stream with no history. Not safe for
// concurrent use.
type StreamInflater struct {
	lz    lzDecoder
	saved models // the models before the loaded segment, restored if it is refused
	body  []byte // the loaded segment's body
	check uint32 // and its check
	n     int    // bytes it rebuilds; 0 when none is loaded
}

// Inflate rebuilds one segment into dst, which it must fill exactly,
// and then takes it into the history: Load then Rebuild. It is strict
// and bounded (see Load and Rebuild), nothing is written outside dst,
// and a refused segment leaves the history as it was.
func (f *StreamInflater) Inflate(dst, seg []byte) error {
	if err := f.Load(seg, len(dst)); err != nil {
		return err
	}
	return f.Rebuild(dst)
}

// Load checks that seg can rebuild n bytes, touching nothing else, so
// that a caller can refuse a segment before it allocates for n: a
// segment without its check, with a body longer than n, or a coded
// body too short to rebuild n bytes even at maxCodedRatio (or to hold
// the coder's tail) is ErrBadFrame.
func (f *StreamInflater) Load(seg []byte, n int) error {
	f.n = 0
	if n <= 0 || len(seg) < 4 {
		return fmt.Errorf("%w: stream segment of %d bytes for %d", ErrBadFrame, len(seg), n)
	}
	body := seg[4:]
	if len(body) > n || len(body) < n && (len(body) < coderTail || n/maxCodedRatio >= len(body)) {
		return fmt.Errorf("%w: stream segment body of %d bytes cannot rebuild %d", ErrBadFrame, len(body), n)
	}
	f.check, f.body, f.n = binary.BigEndian.Uint32(seg), body, n
	return nil
}

// Rebuild writes the segment Load checked into dst, which must be as
// long as Load was told, and takes it into the history when it matches
// the segment's check. It is strict: a coded body that reads past its
// end or leaves a byte unread, whose tokens do not fill dst exactly or
// reach past the history held and the bytes rebuilt before them, or
// whose plaintext fails the check is ErrBadFrame, and the history
// (ring and models) is left as it was.
func (f *StreamInflater) Rebuild(dst []byte) error {
	if f.n == 0 || len(dst) != f.n {
		return fmt.Errorf("xcode: rebuild of %d bytes, %d loaded", len(dst), f.n)
	}
	f.n = 0
	if f.lz.hist == nil {
		f.lz.hist = make([]byte, StreamWindow)
		f.lz.m = freshModels
	}
	if len(f.body) == len(dst) {
		copy(dst, f.body)
	} else {
		f.saved = f.lz.m
		if err := f.lz.decode(dst, f.body); err != nil {
			f.lz.m = f.saved
			return fmt.Errorf("%w: stream segment does not decode to its %d bytes", err, len(dst))
		}
	}
	if crc32.Checksum(dst, castagnoli) != f.check {
		if len(f.body) != len(dst) {
			f.lz.m = f.saved
		}
		return fmt.Errorf("%w: stream segment fails its check", ErrBadFrame)
	}
	f.lz.take(dst)
	return nil
}

// Reset forgets the history.
func (f *StreamInflater) Reset() {
	f.lz.held, f.n = 0, 0
	f.lz.m = freshModels
}
