package xcode

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// History-primed compression: one ordered stream of segments, each of
// which may refer back into what the stream carried before it. A
// backlogged replication stream ships its frames this way (iscsi's
// squeezed entry lists): a frame on its own is a few hundred bytes
// that DEFLATE must pay its Huffman tables and an empty window for,
// while the frames of one working set repeat each other's bytes push
// after push — some within DEFLATE's 32 KiB, most further back.
//
// So a segment is two passes. The first (match.go) finds the runs of
// 24 or more bytes that repeat the stream's last StreamWindow bytes of
// plaintext, or the segment's own, and the second DEFLATEs what is
// left:
//
//	check    (4 bytes)  CRC-32C of the plaintext the segment rebuilds
//	count    (uvarint)  repeats in the segment
//	then, per repeat:
//	  gap      (uvarint)  plaintext bytes since the last repeat's end
//	  length   (uvarint)  at least 24
//	  distance (uvarint)  how far back its source starts, 1 or more
//	literals            the plaintext bytes no repeat covers, in order
//
// The DEFLATE of that is a run of blocks that ends at a sync flush (an
// empty stored block, 00 00 ff ff). It is not a DEFLATE stream on its
// own: its back-references may reach up to flateWindow bytes into what
// the DEFLATE of the segments before it carried, and its repeats up to
// StreamWindow bytes into their plaintext, so only a reader that holds
// both histories can rebuild it. The writer keeps the first implicitly
// (one flate.Writer per stream, flushed per segment) and the second in
// its matcher; the reader keeps both explicitly (the last flateWindow
// bytes it inflated, handed to flate as the preset dictionary of each
// segment, and a ring of the plaintext it rebuilt). Both histories are
// allocated on a stream's first segment and kept for its life.
//
// The check is there for the history, not for the segment's own
// bytes, which their receiver verifies anyway: a corrupt segment can
// still parse and rebuild the right number of bytes (a flipped literal,
// say), and the bytes it rebuilt would then be the source of every
// later repeat that reaches them, a megabyte of stream on. Checked, it
// is refused before either history takes it in.

// StreamWindow is how far back a segment's repeats may reach: the
// plaintext history both ends of a stream keep.
const StreamWindow = 1 << 20

// flateWindow is DEFLATE's window: how far back into what the
// stream's DEFLATE carried a segment's DEFLATE may refer.
const flateWindow = 32 << 10

// maxDeflateRatio bounds how many bytes one byte of DEFLATE can
// inflate to (a 258-byte match in two one-bit codes): a segment's
// match list and literals inflate to no more than this times its
// length.
const maxDeflateRatio = 1032

// syncMarker is the empty stored block a sync flush ends on.
var syncMarker = []byte{0, 0, 0xff, 0xff}

// castagnoli is the table of a segment's check.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// StreamDeflater is the writing end of one stream. The zero value is a
// stream with no history; it builds its flate.Writer (about 800 KiB of
// tables at flateLevel) on first use, and its matcher (a StreamWindow
// ring and a 512 KiB index) on its first segment. Not safe for
// concurrent use.
type StreamDeflater struct {
	w     *flate.Writer
	sink  appendSink
	m     matcher
	plain []byte                          // the segment's plaintext so far
	head  [4 + binary.MaxVarintLen64]byte // its check and repeat count; a field, so it does not escape per segment
	ops   []byte                          // its match list
	lits  []byte                          // and its literals
}

// Start begins a segment that End appends to dst.
func (d *StreamDeflater) Start(dst []byte) error {
	d.sink.buf = dst
	d.plain = d.plain[:0]
	if d.w != nil {
		return nil
	}
	w, err := flate.NewWriter(&d.sink, flateLevel)
	if err != nil {
		return fmt.Errorf("xcode: flate.NewWriter: %w", err)
	}
	d.w = w
	return nil
}

// Write adds p to the segment Start began.
func (d *StreamDeflater) Write(p []byte) error {
	d.plain = append(d.plain, p...)
	return nil
}

// End finds the segment's repeats, deflates its match list and
// literals to a sync flush and returns Start's dst with the segment
// appended. After an error from Write or End the stream must be Reset.
func (d *StreamDeflater) End() ([]byte, error) {
	var count int
	d.ops, d.lits, count = d.m.match(d.ops[:0], d.lits[:0], d.plain)
	binary.BigEndian.PutUint32(d.head[:], crc32.Checksum(d.plain, castagnoli))
	_, err := d.w.Write(binary.AppendUvarint(d.head[:4], uint64(count)))
	if err == nil {
		_, err = d.w.Write(d.ops)
	}
	if err == nil {
		_, err = d.w.Write(d.lits)
	}
	if err == nil {
		err = d.w.Flush()
	}
	out := d.sink.buf
	d.sink.buf = nil
	if err != nil {
		return nil, fmt.Errorf("xcode: deflate: %w", err)
	}
	return out, nil
}

// Reset forgets the history: the next segment refers to nothing
// before it. The writer's tables and matcher are kept.
func (d *StreamDeflater) Reset() {
	if d.w != nil {
		d.w.Reset(&d.sink)
	}
	d.m.held = 0
}

// StreamInflater is the reading end of one stream: its plaintext ring,
// the last flateWindow bytes its DEFLATE carried, and a flate reader
// (about 44 KiB) Reset onto each segment with those as its dictionary.
// The zero value is a stream with no history. Not safe for concurrent
// use.
type StreamInflater struct {
	ring
	r     io.ReadCloser
	src   bytes.Reader
	dict  []byte // DEFLATE's history at the end of a 2*flateWindow buffer, slid down when full
	list  []byte // the loaded segment's match list and literals
	ops   []repeat
	lits  []byte // list's literals
	check uint32 // list's check
	n     int    // bytes the loaded segment rebuilds; 0 when none is loaded
}

// repeat is one triple of a loaded segment's match list.
type repeat struct{ gap, length, dist int }

// Inflate rebuilds one segment into dst, which it must fill exactly,
// and then takes it into the history: Load then Rebuild. It is strict
// and bounded (see Load), nothing is written outside dst, and a failed
// segment leaves both histories as they were.
func (f *StreamInflater) Inflate(dst, seg []byte) error {
	if err := f.Load(seg, len(dst)); err != nil {
		return err
	}
	return f.Rebuild(dst)
}

// Load inflates seg and checks that it rebuilds exactly n bytes,
// touching neither history, so that a caller can refuse a segment
// before it allocates for n. It is strict and bounded: a segment that
// does not end at a sync flush, that leaves input unread, that inflates
// past maxDeflateRatio times its length or past what n bytes need, or
// whose match list or literals do not rebuild exactly n bytes is
// ErrBadFrame. So is a repeat shorter than 24 bytes or of distance 0,
// or one that reaches back past the history held and the bytes rebuilt
// before it.
func (f *StreamInflater) Load(seg []byte, n int) error {
	f.n = 0
	if n <= 0 || !bytes.HasSuffix(seg, syncMarker) {
		return fmt.Errorf("%w: stream segment of %d bytes for %d", ErrBadFrame, len(seg), n)
	}
	if f.dict == nil {
		f.dict = make([]byte, 0, 2*flateWindow)
	}
	f.src.Reset(seg)
	dict := f.dict[max(0, len(f.dict)-flateWindow):]
	if f.r == nil {
		f.r = flate.NewReaderDict(&f.src, dict)
	} else if err := f.r.(flate.Resetter).Reset(&f.src, dict); err != nil {
		return fmt.Errorf("xcode: flate reset: %w", err)
	}
	// What n bytes can need: the check, the count, a triple per
	// minMatch bytes and literals for the rest.
	limit := min(maxDeflateRatio*len(seg), 4+binary.MaxVarintLen64+n+n/minMatch*maxMatchOp)
	list := f.list[:0]
	for {
		if len(list) == cap(list) {
			list = append(list, 0)[:len(list)]
		}
		//lint:ignore hold-blocking inflates an in-memory buffer into an in-memory buffer, no I/O wait
		k, err := f.r.Read(list[len(list):min(cap(list), limit+1)])
		list = list[:len(list)+k]
		if len(list) > limit {
			f.list = list
			return fmt.Errorf("%w: stream segment of %d bytes inflates past %d", ErrBadFrame, len(seg), limit)
		}
		// A segment ends at a sync flush, not at a final block: the
		// reader must run out of input looking for the next block.
		if err == io.ErrUnexpectedEOF && f.src.Len() == 0 {
			break
		}
		if err != nil {
			f.list = list
			return fmt.Errorf("%w: stream segment: %v", ErrBadFrame, err)
		}
	}
	f.list = list
	if err := f.parseList(list, n); err != nil {
		return err
	}
	f.n = n
	return nil
}

// parseList checks a segment's inflated match list and literals against
// the n bytes it must rebuild and the history held, and keeps the check
// in f.check, the triples in f.ops and the literals in f.lits.
func (f *StreamInflater) parseList(list []byte, n int) error {
	if len(list) < 4 {
		return fmt.Errorf("%w: stream segment of %d bytes has no check", ErrBadFrame, len(list))
	}
	f.check = binary.BigEndian.Uint32(list)
	count, w := binary.Uvarint(list[4:])
	if w <= 0 || count > uint64(n/minMatch) {
		return fmt.Errorf("%w: stream segment's repeat count", ErrBadFrame)
	}
	off := 4 + w
	f.ops = f.ops[:0]
	pos, used := 0, 0 // bytes rebuilt, literals used
	for k := range int(count) {
		var v [3]uint64
		for j := range v {
			x, w := binary.Uvarint(list[off:])
			if w <= 0 {
				return fmt.Errorf("%w: stream segment's repeat %d", ErrBadFrame, k)
			}
			v[j], off = x, off+w
		}
		gap, length, dist := v[0], v[1], v[2]
		if gap > uint64(n-pos) {
			return fmt.Errorf("%w: stream segment's repeat %d starts past its %d bytes", ErrBadFrame, k, n)
		}
		pos += int(gap)
		used += int(gap)
		if length < minMatch || length > uint64(n-pos) || dist == 0 || dist > uint64(f.held+pos) {
			return fmt.Errorf("%w: stream segment's repeat %d: %d bytes from %d back at %d of %d, %d held",
				ErrBadFrame, k, length, dist, pos, n, f.held)
		}
		f.ops = append(f.ops, repeat{int(gap), int(length), int(dist)})
		pos += int(length)
	}
	if len(list)-off != used+n-pos {
		return fmt.Errorf("%w: stream segment carries %d literal bytes for %d", ErrBadFrame, len(list)-off, used+n-pos)
	}
	f.lits = list[off:]
	return nil
}

// Rebuild writes the segment Load checked into dst, which must be as
// long as Load was told, and takes it into both histories when it
// matches the segment's check; when it does not, the segment is
// ErrBadFrame and the histories are left as they were.
func (f *StreamInflater) Rebuild(dst []byte) error {
	if f.n == 0 || len(dst) != f.n {
		return fmt.Errorf("xcode: rebuild of %d bytes, %d loaded", len(dst), f.n)
	}
	f.n = 0
	pos, lits := 0, f.lits
	for _, op := range f.ops {
		pos += copy(dst[pos:pos+op.gap], lits)
		lits = lits[op.gap:]
		f.copyMatch(dst, pos, op.length, op.dist)
		pos += op.length
	}
	copy(dst[pos:], lits)
	if crc32.Checksum(dst, castagnoli) != f.check {
		return fmt.Errorf("%w: stream segment fails its check", ErrBadFrame)
	}
	f.take(dst)
	f.takeDict(f.list)
	return nil
}

// takeDict appends p to DEFLATE's history, sliding its last flateWindow
// bytes down to the front of the buffer when p does not fit after it.
func (f *StreamInflater) takeDict(p []byte) {
	if len(p) >= flateWindow {
		f.dict = append(f.dict[:0], p[len(p)-flateWindow:]...)
		return
	}
	if len(f.dict)+len(p) > cap(f.dict) {
		keep := min(len(f.dict), flateWindow-len(p))
		f.dict = f.dict[:copy(f.dict, f.dict[len(f.dict)-keep:])]
	}
	f.dict = append(f.dict, p...)
}

// Reset forgets both histories.
func (f *StreamInflater) Reset() {
	f.held, f.n = 0, 0
	f.dict = f.dict[:0]
}
