package xcode

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
)

// History-primed DEFLATE: one ordered stream of segments, each of which
// may refer back into what the stream carried before it. A backlogged
// replication stream ships its parities' ZRL frames this way (iscsi's
// squeezed entry lists): a frame on its own is a few hundred bytes that
// DEFLATE must pay its Huffman tables and an empty window for, while
// the frames of one working set repeat each other's bytes push after
// push.
//
// A segment is a run of DEFLATE blocks that ends at a sync flush (an
// empty stored block, 00 00 ff ff). It is not a DEFLATE stream on its
// own: its back-references may reach up to StreamWindow bytes into the
// plaintext of the segments before it, so only a reader that holds the
// same history can inflate it. The writer keeps its history implicitly
// (one flate.Writer per stream, flushed per segment); the reader keeps
// it explicitly (the last StreamWindow bytes it inflated, handed to
// flate as the preset dictionary of each segment).

// StreamWindow is how far back a segment may refer: DEFLATE's window,
// and so the history a stream's reader keeps.
const StreamWindow = 32 << 10

// syncMarker is the empty stored block a sync flush ends on.
var syncMarker = []byte{0, 0, 0xff, 0xff}

// StreamDeflater is the writing end of one stream. The zero value is a
// stream with no history; it builds its flate.Writer (about 800 KiB of
// tables at flateLevel) on first use. Not safe for concurrent use.
type StreamDeflater struct {
	w    *flate.Writer
	sink appendSink
}

// Start begins a segment that End appends to dst.
func (d *StreamDeflater) Start(dst []byte) error {
	d.sink.buf = dst
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
	if _, err := d.w.Write(p); err != nil {
		return fmt.Errorf("xcode: deflate: %w", err)
	}
	return nil
}

// End finishes the segment at a sync flush and returns Start's dst
// with the segment appended. After an error from Write or End the
// stream must be Reset.
func (d *StreamDeflater) End() ([]byte, error) {
	err := d.w.Flush()
	out := d.sink.buf
	d.sink.buf = nil
	if err != nil {
		return nil, fmt.Errorf("xcode: deflate flush: %w", err)
	}
	return out, nil
}

// Reset forgets the history: the next segment refers to nothing
// before it. The writer's tables are kept.
func (d *StreamDeflater) Reset() {
	if d.w != nil {
		d.w.Reset(&d.sink)
	}
}

// StreamInflater is the reading end of one stream: the last
// StreamWindow bytes it inflated, and a flate reader (about 44 KiB)
// Reset onto each segment with them as its dictionary. The zero value
// is a stream with no history. Not safe for concurrent use.
type StreamInflater struct {
	r    io.ReadCloser
	src  bytes.Reader
	hist []byte
	one  [1]byte // the read past the segment's end lands here
}

// Inflate inflates one segment into dst, which it must fill exactly,
// and then takes dst into the history. It is strict and bounded: a
// segment that does not end at a sync flush, that inflates to fewer
// bytes than len(dst) or to more, or that leaves input unread is
// ErrBadFrame, and nothing is written past dst (the check for more
// output reads one byte into a scratch of its own). A failed segment
// leaves the history as it was.
func (f *StreamInflater) Inflate(dst, seg []byte) error {
	if len(dst) == 0 || !bytes.HasSuffix(seg, syncMarker) {
		return fmt.Errorf("%w: stream segment of %d bytes for %d", ErrBadFrame, len(seg), len(dst))
	}
	f.src.Reset(seg)
	if f.r == nil {
		f.r = flate.NewReaderDict(&f.src, f.hist)
	} else if err := f.r.(flate.Resetter).Reset(&f.src, f.hist); err != nil {
		return fmt.Errorf("xcode: flate reset: %w", err)
	}
	if _, err := io.ReadFull(f.r, dst); err != nil {
		return fmt.Errorf("%w: stream segment: %v", ErrBadFrame, err)
	}
	// A segment ends at a sync flush, not at a final block: with every
	// declared byte out, the reader must find nothing more and run out
	// of input looking for the next block.
	if n, err := f.r.Read(f.one[:]); n != 0 || err != io.ErrUnexpectedEOF || f.src.Len() != 0 {
		return fmt.Errorf("%w: stream segment runs past its %d bytes", ErrBadFrame, len(dst))
	}
	f.absorb(dst)
	return nil
}

// absorb appends p to the history, keeping its last StreamWindow bytes.
func (f *StreamInflater) absorb(p []byte) {
	if f.hist == nil {
		f.hist = make([]byte, 0, StreamWindow)
	}
	if len(p) >= StreamWindow {
		f.hist = append(f.hist[:0], p[len(p)-StreamWindow:]...)
		return
	}
	if over := len(f.hist) + len(p) - StreamWindow; over > 0 {
		f.hist = f.hist[:copy(f.hist, f.hist[over:])]
	}
	f.hist = append(f.hist, p...)
}

// Reset forgets the history.
func (f *StreamInflater) Reset() { f.hist = f.hist[:0] }
