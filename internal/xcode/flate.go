package xcode

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// DEFLATE on single frames, used three ways: the
// traditional-with-compression baseline (whole data blocks,
// CodecFlate), the second stage of CodecZRLFlate, and the per-frame
// squeeze of an already-encoded CodecZRL frame (Deflater.AppendSqueezed,
// which BenchmarkAblationSqueeze prices against the stream a shipper now
// uses, stream.go). All three write through Deflater.deflate and read
// through inflater.inflate, so there is one encode path and one decode
// path, both reusing their large internal tables. Beside them,
// Compressible runs a Huffman-only pass that counts bytes and keeps
// none, to tell a caller whether DEFLATE is worth trying.

// flateLevel is the one compression level in use. On TPC-C parities
// level 6 takes ~30% off a ZRL frame (BenchmarkAblationSqueeze) and
// level 1 about four points less. A pipe squeezes because the bytes are
// what its link charges for, and keeps squeezing unless shipping plain
// is a tenth faster (internal/core's gate), so it buys the bytes.
const flateLevel = 6

// Deflater is a reusable DEFLATE encoder that appends into the caller's
// buffer. The zero value is ready to use; it builds its flate.Writer
// (about 800 KiB of tables at flateLevel) on first use. Not safe for
// concurrent use: a shipper owns one, Encode borrows pooled ones.
type Deflater struct {
	w    *flate.Writer
	sink appendSink
}

// appendSink is the io.Writer a Deflater's flate.Writer drains into.
type appendSink struct{ buf []byte }

func (s *appendSink) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// deflate appends the DEFLATE stream of data to dst.
func (d *Deflater) deflate(dst, data []byte) ([]byte, error) {
	d.sink.buf = dst
	if d.w == nil {
		w, err := flate.NewWriter(&d.sink, flateLevel)
		if err != nil {
			return nil, fmt.Errorf("xcode: flate.NewWriter: %w", err)
		}
		d.w = w
	} else {
		d.w.Reset(&d.sink)
	}
	_, err := d.w.Write(data)
	if err == nil {
		err = d.w.Close()
	}
	dst, d.sink.buf = d.sink.buf, nil
	if err != nil {
		return nil, fmt.Errorf("xcode: deflate: %w", err)
	}
	return dst, nil
}

// AppendSqueezed transcodes an encoded CodecZRL frame to CodecZRLFlate
// without decoding it — same header, DEFLATE over the ZRL body — and
// appends the result to dst. The squeezed frame is kept only when it is
// strictly smaller: ok reports that, and when false dst comes back at
// its original length. Frames in any other codec (a raw-floored dense
// parity, say) are refused before any work is done.
func (d *Deflater) AppendSqueezed(dst, frame []byte) (out []byte, ok bool) {
	if len(frame) <= headerLen || Codec(frame[0]) != CodecZRL {
		return dst, false
	}
	base := len(dst)
	out = append(dst, byte(CodecZRLFlate), frame[1], frame[2], frame[3], frame[4])
	out, err := d.deflate(out, frame[headerLen:])
	if err != nil {
		return dst, false
	}
	if len(out)-base >= len(frame) {
		return out[:base], false
	}
	return out, true
}

var deflaterPool = sync.Pool{New: func() any { return new(Deflater) }}

// appendDeflate appends the DEFLATE stream of data to dst through a
// pooled Deflater.
func appendDeflate(dst, data []byte) ([]byte, error) {
	d, ok := deflaterPool.Get().(*Deflater)
	if !ok {
		d = new(Deflater)
	}
	defer deflaterPool.Put(d)
	return d.deflate(dst, data)
}

// Compressible reports whether data shrinks under a Huffman-only
// DEFLATE pass: literal coding with no match search, so it costs a
// small fraction of a flateLevel encode and answers whether the bytes
// carry any redundancy at all. Random or already-compressed data does
// not shrink, and a caller that gets false skips DEFLATE on data like
// it. The pass writes nothing but a byte count.
//
// One writer serves every caller, under a lock: it is some 700 KiB of
// tables, and a pooled one would be dropped by the next collection and
// rebuilt, zeroed, by the next caller — which costs more than the pass.
func Compressible(data []byte) bool {
	theProbe.mu.Lock()
	defer theProbe.mu.Unlock()
	p := &theProbe
	p.n = 0
	if p.w == nil {
		w, err := flate.NewWriter(p, flate.HuffmanOnly)
		if err != nil {
			return false
		}
		p.w = w
	} else {
		p.w.Reset(p)
	}
	if _, err := p.w.Write(data); err != nil {
		return false
	}
	if err := p.w.Close(); err != nil {
		return false
	}
	return p.n < len(data)
}

// probe is Compressible's Huffman-only writer and the byte count it
// drains into.
type probe struct {
	mu sync.Mutex
	w  *flate.Writer
	n  int
}

func (p *probe) Write(b []byte) (int, error) {
	p.n += len(b)
	return len(b), nil
}

var theProbe probe

// inflater is a reusable DEFLATE decoder: the flate reader (about
// 44 KiB) is Reset from frame to frame, and mid is the scratch a
// CodecZRLFlate frame's inner ZRL stream inflates into.
type inflater struct {
	r   io.ReadCloser
	src bytes.Reader
	mid []byte
}

var inflaterPool = sync.Pool{New: func() any { return new(inflater) }}

// inflatePresize caps how much buffer inflate reserves on the strength
// of a frame's declared length alone; past it the buffer grows only as
// bytes actually inflate.
const inflatePresize = 64 << 10

// inflate appends the inflation of body to dst, refusing to produce
// more than maxLen bytes so that corrupt frames cannot balloon memory.
func (f *inflater) inflate(dst, body []byte, maxLen int) ([]byte, error) {
	f.src.Reset(body)
	if f.r == nil {
		f.r = flate.NewReader(&f.src)
	} else if err := f.r.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return nil, fmt.Errorf("xcode: flate reset: %w", err)
	}
	base := len(dst)
	if want := base + min(maxLen+1, inflatePresize); cap(dst) < want {
		dst = append(make([]byte, 0, want), dst...)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		room := dst[len(dst):min(cap(dst), base+maxLen+1)]
		//lint:ignore hold-blocking inflates an in-memory buffer into an in-memory buffer, no I/O wait
		n, err := f.r.Read(room)
		dst = dst[:len(dst)+n]
		if len(dst)-base > maxLen {
			return nil, fmt.Errorf("%w: inflated past %d bytes", ErrTooLarge, maxLen)
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: inflate: %v", ErrBadFrame, err)
		}
	}
}

// getInflater borrows a pooled inflater; return it with
// inflaterPool.Put once nothing aliases its mid scratch.
func getInflater() *inflater {
	f, ok := inflaterPool.Get().(*inflater)
	if !ok {
		f = new(inflater)
	}
	return f
}
