package xcode

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// proseParity returns a block-sized parity whose changed bytes are n
// bytes of prose in two runs: a ZRL frame DEFLATE shrinks.
func proseParity(bs, n int) []byte {
	const words = "warehouse district customer order line stock item history "
	fp := make([]byte, bs)
	for i := 0; i < n/2; i++ {
		fp[64+i] = words[i%len(words)]
		fp[bs/2+i] = words[(i+7)%len(words)]
	}
	return fp
}

// TestAppendSqueezed pins the transcode: a ZRL frame comes back as the
// ZRL+DEFLATE frame of the same block, appended after what dst held and
// strictly smaller, or not at all.
func TestAppendSqueezed(t *testing.T) {
	var d Deflater
	prefix := []byte("already here")

	block := proseParity(4096, 600)
	frame, err := Encode(CodecZRL, block)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := d.AppendSqueezed(append([]byte(nil), prefix...), frame)
	if !ok {
		t.Fatal("a 600-byte prose literal did not shrink")
	}
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("AppendSqueezed overwrote dst's contents")
	}
	squeezed := out[len(prefix):]
	if len(squeezed) >= len(frame) {
		t.Errorf("kept a squeezed frame of %d bytes for a source of %d", len(squeezed), len(frame))
	}
	if c, _ := FrameCodec(squeezed); c != CodecZRLFlate {
		t.Errorf("squeezed frame codec %v, want %v", c, CodecZRLFlate)
	}
	if got, err := Decode(squeezed); err != nil || !bytes.Equal(got, block) {
		t.Errorf("squeezed frame decodes to a different block (err %v)", err)
	}
	// Transcoding and encoding from the block are the same frame.
	direct, err := Encode(CodecZRLFlate, block)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(squeezed, direct) {
		t.Error("the transcoded frame differs from Encode(CodecZRLFlate) of the block")
	}

	// Kept only when smaller: a literal of random bytes grows under
	// DEFLATE, so the frame is refused and dst is as it was.
	noise := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(noise[100:400])
	noisy, err := Encode(CodecZRL, noise)
	if err != nil {
		t.Fatal(err)
	}
	if out, ok := d.AppendSqueezed(append([]byte(nil), prefix...), noisy); ok || !bytes.Equal(out, prefix) {
		t.Errorf("incompressible frame: ok=%v, dst now %d bytes (was %d)", ok, len(out), len(prefix))
	}

	// Nothing but a ZRL frame with a body is touched.
	for _, c := range []Codec{CodecRaw, CodecFlate, CodecZRLFlate} {
		other, err := Encode(c, block)
		if err != nil {
			t.Fatal(err)
		}
		if out, ok := d.AppendSqueezed(nil, other); ok || len(out) != 0 {
			t.Errorf("%v frame: squeezed", c)
		}
	}
	for _, short := range [][]byte{nil, {byte(CodecZRL)}, {byte(CodecZRL), 0, 0, 0, 0}} {
		if out, ok := d.AppendSqueezed(nil, short); ok || len(out) != 0 {
			t.Errorf("frame %v: squeezed", short)
		}
	}
}

// TestInflaterReuse: an inflater decodes ZRL+DEFLATE bodies of mixed
// sizes one after the other into its own scratch without allocating —
// no flate reader, no growing buffer per frame. (Held on the inflater,
// not on Decode: the race detector makes sync.Pool drop items at
// random, and Decode allocates the decoded block besides.)
func TestInflaterReuse(t *testing.T) {
	var bodies [][]byte
	for _, n := range []int{200, 1200, 600} {
		f, err := Encode(CodecZRLFlate, proseParity(4096, n))
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, f[headerLen:])
	}
	var f inflater
	i := 0
	inflate := func() {
		mid, err := f.inflate(f.mid[:0], bodies[i%len(bodies)], zrlMaxEncodedLen(4096))
		if err != nil {
			t.Fatal(err)
		}
		f.mid = mid
		i++
	}
	inflate()
	if got := testing.AllocsPerRun(200, inflate); got != 0 {
		t.Errorf("steady-state inflate: %.2f allocs, want 0", got)
	}
}

// TestInflateBound: the bound on the inflated length holds with the
// reused reader, at, just under and past the presized buffer.
func TestInflateBound(t *testing.T) {
	deflate := func(data []byte) []byte {
		var buf bytes.Buffer
		w, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(data)
		w.Close()
		return buf.Bytes()
	}
	for _, n := range []int{0, 1, 100, inflatePresize - 1, inflatePresize, inflatePresize + 1, 3 * inflatePresize} {
		data := bytes.Repeat([]byte{7}, n)
		body := deflate(data)
		f := getInflater()
		got, err := f.inflate(nil, body, n)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("inflate %d bytes with bound %d: err %v, %d bytes back", n, n, err, len(got))
		}
		if n > 0 {
			if _, err := f.inflate(nil, body, n-1); !errors.Is(err, ErrTooLarge) {
				t.Errorf("inflate %d bytes with bound %d: err %v, want ErrTooLarge", n, n-1, err)
			}
		}
		inflaterPool.Put(f)

		// Through Decode: a CodecFlate frame that declares one byte less
		// than it inflates to.
		frame := append([]byte{byte(CodecFlate), 0, 0, 0, 0}, body...)
		binary.BigEndian.PutUint32(frame[1:], uint32(max(n-1, 0)))
		if _, err := Decode(frame); n > 0 && !errors.Is(err, ErrTooLarge) {
			t.Errorf("Decode of a frame inflating past its declared %d bytes: err %v, want ErrTooLarge", n-1, err)
		}
	}
	// A corrupt stream is a bad frame, and the inflater works after it.
	f := getInflater()
	defer inflaterPool.Put(f)
	if _, err := f.inflate(nil, []byte{0xde, 0xad, 0xbe, 0xef}, 64); !errors.Is(err, ErrBadFrame) {
		t.Errorf("garbage stream: err %v, want ErrBadFrame", err)
	}
	if got, err := f.inflate(nil, deflate([]byte("ok")), 2); err != nil || string(got) != "ok" {
		t.Errorf("inflate after an error: %q, %v", got, err)
	}
}

// TestAppendSqueezedBoundary sweeps literals from all noise to mostly
// prose across the point where DEFLATE starts to pay, the equal-length
// case included: a frame is kept exactly when strictly smaller.
func TestAppendSqueezedBoundary(t *testing.T) {
	var d Deflater
	rng := rand.New(rand.NewSource(4))
	var kept, refused, equal int
	for prose := 0; prose <= 120; prose++ {
		fp := make([]byte, 4096)
		rng.Read(fp[100:260])
		copy(fp[260:], proseParity(4096, 2*prose)[64:64+prose])
		zrl, err := Encode(CodecZRL, fp)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := Encode(CodecZRLFlate, fp)
		if err != nil {
			t.Fatal(err)
		}
		out, ok := d.AppendSqueezed(nil, zrl)
		switch {
		case len(direct) < len(zrl):
			kept++
			if !ok || !bytes.Equal(out, direct) {
				t.Errorf("%d prose bytes: %d -> %d bytes refused", prose, len(zrl), len(direct))
			}
		default:
			refused++
			if len(direct) == len(zrl) {
				equal++
			}
			if ok || len(out) != 0 {
				t.Errorf("%d prose bytes: kept a %d-byte frame for a %d-byte source", prose, len(direct), len(zrl))
			}
		}
	}
	if kept == 0 || refused == 0 || equal == 0 {
		t.Fatalf("sweep does not straddle the boundary: %d kept, %d refused, %d of equal length", kept, refused, equal)
	}
}
