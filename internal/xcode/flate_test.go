package xcode

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
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

// TestInflaterReuse: an inflater decodes DEFLATE bodies of mixed sizes
// one after the other into its own scratch without allocating — no
// flate reader, no growing buffer per frame. (Held on the inflater,
// not on Decode: the race detector makes sync.Pool drop items at
// random, and Decode allocates the decoded block besides.)
func TestInflaterReuse(t *testing.T) {
	var bodies [][]byte
	for _, n := range []int{200, 1200, 600} {
		f, err := Encode(CodecFlate, proseParity(4096, n))
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, f[headerLen:])
	}
	var f inflater
	i := 0
	inflate := func() {
		mid, err := f.inflate(f.mid[:0], bodies[i%len(bodies)], 4096)
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
