package xcode

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// addDecodeSeeds seeds a frame-decoder fuzzer: hand-built frames of
// every codec, DEFLATE frames of parities, and a frame naming the
// retired codec 4, built as it was: DEFLATE over a ZRL frame's body.
func addDecodeSeeds(f *testing.F) {
	seed, _ := Encode(CodecZRL, []byte("seed parity block"))
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{byte(CodecRaw), 0, 0, 0, 4, 1, 2, 3, 4})
	f.Add([]byte{byte(CodecFlate), 0, 0, 0, 16, 0xde, 0xad})
	for _, n := range []int{600, 2000} {
		deflated, _ := Encode(CodecFlate, proseParity(4096, n))
		f.Add(deflated)
	}
	zrl, _ := Encode(CodecZRL, proseParity(4096, 600))
	retired, _ := appendDeflate(append([]byte{4}, zrl[1:headerLen]...), zrl[headerLen:])
	f.Add(retired)
}

// FuzzDecode throws arbitrary bytes at the frame decoder: it must
// never panic, and any frame it accepts must respect MaxBlockLen.
func FuzzDecode(f *testing.F) {
	addDecodeSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Decode(data)
		if err == nil && len(out) > MaxBlockLen {
			t.Fatalf("accepted frame decoding to %d bytes", len(out))
		}
	})
}

// FuzzDecodeInto is the differential fuzzer for the allocation-free
// forms of the frame walker: on any frame DecodeInto and XORInto agree
// with Decode (and Decode + a bytewise XOR), or fail with the same
// error class, and neither writes a byte outside dst. It starts from
// FuzzDecode's seeds and its checked-in corpus of real engine frames.
func FuzzDecodeInto(f *testing.F) {
	addDecodeSeeds(f)
	f.Add([]byte{byte(CodecZRL), 0, 0, 0, 8, 1, 2, 0xAA, 0xBB}) // ends early: implied zeros
	files, _ := filepath.Glob("testdata/fuzz/FuzzDecode/*")
	for _, name := range files {
		// The go test fuzz v1 format: a header line, then []byte("...").
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
		if frame, err := strconv.Unquote(strings.TrimSuffix(lit, ")")); ok && err == nil {
			f.Add([]byte(frame))
		}
	}
	const guard = 32
	f.Fuzz(func(t *testing.T, frame []byte) {
		n, err := DecodedLen(frame)
		if err != nil || n > 1<<16 {
			// Unparseable header, or a declared length not worth a buffer:
			// both forms must refuse a buffer of another size.
			if DecodeInto(make([]byte, 3), frame) == nil || XORInto(make([]byte, 3), frame) == nil {
				t.Fatal("frame accepted into a buffer of the wrong length")
			}
			return
		}
		want, werr := Decode(frame)
		for _, xor := range []bool{false, true} {
			buf := make([]byte, guard+n+guard)
			for i := range buf {
				buf[i] = byte(i*31 + 7)
			}
			before := bytes.Clone(buf)
			dst := buf[guard : guard+n : guard+n]
			err := decodeFrame(dst, frame, xor)
			if !bytes.Equal(buf[:guard], before[:guard]) || !bytes.Equal(buf[guard+n:], before[guard+n:]) {
				t.Fatalf("xor=%v: wrote outside dst", xor)
			}
			if (err == nil) != (werr == nil) {
				t.Fatalf("xor=%v: err %v, Decode err %v", xor, err, werr)
			}
			if err != nil {
				for _, class := range []error{ErrBadFrame, ErrUnknownCode, ErrTooLarge} {
					if errors.Is(err, class) != errors.Is(werr, class) {
						t.Fatalf("xor=%v: err %v, Decode err %v: different class", xor, err, werr)
					}
				}
				continue
			}
			for i := range dst {
				expect := want[i]
				if xor {
					expect ^= before[guard+i]
				}
				if dst[i] != expect {
					t.Fatalf("xor=%v: byte %d is %#x, want %#x", xor, i, dst[i], expect)
				}
			}
		}
	})
}

// FuzzRoundTrip checks that every input encodes and decodes back to
// itself under every codec.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello world"))
	f.Add(bytes.Repeat([]byte{0}, 512))
	f.Add(proseParity(4096, 600)) // a parity DEFLATE shrinks
	f.Add(proseParity(512, 40))   // and one too short for it to
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > MaxBlockLen {
			return
		}
		for _, c := range allCodecs {
			frame, err := Encode(c, data)
			if err != nil {
				t.Fatalf("%v encode: %v", c, err)
			}
			got, err := Decode(frame)
			if err != nil {
				t.Fatalf("%v decode: %v", c, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%v round trip mismatch", c)
			}
		}
	})
}

// FuzzZRLEncode is the differential fuzzer for the word-wide ZRL
// encoder: on any input its stream equals the bytewise oracle's and
// decodes back to the input.
func FuzzZRLEncode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte("\x01\x00\x00\x00\x02\x00\x00\x00\x00\x03\x00"))
	f.Add(append(bytes.Repeat([]byte{7}, 13), 0, 0, 0))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0, 9}, 5))
	// The word scan's edges: a gap or a run ending in each of four
	// words, a 3-byte gap straddling a word boundary, and tails short
	// of a word after whole words.
	for _, at := range []int{7, 15, 23, 31} {
		lit := bytes.Repeat([]byte{5}, 40)
		lit[at] = 0
		f.Add(lit)
		zeros := make([]byte, 40)
		zeros[at] = 6
		f.Add(zeros)
	}
	straddle := bytes.Repeat([]byte{3}, 64)
	clear(straddle[30:33])
	f.Add(straddle)
	f.Add(append(bytes.Repeat([]byte{4}, 32), 0, 0, 4, 4, 4))
	f.Add(append(make([]byte, 32), 8, 0, 0, 0, 8, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkZRLAgainstBytewise(t, data, "fuzz input")
	})
}

// FuzzStreamInflate throws arbitrary segments at a reader that holds a
// primed history, for a dst of any length: nothing is written outside
// dst; a segment is refused, leaving the history (ring and models) as
// it was, or fills dst exactly (two readers in the same state, handed
// buffers of different contents, rebuild the same bytes); and the
// writer's own segments of arbitrary plaintext, the second repeating the
// first, round-trip.
func FuzzStreamInflate(f *testing.F) {
	var w StreamDeflater
	var primed, a, b, c StreamInflater
	primeStream(f, &w, &primed)
	rng := rand.New(rand.NewSource(6))
	f.Add(streamSegment(f, &w, streamText(rng, 3000)), uint16(3000), []byte("warehouse district"))
	run, runPlain := checkedSegment(&primed, append(runTok(273), reps(2, 200)...)...)
	f.Add(run, uint16(len(runPlain)), []byte{})
	f.Add(run, uint16(500), []byte{0})
	stored := streamText(rng, 90)
	f.Add(handSegment(crc32.Checksum(stored, castagnoli), stored), uint16(len(stored)), []byte(nil))
	chain, chainPlain := checkedSegment(&primed, mat(12, 100), mat(9, 2000), repTok(1, 6), shortRep(), lit('q'), repTok(0, 3))
	f.Add(chain, uint16(len(chainPlain)), streamText(rng, 200))
	past, _ := checkedSegment(&primed, mat(40, primed.lz.held+1))
	f.Add(past, uint16(40), []byte(nil))
	f.Add(run[:len(run)-2], uint16(len(runPlain)), []byte(nil))
	const guard = 32
	f.Fuzz(func(t *testing.T, seg []byte, n uint16, plain []byte) {
		var dsts [2][]byte
		var errs [2]error
		for k, r := range []*StreamInflater{&a, &b} {
			r.copyHistory(&primed)
			buf := bytes.Repeat([]byte{byte(k) * 0xff}, guard+int(n)+guard)
			dsts[k] = buf[guard : guard+int(n) : guard+int(n)]
			errs[k] = r.Inflate(dsts[k], seg)
			for _, g := range [][]byte{buf[:guard], buf[guard+int(n):]} {
				if !bytes.Equal(g, bytes.Repeat([]byte{byte(k) * 0xff}, guard)) {
					t.Fatal("wrote outside dst")
				}
			}
		}
		switch {
		case (errs[0] == nil) != (errs[1] == nil):
			t.Fatalf("two readers in one state: %v and %v", errs[0], errs[1])
		case errs[0] != nil && !errors.Is(errs[0], ErrBadFrame):
			t.Fatalf("refused as %v, want ErrBadFrame", errs[0])
		case errs[0] != nil && !sameHistory(&a, &primed):
			t.Fatal("a refused segment changed the history")
		case errs[0] == nil && !bytes.Equal(dsts[0], dsts[1]):
			t.Fatal("an accepted segment left bytes of dst unwritten")
		}
		if len(plain) == 0 {
			return
		}
		w.Reset()
		c.Reset()
		for range 2 {
			got := make([]byte, len(plain))
			if err := c.Inflate(got, streamSegment(t, &w, plain)); err != nil || !bytes.Equal(got, plain) {
				t.Fatalf("round trip of %d bytes: %v", len(plain), err)
			}
		}
	})
}

// copyHistory gives f the history of from: ring and models.
func (f *StreamInflater) copyHistory(from *StreamInflater) {
	f.lz.hist = append(f.lz.hist[:0], from.lz.hist...)
	f.lz.end, f.lz.held = from.lz.end, from.lz.held
	f.lz.m = from.lz.m
}
