package xcode

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// addDecodeSeeds seeds a frame-decoder fuzzer: hand-built frames of
// every codec, and frames as a squeezing shipper puts them on the wire.
func addDecodeSeeds(f *testing.F) {
	seed, _ := Encode(CodecZRL, []byte("seed parity block"))
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{byte(CodecRaw), 0, 0, 0, 4, 1, 2, 3, 4})
	f.Add([]byte{byte(CodecFlate), 0, 0, 0, 16, 0xde, 0xad})
	// Frames as the per-frame squeeze writes them: transcoded from the
	// ZRL frame, not encoded from the block.
	var d Deflater
	for _, n := range []int{40, 600, 2000} {
		zrl, _ := Encode(CodecZRL, proseParity(4096, n))
		if squeezed, ok := d.AppendSqueezed(nil, zrl); ok {
			f.Add(squeezed)
		}
	}
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
// itself under every codec, and that its ZRL frame, when the per-frame
// squeeze keeps the transcoded form, got smaller and still decodes to
// the input.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello world"))
	f.Add(bytes.Repeat([]byte{0}, 512))
	f.Add(proseParity(4096, 600)) // a frame the squeeze keeps
	f.Add(proseParity(512, 40))   // and one too small for it to
	var d Deflater
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > MaxBlockLen {
			return
		}
		zrl, err := Encode(CodecZRL, data)
		if err != nil {
			t.Fatalf("zrl encode: %v", err)
		}
		if squeezed, ok := d.AppendSqueezed(nil, zrl); ok {
			if len(squeezed) >= len(zrl) {
				t.Fatalf("squeeze kept %d bytes for a %d-byte frame", len(squeezed), len(zrl))
			}
			got, err := Decode(squeezed)
			if err != nil {
				t.Fatalf("squeezed decode: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("squeezed round trip mismatch")
			}
		}
		for _, c := range []Codec{CodecRaw, CodecZRL, CodecFlate, CodecZRLFlate} {
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
	f.Fuzz(func(t *testing.T, data []byte) {
		checkZRLAgainstBytewise(t, data, "fuzz input")
	})
}
