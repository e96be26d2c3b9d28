package xcode

import (
	"bytes"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the frame decoder: it must
// never panic, and any frame it accepts must respect MaxBlockLen.
func FuzzDecode(f *testing.F) {
	seed, _ := Encode(CodecZRL, []byte("seed parity block"))
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{byte(CodecRaw), 0, 0, 0, 4, 1, 2, 3, 4})
	f.Add([]byte{byte(CodecFlate), 0, 0, 0, 16, 0xde, 0xad})
	// Frames as a squeezing shipper puts them on the wire: transcoded
	// from the ZRL frame, not encoded from the block.
	var d Deflater
	for _, n := range []int{40, 600, 2000} {
		zrl, _ := Encode(CodecZRL, proseParity(4096, n))
		if squeezed, ok := d.AppendSqueezed(nil, zrl); ok {
			f.Add(squeezed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Decode(data)
		if err == nil && len(out) > MaxBlockLen {
			t.Fatalf("accepted frame decoding to %d bytes", len(out))
		}
	})
}

// FuzzRoundTrip checks that every input encodes and decodes back to
// itself under every codec, and that its ZRL frame, when the shipper's
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
