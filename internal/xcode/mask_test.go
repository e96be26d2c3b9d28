package xcode

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// maskWrite returns a pre-image, the block a sparse write leaves over
// it, and the ZRL frame of their parity: a few short runs rewritten,
// some of whose bytes happen to keep their old value (zero bytes inside
// the parity's literals).
func maskWrite(t *testing.T, seed int64, bs int) (old, new, zrl []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	old = make([]byte, bs)
	rng.Read(old)
	new = bytes.Clone(old)
	for range 6 {
		off, n := rng.Intn(bs-40), 8+rng.Intn(32)
		rng.Read(new[off : off+n])
		new[off+n/2] = old[off+n/2]
	}
	fp := make([]byte, bs)
	for i := range fp {
		fp[i] = new[i] ^ old[i]
	}
	zrl, err := Encode(CodecZRL, fp)
	if err != nil {
		t.Fatal(err)
	}
	return old, new, zrl
}

// TestMaskRoundTrip: the twin of a parity's ZRL frame is as long as the
// frame, and landing it on the pre-image gives the new block and
// rebuilds the frame byte for byte, appended after what rebuilt held.
func TestMaskRoundTrip(t *testing.T) {
	old, new, zrl := maskWrite(t, 1, 4096)
	prefix := []byte("kept")
	twin, err := AppendMask(bytes.Clone(prefix), zrl, new)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(twin, prefix) {
		t.Fatal("AppendMask did not append")
	}
	twin = twin[len(prefix):]
	if len(twin) != len(zrl) || Codec(twin[0]) != CodecMask || !bytes.Equal(twin[1:headerLen], zrl[1:headerLen]) {
		t.Fatalf("twin %d bytes, codec %v; want %d bytes, mask, the frame's length", len(twin), Codec(twin[0]), len(zrl))
	}
	dst := bytes.Clone(old)
	rebuilt, err := MaskInto(dst, twin, bytes.Clone(prefix))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, new) {
		t.Error("the mask did not land the new block")
	}
	if !bytes.Equal(rebuilt, append(bytes.Clone(prefix), zrl...)) {
		t.Error("the rebuilt frame is not the parity's frame")
	}
}

// TestMaskWrongPreImage is what the check on a mask frame rests on: a
// pre-image byte that differs under a literal changes the rebuilt frame
// and not the block; one that differs elsewhere changes the block and
// not the rebuilt frame.
func TestMaskWrongPreImage(t *testing.T) {
	old, new, zrl := maskWrite(t, 2, 4096)
	twin, err := AppendMask(nil, zrl, new)
	if err != nil {
		t.Fatal(err)
	}
	var under, outside = -1, -1
	for i := range old {
		if old[i] != new[i] && under < 0 {
			under = i
		}
		if old[i] == new[i] && (i == 0 || old[i-1] == new[i-1]) && (i+1 == len(old) || old[i+1] == new[i+1]) && outside < 0 {
			outside = i // far enough from a change to sit in a zero run
		}
	}
	for _, c := range []struct {
		name                 string
		at                   int
		blockOK, rebuiltSame bool
	}{
		{"under a literal", under, true, false},
		{"in a zero run", outside, false, true},
	} {
		pre := bytes.Clone(old)
		pre[c.at] ^= 0x5a
		rebuilt, err := MaskInto(pre, twin, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Equal(pre, new); got != c.blockOK {
			t.Errorf("%s: block equals the new one: %v, want %v", c.name, got, c.blockOK)
		}
		if got := bytes.Equal(rebuilt, zrl); got != c.rebuiltSame {
			t.Errorf("%s: rebuilt frame equals the parity's: %v, want %v", c.name, got, c.rebuiltSame)
		}
	}
}

// TestMaskRefusals: a mask frame decodes only onto its pre-image, is
// built only from a ZRL frame of the source's length, and MaskInto
// lands only a mask frame of dst's length; every refusal leaves the
// appended-to buffer as it was.
func TestMaskRefusals(t *testing.T) {
	_, new, zrl := maskWrite(t, 3, 512)
	twin, err := AppendMask(nil, zrl, new)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(twin); !errors.Is(err, ErrBadFrame) {
		t.Errorf("Decode of a mask: %v", err)
	}
	if err := DecodeInto(make([]byte, 512), twin); !errors.Is(err, ErrBadFrame) {
		t.Errorf("DecodeInto of a mask: %v", err)
	}
	if err := XORInto(make([]byte, 512), twin); !errors.Is(err, ErrBadFrame) {
		t.Errorf("XORInto of a mask: %v", err)
	}
	if _, err := Encode(CodecMask, new); !errors.Is(err, ErrBadFrame) {
		t.Errorf("Encode as a mask: %v", err)
	}
	raw, _ := Encode(CodecRaw, new)
	kept := []byte("kept")
	for name, call := range map[string]func() ([]byte, error){
		"AppendMask of a raw frame":        func() ([]byte, error) { return AppendMask(kept, raw, new) },
		"AppendMask of a mask":             func() ([]byte, error) { return AppendMask(kept, twin, new) },
		"AppendMask from a short source":   func() ([]byte, error) { return AppendMask(kept, zrl, new[1:]) },
		"MaskInto of a zrl frame":          func() ([]byte, error) { return MaskInto(make([]byte, 512), zrl, kept) },
		"MaskInto onto a short block":      func() ([]byte, error) { return MaskInto(make([]byte, 511), twin, kept) },
		"MaskInto of a truncated mask":     func() ([]byte, error) { return MaskInto(make([]byte, 512), twin[:len(twin)-1], kept) },
		"MaskInto of a mask that overruns": func() ([]byte, error) { return MaskInto(make([]byte, 512), overrunMask(), kept) },
	} {
		out, err := call()
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err %v, want ErrBadFrame", name, err)
		}
		if !bytes.Equal(out, kept) {
			t.Errorf("%s: returned %q, want the buffer unextended", name, out)
		}
	}
}

// overrunMask is a 512-byte mask frame whose one segment skips 500
// bytes and then claims a 20-byte literal.
func overrunMask() []byte {
	f := binary.BigEndian.AppendUint32([]byte{byte(CodecMask)}, 512)
	f = binary.AppendUvarint(f, 500)
	f = binary.AppendUvarint(f, 20)
	return append(f, make([]byte, 20)...)
}

// FuzzMaskInto throws arbitrary zero-run bodies at the mask walker, as a
// CodecMask frame over an arbitrary pre-image. It must never write
// outside dst; it must refuse exactly the bodies the ZRL walker refuses
// (the same body as a CodecZRL frame through XORInto); and from a body
// it accepts it must rebuild a frame exactly as long as the mask, which
// XORed into the pre-image lands the same block the mask did, and whose
// twin over that block is the mask again.
func FuzzMaskInto(f *testing.F) {
	for _, seed := range []int64{1, 2} {
		rng := rand.New(rand.NewSource(seed))
		old := make([]byte, 256)
		rng.Read(old)
		fp := make([]byte, len(old))
		rng.Read(fp[40:90])
		zrl, _ := Encode(CodecZRL, fp)
		f.Add(zrl[headerLen:], old)
	}
	f.Add([]byte{3, 2, 0xAA, 0xBB}, make([]byte, 8))    // ends early: the rest is the pre-image's
	f.Add([]byte{0, 9, 1, 2, 3}, make([]byte, 8))       // a literal past the stream
	f.Add([]byte{7, 2, 1, 2}, make([]byte, 8))          // a literal past the block
	f.Add([]byte{0x80}, make([]byte, 8))                // a truncated varint
	f.Add(overrunMask()[headerLen:], make([]byte, 512)) // skip, then a literal past the block
	const guard = 32
	f.Fuzz(func(t *testing.T, body, pre []byte) {
		if len(pre) > 1<<16 {
			return
		}
		frame := func(c Codec) []byte {
			return append(binary.BigEndian.AppendUint32([]byte{byte(c)}, uint32(len(pre))), body...)
		}
		mask := frame(CodecMask)
		buf := make([]byte, guard+len(pre)+guard)
		for i := range buf {
			buf[i] = byte(i*31 + 7)
		}
		copy(buf[guard:], pre)
		before := bytes.Clone(buf)
		dst := buf[guard : guard+len(pre) : guard+len(pre)]
		prefix := []byte("kept")
		rebuilt, err := MaskInto(dst, mask, bytes.Clone(prefix))
		if !bytes.Equal(buf[:guard], before[:guard]) || !bytes.Equal(buf[guard+len(pre):], before[guard+len(pre):]) {
			t.Fatal("wrote outside dst")
		}
		xerr := XORInto(bytes.Clone(pre), frame(CodecZRL))
		if (err == nil) != (xerr == nil) {
			t.Fatalf("mask err %v, zrl err %v", err, xerr)
		}
		if err != nil {
			if !bytes.Equal(rebuilt, prefix) {
				t.Fatal("a refused mask extended rebuilt")
			}
			return
		}
		if len(rebuilt) != len(prefix)+len(mask) || !bytes.HasPrefix(rebuilt, prefix) {
			t.Fatalf("rebuilt %d bytes after the prefix, mask %d", len(rebuilt)-len(prefix), len(mask))
		}
		rebuilt = rebuilt[len(prefix):]
		redo := bytes.Clone(pre)
		if err := XORInto(redo, rebuilt); err != nil {
			t.Fatalf("rebuilt frame: %v", err)
		}
		if !bytes.Equal(redo, dst) {
			t.Fatal("the rebuilt parity over the pre-image is not the block the mask landed")
		}
		twin, err := AppendMask(nil, rebuilt, dst)
		if err != nil || !bytes.Equal(twin, mask) {
			t.Fatalf("twin of the rebuilt frame over the landed block: %v, equal %v", err, bytes.Equal(twin, mask))
		}
	})
}
