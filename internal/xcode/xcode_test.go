package xcode

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

var allCodecs = []Codec{CodecRaw, CodecZRL, CodecFlate}

// sparseBlock builds a block of size n with the given fraction of bytes
// changed (non-zero), clustered in short runs the way real page writes
// look.
func sparseBlock(rng *rand.Rand, n int, fraction float64) []byte {
	b := make([]byte, n)
	changed := int(float64(n) * fraction)
	for changed > 0 {
		runLen := 1 + rng.Intn(32)
		if runLen > changed {
			runLen = changed
		}
		off := rng.Intn(n)
		for i := 0; i < runLen && off+i < n; i++ {
			b[off+i] = byte(1 + rng.Intn(255))
		}
		changed -= runLen
	}
	return b
}

func TestRoundTripAllCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inputs := map[string][]byte{
		"empty":       {},
		"all zeros":   make([]byte, 4096),
		"all ones":    bytes.Repeat([]byte{0xFF}, 4096),
		"sparse 5%":   sparseBlock(rng, 8192, 0.05),
		"sparse 20%":  sparseBlock(rng, 8192, 0.20),
		"dense rand":  randBlock(rng, 8192),
		"one byte":    {0x42},
		"odd length":  randBlock(rng, 4099),
		"single tail": append(make([]byte, 511), 1),
		"single head": append([]byte{1}, make([]byte, 511)...),
	}
	for _, c := range allCodecs {
		for name, in := range inputs {
			t.Run(c.String()+"/"+name, func(t *testing.T) {
				frame, err := Encode(c, in)
				if err != nil {
					t.Fatalf("Encode: %v", err)
				}
				got, err := Decode(frame)
				if err != nil {
					t.Fatalf("Decode: %v", err)
				}
				if !bytes.Equal(got, in) {
					t.Errorf("round trip mismatch: got %d bytes, want %d", len(got), len(in))
				}
				gotCodec, err := FrameCodec(frame)
				if err != nil || gotCodec != c {
					t.Errorf("FrameCodec = %v,%v want %v", gotCodec, err, c)
				}
				n, err := DecodedLen(frame)
				if err != nil || n != len(in) {
					t.Errorf("DecodedLen = %d,%v want %d", n, err, len(in))
				}
			})
		}
	}
}

func randBlock(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestZRLCompressesSparse asserts the core size claim: a 5%-changed
// parity block must shrink by a large factor under ZRL.
func TestZRLCompressesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	block := sparseBlock(rng, 65536, 0.05)
	frame, err := Encode(CodecZRL, block)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(block)) / float64(len(frame)); ratio < 5 {
		t.Errorf("ZRL ratio on 5%% sparse block = %.1fx, want >= 5x (frame %d bytes)", ratio, len(frame))
	}

	zeros := make([]byte, 65536)
	frame, err = Encode(CodecZRL, zeros)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) > 32 {
		t.Errorf("ZRL of all-zero 64K block = %d bytes, want tiny", len(frame))
	}
}

func TestRoundTripQuick(t *testing.T) {
	for _, c := range allCodecs {
		c := c
		f := func(data []byte) bool {
			frame, err := Encode(c, data)
			if err != nil {
				return false
			}
			got, err := Decode(frame)
			if err != nil {
				return false
			}
			return bytes.Equal(got, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("%v: %v", c, err)
		}
	}
}

func TestDecodeRejectsCorruptFrames(t *testing.T) {
	tests := []struct {
		name    string
		frame   []byte
		wantErr error
	}{
		{name: "empty", frame: nil, wantErr: ErrBadFrame},
		{name: "short header", frame: []byte{1, 0, 0}, wantErr: ErrBadFrame},
		{name: "zero codec", frame: []byte{0, 0, 0, 0, 4}, wantErr: ErrUnknownCode},
		{name: "unknown codec", frame: []byte{99, 0, 0, 0, 4}, wantErr: ErrUnknownCode},
		{name: "raw length lie", frame: []byte{byte(CodecRaw), 0, 0, 0, 10, 1, 2}, wantErr: ErrBadFrame},
		{name: "huge declared length", frame: []byte{byte(CodecRaw), 0xFF, 0xFF, 0xFF, 0xFF}, wantErr: ErrTooLarge},
		{name: "garbage flate body", frame: []byte{byte(CodecFlate), 0, 0, 0, 8, 0xde, 0xad, 0xbe, 0xef}, wantErr: ErrBadFrame},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Decode(tt.frame)
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("Decode err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

// TestRetiredCodecRefused pins the wire value 4, which a per-frame
// ZRL+DEFLATE codec used to carry: a frame naming it, built as that
// codec built it, is an unknown codec to every decoder, and the masked
// redo keeps its value 5.
func TestRetiredCodecRefused(t *testing.T) {
	block := make([]byte, 4096)
	copy(block[100:], "warehouse district customer order line stock item history")
	zrl, err := Encode(CodecZRL, block)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := appendDeflate(append([]byte{4}, zrl[1:headerLen]...), zrl[headerLen:])
	if err != nil {
		t.Fatal(err)
	}
	if Codec(4).Valid() || !CodecMask.Valid() || CodecMask != 5 {
		t.Fatalf("Codec(4).Valid() = %v, CodecMask = %d valid %v; want 4 invalid and the mask valid at 5", Codec(4).Valid(), CodecMask, CodecMask.Valid())
	}
	dst := make([]byte, len(block))
	for name, err := range map[string]error{
		"Decode":     func() error { _, err := Decode(frame); return err }(),
		"DecodeInto": DecodeInto(dst, frame),
		"XORInto":    XORInto(dst, frame),
		"FrameCodec": func() error { _, err := FrameCodec(frame); return err }(),
	} {
		if !errors.Is(err, ErrUnknownCode) {
			t.Errorf("%s of a codec-4 frame: err %v, want ErrUnknownCode", name, err)
		}
	}
}

func TestZRLDecodeRejectsOverruns(t *testing.T) {
	// Hand-built ZRL streams that overrun their declared block.
	tests := []struct {
		name   string
		stream []byte
	}{
		{name: "skip overrun", stream: []byte{200, 1}},       // skip=200 > block 8
		{name: "literal overrun", stream: []byte{0, 200, 1}}, // lit=200 > remaining
		{name: "literal past stream", stream: []byte{0, 4, 1, 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := zrlDecode(tt.stream, 8); err == nil {
				t.Error("zrlDecode: want error, got nil")
			}
		})
	}
}

// TestZRLEarlyEndingStream pins the trailing-zeros contract documented
// on zrlWalk: a stream may stop accounting for the block before
// decodedLen, and the unaccounted tail decodes as zeros. The encoder
// always emits an explicit trailing zero-run segment, but the decoder
// must accept the shorter form.
func TestZRLEarlyEndingStream(t *testing.T) {
	// skip=1, literal {0xAA, 0xBB}, then the stream just ends with five
	// block bytes unaccounted for.
	want := []byte{0, 0xAA, 0xBB, 0, 0, 0, 0, 0}
	got, err := zrlDecode([]byte{1, 2, 0xAA, 0xBB}, len(want))
	if err != nil {
		t.Fatalf("zrlDecode early-ending stream: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("zrlDecode = %v, want %v", got, want)
	}

	// The degenerate case: an empty stream decodes to an all-zero block.
	got, err = zrlDecode(nil, 16)
	if err != nil {
		t.Fatalf("zrlDecode empty stream: %v", err)
	}
	if !bytes.Equal(got, make([]byte, 16)) {
		t.Errorf("zrlDecode(nil, 16) = %v, want all zeros", got)
	}

	// The same stream must be accepted through the frame layer, and
	// agree with decoding the canonical (explicitly terminated) frame.
	frame := append([]byte{byte(CodecZRL), 0, 0, 0, byte(len(want))}, 1, 2, 0xAA, 0xBB)
	got, err = Decode(frame)
	if err != nil {
		t.Fatalf("Decode early-ending frame: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Decode = %v, want %v", got, want)
	}
	canon, err := Encode(CodecZRL, want)
	if err != nil {
		t.Fatal(err)
	}
	if len(canon) <= len(frame) {
		t.Errorf("canonical frame (%dB) not longer than early-ended frame (%dB)", len(canon), len(frame))
	}
	canonOut, err := Decode(canon)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonOut, got) {
		t.Error("early-ended and canonical frames decode differently")
	}
}

func TestDecodeFuzzedFramesNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		frame := make([]byte, rng.Intn(64))
		rng.Read(frame)
		// Must not panic; error or success both acceptable.
		out, err := Decode(frame)
		if err == nil && len(out) > MaxBlockLen {
			t.Fatal("decoded block exceeds MaxBlockLen")
		}
	}
}

func TestEncodeBest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	block := sparseBlock(rng, 8192, 0.10)

	if _, err := EncodeBest(block); err == nil {
		t.Error("EncodeBest with no candidates: want error")
	}

	best, err := EncodeBest(block, CodecRaw, CodecZRL, CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Encode(CodecRaw, block)
	if err != nil {
		t.Fatal(err)
	}
	if len(best) > len(raw) {
		t.Errorf("EncodeBest produced %d bytes, larger than raw %d", len(best), len(raw))
	}
	got, err := Decode(best)
	if err != nil || !bytes.Equal(got, block) {
		t.Errorf("EncodeBest frame did not round trip: %v", err)
	}
}

// TestEncodeBestRawFloor is the adversarial-density regression: the
// engine's default PRINS candidate set is {CodecZRL}, and ZRL expands
// on high-entropy parity (worst case every other byte non-zero costs
// two varints per literal). EncodeBest must fall back to raw framing so
// no write ever ships a frame larger than the block plus the header.
func TestEncodeBestRawFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const headerLen = 5

	blocks := map[string][]byte{
		"high-entropy": make([]byte, 8192),
		"alternating":  make([]byte, 8192),
	}
	rng.Read(blocks["high-entropy"])
	for i := range blocks["alternating"] {
		if i%2 == 0 {
			blocks["alternating"][i] = byte(1 + rng.Intn(255))
		}
	}

	for name, block := range blocks {
		for _, candidates := range [][]Codec{
			{CodecZRL},
			{CodecZRL, CodecFlate},
		} {
			frame, err := EncodeBest(block, candidates...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(frame) > len(block)+headerLen {
				t.Errorf("%s via %v: frame %d bytes exceeds block %d + header %d",
					name, candidates, len(frame), len(block), headerLen)
			}
			got, err := Decode(frame)
			if err != nil || !bytes.Equal(got, block) {
				t.Errorf("%s via %v: floor frame did not round trip: %v", name, candidates, err)
			}
		}
		// The adversarial inputs above must actually trigger the floor.
		frame, err := EncodeBest(block, CodecZRL)
		if err != nil {
			t.Fatal(err)
		}
		if c, _ := FrameCodec(frame); c != CodecRaw {
			t.Errorf("%s: expected raw floor to win over expanding ZRL, got %v", name, c)
		}
	}

	// Sparse parity must still pick the compact codec, not the floor.
	sparse := sparseBlock(rand.New(rand.NewSource(6)), 8192, 0.10)
	frame, err := EncodeBest(sparse, CodecZRL)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := FrameCodec(frame); c != CodecZRL {
		t.Errorf("sparse block: got codec %v, want zrl", c)
	}
}

// TestAppendEncode pins the append-style API the engine's frame pool
// relies on: results are identical to Encode, appended after existing
// contents, and a reused buffer with capacity triggers no growth.
func TestAppendEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	block := sparseBlock(rng, 4096, 0.10)

	for _, c := range allCodecs {
		want, err := Encode(c, block)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix")
		got, err := AppendEncode(append([]byte(nil), prefix...), c, block)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("%v: AppendEncode result differs from Encode", c)
		}
	}

	// best-of append matches EncodeBest.
	want, err := EncodeBest(block, CodecZRL, CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 3*len(block))
	got, err := AppendEncodeBest(buf, block, CodecZRL, CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("AppendEncodeBest differs from EncodeBest")
	}
}

func TestEncodeRejectsOversize(t *testing.T) {
	huge := make([]byte, MaxBlockLen+1)
	if _, err := Encode(CodecRaw, huge); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Encode oversize: err = %v, want ErrTooLarge", err)
	}
}

func TestCodecString(t *testing.T) {
	tests := []struct {
		c    Codec
		want string
	}{
		{CodecRaw, "raw"},
		{CodecZRL, "zrl"},
		{CodecFlate, "flate"},
		{CodecMask, "mask"},
		{Codec(4), "codec(4)"},
		{Codec(42), "codec(42)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("Codec(%d).String() = %q, want %q", tt.c, got, tt.want)
		}
	}
}

// zrlAppendBytewise is the byte-at-a-time ZRL encoder the word-wide
// zrlAppend replaced, kept as its oracle: the two must emit identical
// streams, gap-merge look-ahead included.
func zrlAppendBytewise(out, block []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte

	i := 0
	n := len(block)
	for i < n {
		// Count the zero run.
		start := i
		for i < n && block[i] == 0 {
			i++
		}
		skip := i - start

		// Count the literal run, absorbing zero gaps of 1-3 bytes that
		// a non-zero byte follows.
		litStart := i
		for i < n && block[i] != 0 {
			i++
			if i < n && block[i] == 0 {
				j := i
				for j < n && block[j] == 0 && j-i < 4 {
					j++
				}
				if j < n && block[j] != 0 && j-i < 4 {
					i = j
				}
			}
		}
		lit := block[litStart:i]

		out = append(out, tmp[:binary.PutUvarint(tmp[:], uint64(skip))]...)
		out = append(out, tmp[:binary.PutUvarint(tmp[:], uint64(len(lit)))]...)
		out = append(out, lit...)
	}
	if len(block) == 0 {
		out = append(out, 0, 0)
	}
	return out
}

// zrlDecode decodes a ZRL stream into a fresh block of decodedLen bytes.
func zrlDecode(stream []byte, decodedLen int) ([]byte, error) {
	out := make([]byte, decodedLen)
	if err := zrlWalk(out, stream, walkSet, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// checkZRLAgainstBytewise asserts the two properties the word-wide
// encoder must keep: the stream equals the bytewise oracle's, and it
// decodes back to the block.
func checkZRLAgainstBytewise(t *testing.T, block []byte, what string) {
	t.Helper()
	got := zrlAppend(nil, block, zrlMaxGap)
	if want := zrlAppendBytewise(nil, block); !bytes.Equal(got, want) {
		t.Fatalf("%s: stream differs from bytewise oracle\n got %x\nwant %x", what, got, want)
	}
	back, err := zrlDecode(got, len(block))
	if err != nil || !bytes.Equal(back, block) {
		t.Fatalf("%s: decode(encode) != block: %v", what, err)
	}
	checkExact(t, block, what)
}

// checkExact asserts EncodeExact's contract on block: the frame decodes
// back to it, and a ZRL one carries no zero byte in a literal (gathered
// over a stream-long buffer of 0xEE, only a zero literal byte shows as
// a zero).
func checkExact(t *testing.T, block []byte, what string) {
	t.Helper()
	frame, err := EncodeExact(block)
	if err != nil {
		t.Fatalf("%s: EncodeExact: %v", what, err)
	}
	if back, err := Decode(frame); err != nil || !bytes.Equal(back, block) {
		t.Fatalf("%s: decode(EncodeExact) != block: %v", what, err)
	}
	if len(frame) > headerLen+len(block) {
		t.Fatalf("%s: exact frame of %d bytes for a %d-byte block", what, len(frame), len(block))
	}
	if Codec(frame[0]) != CodecZRL {
		return
	}
	stream := frame[headerLen:]
	lits := bytes.Repeat([]byte{0xEE}, len(stream))
	if err := zrlWalk(block, stream, walkGather, lits); err != nil {
		t.Fatal(err)
	}
	if i := bytes.IndexByte(lits, 0); i >= 0 {
		t.Fatalf("%s: exact frame has a zero literal byte at stream offset %d", what, i)
	}
}

// TestZRLEncodeMatchesBytewise walks zero gaps of 1..5 bytes (3 merges,
// 4 does not) across every offset of blocks whose lengths sit on and
// around the word size: at the block start, at every offset mod 8,
// straddling word boundaries, and touching the end of the block, where
// a short gap is NOT absorbed. A second gap close behind the first
// covers back-to-back absorption, and the inverse pattern (short
// literals in a zero block) covers the zero-run scan.
func TestZRLEncodeMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{0, 1, 7, 8, 9, 511, 512, 8192} {
		full := make([]byte, n)
		for i := range full {
			full[i] = byte(1 + rng.Intn(255))
		}
		checkZRLAgainstBytewise(t, full, fmt.Sprintf("n=%d no zeros", n))
		checkZRLAgainstBytewise(t, make([]byte, n), fmt.Sprintf("n=%d all zeros", n))

		// Every offset for the small blocks; for 8 KiB the start, a
		// stretch across the middle and the last words.
		var offsets []int
		for off := 0; off < n; off++ {
			if n <= 512 || off < 24 || (off >= 4084 && off < 4108) || off >= n-24 {
				offsets = append(offsets, off)
			}
		}
		block := make([]byte, n)
		for _, off := range offsets {
			for gap := 1; gap <= 5 && off+gap <= n; gap++ {
				copy(block, full)
				clear(block[off : off+gap])
				checkZRLAgainstBytewise(t, block, fmt.Sprintf("n=%d gap=%d at %d", n, gap, off))

				// A second gap 1 or 2 literal bytes behind the first.
				for lit := 1; lit <= 2; lit++ {
					for gap2 := 1; gap2 <= 5 && off+gap+lit+gap2 <= n; gap2++ {
						copy(block, full)
						clear(block[off : off+gap])
						clear(block[off+gap+lit : off+gap+lit+gap2])
						checkZRLAgainstBytewise(t, block,
							fmt.Sprintf("n=%d gaps %d,%d at %d,%d", n, gap, gap2, off, off+gap+lit))
					}
				}

				// The inverse: a literal of gap bytes in a zero block.
				clear(block)
				copy(block[off:off+gap], full[off:])
				checkZRLAgainstBytewise(t, block, fmt.Sprintf("n=%d literal=%d at %d", n, gap, off))
			}
		}
	}

	// The shapes the replication path feeds it.
	for i := 0; i < 64; i++ {
		checkZRLAgainstBytewise(t, sparseBlock(rng, 8192, 0.10), "sparse 10%")
		checkZRLAgainstBytewise(t, randBlock(rng, 8192), "incompressible")
		checkZRLAgainstBytewise(t, randBlock(rng, 1+rng.Intn(100)), "short random")
	}
}

// TestZRLStrideEdges walks the edges of zrlAppend's word scan: over
// every block length 0-96 (so tails shorter than a word, and runs that
// end in each of twelve consecutive words), it
// places a zero gap of 1-4 bytes (3 merges, 4 does not) and a zero run
// of 5-33 bytes at every offset of a non-zero block, and a literal of
// 1-4 bytes, alone or with a 1-4-byte gap inside it, at every offset of
// a zero block.
func TestZRLStrideEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	full := make([]byte, 96)
	for i := range full {
		full[i] = byte(1 + rng.Intn(255))
	}
	for n := 0; n <= len(full); n++ {
		block := make([]byte, n)
		for off := 0; off < n; off++ {
			for _, run := range []int{1, 2, 3, 4, 5, 7, 8, 9, 24, 31, 32, 33} {
				end := min(off+run, n)
				copy(block, full)
				clear(block[off:end])
				checkZRLAgainstBytewise(t, block, fmt.Sprintf("n=%d zeros [%d,%d)", n, off, end))
			}
			for lit := 1; lit <= 4 && off+lit <= n; lit++ {
				clear(block)
				copy(block[off:off+lit], full)
				checkZRLAgainstBytewise(t, block, fmt.Sprintf("n=%d literal=%d at %d", n, lit, off))
				for gap := 1; gap <= 4 && off+lit+gap < n; gap++ {
					clear(block)
					copy(block[off:off+lit], full)
					block[off+lit+gap] = full[lit] // the literal resumes after the gap
					checkZRLAgainstBytewise(t, block, fmt.Sprintf("n=%d literal=%d gap=%d at %d", n, lit, gap, off))
				}
			}
		}
	}
}

// TestRawFrameInPlace: a raw header followed by the body is the frame
// AppendEncode builds for CodecRaw, and RawBody hands that body back
// without a copy; a frame in another codec, or one whose body is not
// its declared length, is refused.
func TestRawFrameInPlace(t *testing.T) {
	body := bytes.Repeat([]byte("spanned "), 100)
	frame := append(AppendRawHeader([]byte{0xee}, len(body)), body...)[1:]
	want, err := Encode(CodecRaw, body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("raw header + body = %x..., AppendEncode = %x...", frame[:8], want[:8])
	}
	got, ok := RawBody(frame)
	if !ok || !bytes.Equal(got, body) || &got[0] != &frame[headerLen] {
		t.Fatalf("RawBody = %d bytes, ok %v, in place %v", len(got), ok, ok && &got[0] == &frame[headerLen])
	}
	flate, err := Encode(CodecFlate, body)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"flate": flate, "short": frame[:len(frame)-1], "long": append(bytes.Clone(frame), 0), "header only": frame[:3],
	} {
		if _, ok := RawBody(bad); ok {
			t.Errorf("%s frame: RawBody accepted it", name)
		}
	}
}

// TestCompressible: the probe passes text and zeros, and fails random
// bytes, whatever the block size.
func TestCompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{512, 4096, 64 << 10} {
		random := make([]byte, n)
		rng.Read(random)
		text := bytes.Repeat([]byte("the parity of a block is mostly zeros\n"), n/38+1)[:n]
		if Compressible(random) {
			t.Errorf("%d random bytes pass the probe", n)
		}
		if !Compressible(text) || !Compressible(make([]byte, n)) {
			t.Errorf("%d bytes of text or zeros fail the probe", n)
		}
	}
}
