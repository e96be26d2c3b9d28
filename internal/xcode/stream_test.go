package xcode

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestStreamPastWindow drives one stream through segments whose history
// outgrows StreamWindow, one segment larger than the window included,
// with plaintext that repeats bytes from far back: every segment
// inflates to exactly its plaintext against the reader's history, and
// the reader keeps no more than the window. (A reader that missed a
// segment may inflate the next one to the wrong bytes without noticing,
// which is why a squeezed list names the history it was built on.)
func TestStreamPastWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	corpus := make([]byte, 96<<10)
	const words = "warehouse district customer order line stock item history payment "
	for i := range corpus {
		corpus[i] = words[(i*7+i/300)%len(words)]
		if rng.Intn(16) == 0 {
			corpus[i] = byte(rng.Intn(256))
		}
	}
	var w StreamDeflater
	var r StreamInflater
	for k, n := range []int{700, 5 << 10, 20 << 10, 40 << 10, 3 << 10, 9 << 10, 1} {
		plain := corpus[rng.Intn(len(corpus)-n):][:n]
		if err := w.Start(nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Write(plain); err != nil {
			t.Fatal(err)
		}
		seg, err := w.End()
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, n)
		if err := r.Inflate(got, seg); err != nil || !bytes.Equal(got, plain) {
			t.Fatalf("segment %d of %d bytes: %v, identical %v", k, n, err, bytes.Equal(got, plain))
		}
		if len(r.hist) > StreamWindow {
			t.Fatalf("segment %d: history of %d bytes", k, len(r.hist))
		}
	}
	// A fresh writer and a reset reader agree again.
	w.Reset()
	r.Reset()
	if err := w.Start(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(corpus[:4096]); err != nil {
		t.Fatal(err)
	}
	seg, err := w.End()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Inflate(make([]byte, 4096), seg); err != nil {
		t.Fatalf("after a reset at both ends: %v", err)
	}
}

// streamText returns n bytes of word salad from rng: text a stream's
// DEFLATE finds structure in, and whose runs repeat only by chance.
func streamText(rng *rand.Rand, n int) []byte {
	words := []string{"warehouse ", "district ", "customer ", "order ", "line ", "stock ", "item ", "history ", "payment ", "new "}
	var b []byte
	for len(b) < n {
		b = append(b, words[rng.Intn(len(words))]...)
		if rng.Intn(4) == 0 {
			b = append(b, byte('0'+rng.Intn(10)), byte('0'+rng.Intn(10)))
		}
	}
	return b[:n]
}

// primeStream pushes three segments through w and every reader: 96 KiB
// of text whose last segment repeats the first from more than DEFLATE's
// window back. Deterministic, so a Reset writer and Reset readers primed
// again hold the same histories.
func primeStream(tb testing.TB, w *StreamDeflater, readers ...*StreamInflater) {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	first := streamText(rng, 40<<10)
	plains := [][]byte{first, streamText(rng, 40<<10), append(streamText(rng, 4<<10), first[5000:17000]...)}
	for _, plain := range plains {
		seg := streamSegment(tb, w, plain)
		for _, r := range readers {
			if err := r.Inflate(make([]byte, len(plain)), seg); err != nil {
				tb.Fatalf("priming: %v", err)
			}
		}
	}
}

// streamSegment writes plain to w as one segment.
func streamSegment(tb testing.TB, w *StreamDeflater, plain []byte) []byte {
	tb.Helper()
	if err := w.Start(nil); err != nil {
		tb.Fatal(err)
	}
	if err := w.Write(plain); err != nil {
		tb.Fatal(err)
	}
	seg, err := w.End()
	if err != nil {
		tb.Fatal(err)
	}
	return seg
}

// handSegment lays out a segment by hand: check, then list (the repeat
// count, the triples and the literals), deflated to a sync flush.
func handSegment(tb testing.TB, check uint32, list []byte) []byte {
	return deflateSync(tb, append(binary.BigEndian.AppendUint32(nil, check), list...))
}

// deflateSync deflates p to a sync flush. It refers to no DEFLATE
// history, so any reader takes it.
func deflateSync(tb testing.TB, p []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.Write(p); err != nil {
		tb.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// triples lays out a match list's count and triples.
func triples(t ...int) []byte {
	b := binary.AppendUvarint(nil, uint64(len(t)/3))
	for _, v := range t {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return b
}

// sameHistory reports whether two readers that took in the same
// segments since their rings were allocated hold the same histories, to
// the byte of their buffers.
func sameHistory(a, b *StreamInflater) bool {
	return a.held == b.held && a.end == b.end && bytes.Equal(a.hist, b.hist) && bytes.Equal(a.dict, b.dict)
}

// TestStreamLongRepeats: a segment that repeats what the stream carried
// further back than DEFLATE's window costs a few bytes, not the
// repeat's DEFLATE, and rebuilds exactly; so does one that repeats
// itself; and the histories both ends keep agree.
func TestStreamLongRepeats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var w StreamDeflater
	var r StreamInflater
	old := make([]byte, 8<<10)
	rng.Read(old) // nothing DEFLATE could shrink
	filler := streamText(rng, 600<<10)
	var sizes []int
	for _, plain := range [][]byte{old, filler, old, bytes.Repeat(old[:3000], 3)} {
		seg := streamSegment(t, &w, plain)
		got := make([]byte, len(plain))
		if err := r.Inflate(got, seg); err != nil || !bytes.Equal(got, plain) {
			t.Fatalf("%d-byte segment: %v, identical %v", len(plain), err, bytes.Equal(got, plain))
		}
		sizes = append(sizes, len(seg))
	}
	t.Logf("segments of %v bytes", sizes)
	if sizes[0] < len(old) || sizes[2] > 32 || sizes[3] > 32 {
		t.Errorf("%d random bytes took %d bytes, their repeat %d KiB on %d, a run of a 3000-byte piece of them %d",
			len(old), sizes[0], len(filler)>>10, sizes[2], sizes[3])
	}
	if r.held != len(old)*2+len(filler)+9000 || r.held != w.m.held || r.end != w.m.end {
		t.Errorf("histories: reader %d of %d, writer %d of %d", r.held, r.end, w.m.held, w.m.end)
	}
}

// TestStreamInflateStrict: hand-built segments a reader must refuse,
// each leaving both histories as they were, and the run-length repeat
// it must take.
func TestStreamInflateStrict(t *testing.T) {
	var w StreamDeflater
	var r, ref StreamInflater
	primeStream(t, &w, &r, &ref)
	run := bytes.Repeat([]byte{'a'}, 1001)
	crcRun := crc32.Checksum(run, castagnoli)
	cases := map[string]struct {
		n   int
		seg []byte
	}{
		"run past dst":          {500, handSegment(t, crcRun, append(triples(1, 1000, 1), 'a'))},
		"run of distance 0":     {1001, handSegment(t, crcRun, append(triples(1, 1000, 0), 'a'))},
		"repeat under 24 bytes": {1001, handSegment(t, crcRun, append(triples(1, 23, 1), bytes.Repeat([]byte{'a'}, 977)...))},
		"past the history":      {1001, handSegment(t, crcRun, triples(0, 1001, r.held+1))},
		"literal short":         {1002, handSegment(t, crcRun, append(triples(1, 1000, 1), 'a'))},
		"literal over":          {1001, handSegment(t, crcRun, append(triples(1, 1000, 1), 'a', 'a'))},
		"wrong check":           {1001, handSegment(t, crcRun+1, append(triples(1, 1000, 1), 'a'))},
		"no check":              {1, deflateSync(t, []byte{0, 'a'})},
		"gap past dst":          {1001, handSegment(t, crcRun, append(triples(2000, 24, 1), 'a'))},
		"too many repeats":      {48, handSegment(t, 0, triples(0, 24, 1, 0, 24, 1, 0, 24, 1))},
		"final block":           {1001, func() []byte { s := handSegment(t, crcRun, append(triples(1, 1000, 1), 'a')); s[0] |= 1; return s }()},
	}
	for name, c := range cases {
		dst := make([]byte, c.n)
		if err := r.Inflate(dst, c.seg); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: %v, want ErrBadFrame", name, err)
		}
		if !sameHistory(&r, &ref) {
			t.Fatalf("%s: a refused segment changed the history", name)
		}
	}
	got := make([]byte, len(run))
	if err := r.Inflate(got, handSegment(t, crcRun, append(triples(1, 1000, 1), 'a'))); err != nil || !bytes.Equal(got, run) {
		t.Fatalf("run-length repeat: %v", err)
	}
	// A repeat that starts in the history and runs on into the bytes it
	// rebuilt: the last 10 bytes held, then 30 of its own.
	want := make([]byte, 40)
	for i := range 10 {
		want[i] = r.at(10 - i)
	}
	for i := 10; i < 40; i++ {
		want[i] = want[i-10]
	}
	got = make([]byte, 40)
	if err := r.Inflate(got, handSegment(t, crc32.Checksum(want, castagnoli), triples(0, 40, 10))); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("repeat across the history's end: %v, got %q want %q", err, got, want)
	}
}
