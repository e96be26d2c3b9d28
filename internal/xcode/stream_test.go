package xcode

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
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
	// A segment larger than the window, of the corpus over and over with
	// bytes changed, so that matches reach every distance and the reps
	// of its last tokens reach past the window the next segment holds.
	var big []byte
	for len(big) < StreamWindow+200<<10 {
		big = append(big, corpus[rng.Intn(len(corpus)/2):][:len(corpus)/2]...)
		big[len(big)-1-rng.Intn(len(corpus)/2)] ^= 0x5A
	}
	var w StreamDeflater
	var r StreamInflater
	for k, n := range []int{700, 5 << 10, 20 << 10, 40 << 10, len(big), 3 << 10, 9 << 10, 1} {
		plain := big
		if n < len(corpus) {
			plain = corpus[rng.Intn(len(corpus)-n):][:n]
		}
		seg := streamSegment(t, &w, plain)
		got := make([]byte, n)
		if err := r.Inflate(got, seg); err != nil || !bytes.Equal(got, plain) {
			t.Fatalf("segment %d of %d bytes: %v, identical %v", k, n, err, bytes.Equal(got, plain))
		}
		if len(r.lz.hist) > StreamWindow {
			t.Fatalf("segment %d: history of %d bytes", k, len(r.lz.hist))
		}
	}
	// A fresh writer and a reset reader agree again.
	w.Reset()
	r.Reset()
	if err := r.Inflate(make([]byte, 4096), streamSegment(t, &w, corpus[:4096])); err != nil {
		t.Fatalf("after a reset at both ends: %v", err)
	}
}

// streamText returns n bytes of word salad from rng: text whose byte
// statistics a coder learns, and whose runs repeat only by chance.
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
	w.Start(nil)
	w.Write(plain)
	return w.End()
}

// handTok is one token of a hand-built segment: a literal (length 0), a
// match (rep -1), a rep (rep 0 to 3) or, with length 1 and rep 0, a
// short rep.
type handTok struct {
	lit          byte
	length, dist int
	rep          int
}

func lit(b byte) handTok           { return handTok{lit: b} }
func mat(length, dist int) handTok { return handTok{length: length, dist: dist, rep: -1} }
func repTok(r, length int) handTok { return handTok{length: length, rep: r} }
func shortRep() handTok            { return handTok{length: 1} }
func runTok(length int) []handTok  { return []handTok{lit('a'), mat(min(length, maxMatchLen), 1)} }
func reps(n, length int) []handTok {
	out := make([]handTok, n)
	for i := range out {
		out[i] = repTok(0, length)
	}
	return out
}

// handBody range-codes toks as they would follow r's history — its
// models, its stream position and the bytes it holds — whether or not
// they are valid there, and returns the body and the plaintext a reader
// would rebuild (a byte from beyond the history reads as 0).
func handBody(r *StreamInflater, toks ...handTok) (body, plain []byte) {
	m := r.lz.m
	if r.lz.hist == nil {
		m = freshModels
	}
	var rc rangeEncoder
	rc.reset(nil)
	for _, t := range toks {
		pos := len(plain)
		ps := int(r.lz.end+uint64(pos)) & (posStates - 1)
		if t.length == 0 {
			rc.bitMove(&m.isMatch[m.state][ps], 0, matchMoveBits)
			var match byte
			if m.state >= litStates {
				match = r.lz.back(plain, pos, m.reps[0])
			}
			rc.encodeLit(&m, t.lit, r.lz.back(plain, pos, 1), match)
			plain = append(plain, t.lit)
			continue
		}
		rc.bitMove(&m.isMatch[m.state][ps], 1, matchMoveBits)
		switch {
		case t.rep < 0:
			rc.bit(&m.isRep[m.state], 0)
			rc.encodeLen(&m.len, t.length, ps)
			rc.encodeDist(&m, t.dist, t.length)
			copy(m.reps[1:], m.reps[:numReps-1])
			m.reps[0] = t.dist
			m.afterMatch()
		case t.rep == 0 && t.length == 1:
			rc.bit(&m.isRep[m.state], 1)
			rc.bit(&m.isRepG0[m.state], 0)
			rc.bit(&m.isRep0Long[m.state][ps], 0)
			m.afterShortRep()
		default:
			rc.bit(&m.isRep[m.state], 1)
			rc.bit(&m.isRepG0[m.state], uint32(min(t.rep, 1)))
			switch t.rep {
			case 0:
				rc.bit(&m.isRep0Long[m.state][ps], 1)
			case 1:
				rc.bit(&m.isRepG1[m.state], 0)
			default:
				rc.bit(&m.isRepG1[m.state], 1)
				rc.bit(&m.isRepG2[m.state], uint32(t.rep-2))
			}
			m.useRep(t.rep)
			rc.encodeLen(&m.repLen, t.length, ps)
			m.afterRep()
		}
		for range t.length {
			plain = append(plain, r.lz.back(plain, len(plain), m.reps[0]))
		}
	}
	return rc.flush(), plain
}

// handSegment lays out a segment by hand: check, then body.
func handSegment(check uint32, body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, check), body...)
}

// checkedSegment is handBody's tokens as a segment with the check of the
// plaintext they rebuild, and that plaintext.
func checkedSegment(r *StreamInflater, toks ...handTok) (seg, plain []byte) {
	body, plain := handBody(r, toks...)
	return handSegment(crc32.Checksum(plain, castagnoli), body), plain
}

// sameHistory reports whether two readers hold the same history: ring,
// to the byte of their buffers, and models.
func sameHistory(a, b *StreamInflater) bool {
	return a.lz.held == b.lz.held && a.lz.end == b.lz.end && bytes.Equal(a.lz.hist, b.lz.hist) && a.lz.m == b.lz.m
}

// TestStreamLongRepeats: a segment that repeats what the stream carried
// far further back than DEFLATE's window costs a few bytes, not the
// repeat's own, and rebuilds exactly; so does one that repeats itself;
// and the rings both ends keep agree.
func TestStreamLongRepeats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var w StreamDeflater
	var r StreamInflater
	old := make([]byte, 8<<10)
	rng.Read(old) // nothing a coder could shrink
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
	if sizes[0] != len(old)+4 || sizes[2] > 32 || sizes[3] > 32 {
		t.Errorf("%d random bytes took %d bytes, their repeat %d KiB on %d, a run of a 3000-byte piece of them %d",
			len(old), sizes[0], len(filler)>>10, sizes[2], sizes[3])
	}
	w.Start(nil) // takes the last segment in
	if r.lz.held != len(old)*2+len(filler)+9000 || r.lz.held != w.lz.held || r.lz.end != w.lz.end || r.lz.m != w.lz.m {
		t.Errorf("histories: reader %d of %d, writer %d of %d, models equal %v", r.lz.held, r.lz.end, w.lz.held, w.lz.end, r.lz.m == w.lz.m)
	}
}

// TestStreamInflateStrict: hand-built segments a reader must refuse,
// each leaving ring and models as they were, and the runs, rep chains
// and repeats across the history's end it must take.
func TestStreamInflateStrict(t *testing.T) {
	var w StreamDeflater
	var r, ref StreamInflater
	primeStream(t, &w, &r, &ref)
	run := append(runTok(273), reps(3, 273)...)
	runSeg, runPlain := checkedSegment(&r, run...)
	crcRun := crc32.Checksum(runPlain, castagnoli)
	runBody := runSeg[4:]
	stored := []byte("a stored segment: its body is its plaintext")
	cases := map[string]struct {
		n   int
		seg []byte
	}{
		"run past dst":          {500, runSeg},
		"run short of dst":      {len(runPlain) + 1, runSeg},
		"distance past history": {40, func() []byte { s, _ := checkedSegment(&r, mat(40, r.lz.held+1)); return s }()},
		"wrong check":           {len(runPlain), handSegment(crcRun+1, runBody)},
		"no check":              {1, []byte{0, 0, 0}},
		"truncated tail":        {len(runPlain), handSegment(crcRun, runBody[:len(runBody)-1])},
		"trailing byte":         {len(runPlain), handSegment(crcRun, append(bytes.Clone(runBody), 0))},
		"no body":               {1, handSegment(crcRun, nil)},
		"body under tail":       {100, handSegment(crcRun, runBody[:coderTail-1])},
		"body past plain":       {len(stored) - 1, handSegment(crc32.Checksum(stored, castagnoli), stored)},
		"stored wrong check":    {len(stored), handSegment(crc32.Checksum(stored, castagnoli)+1, stored)},
		"past the ratio":        {maxCodedRatio * len(runBody), handSegment(crcRun, runBody)},
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
	// A fresh stream's reps are all 1, which its first byte cannot use.
	var fresh StreamInflater
	if seg, _ := checkedSegment(&fresh, append([]handTok{shortRep()}, runTok(273)...)...); !errors.Is(fresh.Inflate(make([]byte, 275), seg), ErrBadFrame) ||
		fresh.lz.held != 0 || fresh.lz.m != freshModels {
		t.Error("a rep past a fresh stream's history: not refused, or the history moved")
	}
	accept := func(name string, seg, want []byte) {
		t.Helper()
		got := make([]byte, len(want))
		if err := r.Inflate(got, seg); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: %v, got %q want %q", name, err, got, want)
		}
		if err := ref.Inflate(make([]byte, len(want)), seg); err != nil {
			t.Fatal(err)
		}
	}
	accept("run-length rep chain", runSeg, bytes.Repeat([]byte{'a'}, 1093))
	accept("stored", handSegment(crc32.Checksum(stored, castagnoli), stored), stored)
	// A match that starts in the history and runs on into the bytes it
	// rebuilt: the last 10 bytes held, then 30 of its own.
	want := make([]byte, 40)
	for i := range 10 {
		want[i] = r.lz.at(10 - i)
	}
	for i := 10; i < 40; i++ {
		want[i] = want[i-10]
	}
	seg, plain := checkedSegment(&r, mat(40, 10))
	if !bytes.Equal(plain, want) {
		t.Fatalf("hand builder rebuilt %q, want %q", plain, want)
	}
	accept("match across the history's end", seg, want)
	// Every rep, a short rep and a matched literal, in one chain.
	seg, plain = checkedSegment(&r, mat(12, 100), mat(9, 2000), mat(5, 30000), mat(7, 5), repTok(2, 6),
		repTok(3, 4), repTok(1, 8), shortRep(), lit('z'), repTok(0, 3))
	accept("rep chain", seg, plain)
}

// TestStreamLengthCodes: every length, from minMatchLen to maxMatchLen,
// decodes to itself, across each of the length coder's boundaries; an
// extension's bit count past lenExtMax, which no encoder writes, marks
// the body bad.
func TestStreamLengthCodes(t *testing.T) {
	var lengths []int
	for l := minMatchLen; l <= maxMatchLen; l++ {
		lengths = append(lengths, l)
	}
	enc, dec := freshModels.len, freshModels.len
	var rc rangeEncoder
	rc.reset(nil)
	for i, l := range lengths {
		rc.encodeLen(&enc, l, i&(posStates-1))
	}
	var rd rangeDecoder
	rd.reset(rc.flush())
	for i, l := range lengths {
		if got := rd.decodeLen(&dec, i&(posStates-1)); got != l || rd.bad {
			t.Fatalf("length %d decoded as %d, bad %v", l, got, rd.bad)
		}
	}
	if enc != dec {
		t.Error("the two ends' length models differ")
	}
	rc.reset(nil)
	lm := freshModels.len
	rc.bit(&lm.choice, 1)
	rc.bit(&lm.choice2, 1)
	rc.tree(lm.high[:], 1<<lenHighBits-1, lenHighBits)
	rc.tree(lm.ext[:], lenExtMax+1, lenExtBits)
	rc.direct(0, lenExtMax+1)
	lm = freshModels.len
	rd.reset(rc.flush())
	if rd.decodeLen(&lm, 0); !rd.bad {
		t.Errorf("an extension of %d bits decoded without marking the body bad", lenExtMax+1)
	}
}

// TestStreamStoredEscape: a segment its coder cannot shrink ships
// stored, its check and its plaintext, leaving the models as they were;
// a later segment still repeats it from the ring.
func TestStreamStoredEscape(t *testing.T) {
	var w StreamDeflater
	var r StreamInflater
	primeStream(t, &w, &r)
	noise := make([]byte, 3000)
	rand.New(rand.NewSource(4)).Read(noise)
	before := r.lz.m
	seg := streamSegment(t, &w, noise)
	if len(seg) != len(noise)+4 || !bytes.Equal(seg[4:], noise) {
		t.Fatalf("%d random bytes: a %d-byte segment, want them stored in %d", len(noise), len(seg), len(noise)+4)
	}
	if err := r.Inflate(make([]byte, len(noise)), seg); err != nil || r.lz.m != before {
		t.Fatalf("stored segment: %v, models unchanged %v", err, r.lz.m == before)
	}
	seg = streamSegment(t, &w, noise[1000:2500])
	if err := r.Inflate(make([]byte, 1500), seg); err != nil || len(seg) > 32 {
		t.Fatalf("a repeat of the stored bytes: %d bytes, %v", len(seg), err)
	}
}

// TestStreamDropRollsBack: a segment the writer drops leaves its models
// and ring as they were at Start, so the next segment rebuilds at a
// reader that never saw the dropped one.
func TestStreamDropRollsBack(t *testing.T) {
	var w StreamDeflater
	var r StreamInflater
	primeStream(t, &w, &r)
	w.Start(nil) // the last primed segment goes into the ring
	models, end, held := w.lz.m, w.lz.end, w.lz.held
	rng := rand.New(rand.NewSource(8))
	streamSegment(t, &w, streamText(rng, 5000))
	w.Drop()
	if w.lz.m != models || w.lz.end != end || w.lz.held != held {
		t.Fatal("a dropped segment moved the writer's history")
	}
	for i, b := range w.lz.tab {
		if ahead := (b - uint32(w.lz.end)) & slotPosMask; b != 0 && ahead < 5000 {
			t.Fatalf("index slot %d holds a position %d past the history's end", i, ahead)
		}
	}
	plain := streamText(rng, 5000)
	got := make([]byte, len(plain))
	if err := r.Inflate(got, streamSegment(t, &w, plain)); err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("the segment after a dropped one: %v", err)
	}
}

// TestStreamRatioBound: a segment of one repeated byte rebuilds more per
// body byte than DEFLATE's 1032 could, and no more than maxCodedRatio,
// the bound a reader refuses a declared length by before it allocates.
func TestStreamRatioBound(t *testing.T) {
	plain := make([]byte, 4<<20)
	var w StreamDeflater
	var r StreamInflater
	seg := streamSegment(t, &w, plain)
	body := len(seg) - 4
	ratio := float64(len(plain)) / float64(body)
	t.Logf("%d zero bytes in a %d-byte body: %.0f bytes per byte, bound %d", len(plain), body, ratio, maxCodedRatio)
	if ratio <= 1032 || ratio >= maxCodedRatio {
		t.Errorf("ratio %.0f, want past 1032 and under %d", ratio, maxCodedRatio)
	}
	if err := r.Inflate(make([]byte, len(plain)), seg); err != nil {
		t.Fatal(err)
	}
}

// TestStreamFirstSegmentMemory: a stream's first segment allocates its
// ring, the writer's index, and little more, at either end; the
// models live in the stream's own value (twice: live and snapshot).
func TestStreamFirstSegmentMemory(t *testing.T) {
	plain := streamText(rand.New(rand.NewSource(2)), 4<<10)
	models := int(unsafe.Sizeof(models{}))
	slack := 2*len(plain) + 4<<10
	allocated := func(f func()) int {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int(after.TotalAlloc - before.TotalAlloc)
	}
	var seg []byte
	sender := allocated(func() {
		w := new(StreamDeflater)
		seg = streamSegment(t, w, plain)
	})
	receiver := allocated(func() {
		r := new(StreamInflater)
		if err := r.Inflate(make([]byte, len(plain)), seg); err != nil {
			t.Error(err)
		}
	})
	sendBudget := StreamWindow + indexWays<<indexBits*4 + 2*models + slack
	recvBudget := StreamWindow + 2*models + slack
	t.Logf("first segment: sender %d bytes (budget %d), receiver %d (budget %d); models %d bytes", sender, sendBudget, receiver, recvBudget, models)
	if indexWays<<indexBits*4 > 1<<20 {
		t.Errorf("index of %d bytes, over 1 MiB", indexWays<<indexBits*4)
	}
	if sender > sendBudget || receiver > recvBudget {
		t.Errorf("first segment allocated %d at the sender, %d at the receiver; budgets %d and %d", sender, receiver, sendBudget, recvBudget)
	}
}
