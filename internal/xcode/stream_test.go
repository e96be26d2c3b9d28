package xcode

import (
	"bytes"
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
