package window

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, read off its stack header
// ("goroutine 17 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// gated is a call that blocks until its gate opens and counts how many
// calls are inside at once.
type gated struct {
	inside, peak atomic.Int32
}

func (g *gated) call(gate chan struct{}) {
	n := g.inside.Add(1)
	for old := g.peak.Load(); n > old && !g.peak.CompareAndSwap(old, n); old = g.peak.Load() {
	}
	<-gate
	g.inside.Add(-1)
}

// eventually polls cond until it holds, failing after a generous
// deadline.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

func TestWindowCountBound(t *testing.T) {
	var g gated
	gate := make(chan struct{})
	settled := 0
	w := New(3, 0, g.call, func(chan struct{}) { settled++ })
	issued := 0
	for issued < 10 && w.Room(0) {
		w.Go(gate, 0)
		issued++
	}
	if issued != 3 || w.Len() != 3 {
		t.Fatalf("issued %d, %d in flight; want the count bound, 3", issued, w.Len())
	}
	eventually(t, "all three calls inside", func() bool { return g.inside.Load() == 3 })
	if w.Poll(); settled != 0 {
		t.Error("Poll settled a call still blocked")
	}
	close(gate)
	if w.Wait(); settled != 1 || !w.Room(0) {
		t.Errorf("a finished call did not make room (%d settled, %d in flight)", settled, w.Len())
	}
	w.Drain()
	if got := g.peak.Load(); got != 3 {
		t.Errorf("peak %d calls inside, want 3", got)
	}
	if w.Len() != 0 || settled != 3 {
		t.Errorf("%d calls in flight, %d settled after Drain", w.Len(), settled)
	}
}

func TestWindowByteBound(t *testing.T) {
	gate := make(chan struct{})
	w := New(10, 100, func(gate chan struct{}) { <-gate }, func(chan struct{}) {})
	w.Go(gate, 40)
	w.Go(gate, 40)
	if w.Room(40) {
		t.Error("room for 40 bytes beside 80 under a 100-byte bound")
	}
	if !w.Room(20) {
		t.Error("no room for 20 bytes beside 80 under a 100-byte bound")
	}
	close(gate)
	w.Drain()

	// A lone call larger than the bound goes, and goes alone.
	gate = make(chan struct{})
	if !w.Room(500) {
		t.Fatal("an empty window has no room for an oversize call")
	}
	w.Go(gate, 500)
	if w.Room(0) || w.Room(1) {
		t.Error("room beside an oversize call")
	}
	close(gate)
	if w.Wait(); !w.Room(100) {
		t.Error("the oversize call's bytes were not given back")
	}
}

// TestWindowCompletionsOnIssuer: calls run off the owner's goroutine
// (except in a window of one, which runs them inline), and every
// completion — with what the call wrote into it — is settled on the
// owner's. settle writes a plain map: settling on another goroutine is
// a race the detector reports.
func TestWindowCompletionsOnIssuer(t *testing.T) {
	type job struct {
		n      int
		ranOn  uint64
		square int
	}
	owner := goid()
	for _, calls := range []int{1, 4} {
		settled := map[int]int{}
		w := New(calls, 0, func(j *job) { j.ranOn, j.square = goid(), j.n*j.n }, func(j *job) {
			if id := goid(); id != owner {
				t.Errorf("call %d settled on goroutine %d, owner is %d", j.n, id, owner)
			}
			if inline := j.ranOn == owner; inline != (calls == 1) {
				t.Errorf("window of %d: call %d ran on the owner's goroutine: %v", calls, j.n, inline)
			}
			settled[j.n] = j.square
		})
		for n := 0; n < 50; n++ {
			w.Go(&job{n: n}, 0) // settles calls until there is room
		}
		w.Drain()
		for n := 0; n < 50; n++ {
			if settled[n] != n*n {
				t.Fatalf("window of %d: call %d settled as %d", calls, n, settled[n])
			}
		}
	}
}

// TestWindowStopAtFirstError: the owner stops issuing at the first
// failure it settles and drains the rest; every call issued is settled
// exactly once.
func TestWindowStopAtFirstError(t *testing.T) {
	type job struct {
		n   int
		err error
	}
	errBoom := errors.New("boom")
	back := map[int]int{}
	var first error
	w := New(4, 0, func(j *job) {
		if j.n == 10 {
			j.err = errBoom
		}
	}, func(j *job) {
		back[j.n]++
		if first == nil {
			first = j.err
		}
	})
	issued := 0
	for n := 0; n < 1000 && first == nil; n++ {
		for first == nil && !w.Room(0) {
			w.Wait()
		}
		if first == nil {
			w.Go(&job{n: n}, 0)
			issued++
		}
	}
	w.Drain()
	if !errors.Is(first, errBoom) {
		t.Fatalf("first error %v, want the failing call's", first)
	}
	if issued >= 1000 || issued < 11 {
		t.Errorf("issued %d calls; want issuing to stop shortly after call 10 failed", issued)
	}
	if len(back) != issued {
		t.Errorf("%d of %d calls came back", len(back), issued)
	}
	for n, k := range back {
		if k != 1 {
			t.Errorf("call %d came back %d times", n, k)
		}
	}
}

// TestWindowSettleOrder: calls are settled in the order they finish,
// not the order they were issued, and all of them once, whichever the
// owner waits for: an owner that consumes in issue order keeps its own
// list and waits until the oldest entry is settled.
func TestWindowSettleOrder(t *testing.T) {
	type job struct {
		n       int
		gate    chan struct{}
		settled bool
	}
	var order []int
	w := New(5, 0, func(j *job) { <-j.gate }, func(j *job) {
		j.settled = true
		order = append(order, j.n)
	})
	issued := make([]*job, 5)
	for i := range issued {
		issued[i] = &job{n: i, gate: make(chan struct{})}
		w.Go(issued[i], 0)
	}
	for i := len(issued) - 1; i >= 0; i-- {
		close(issued[i].gate)
		eventually(t, "the call to report", func() bool { return len(w.done) == len(issued)-i })
	}
	for !issued[0].settled {
		w.Wait()
	}
	if want := []int{4, 3, 2, 1, 0}; !slices.Equal(order, want) || w.Len() != 0 {
		t.Errorf("waiting for the oldest settled %v with %d left in flight, want %v and none", order, w.Len(), want)
	}
}

// TestWindowNoGoroutineAfterDrain: once Drain returns, every call's
// goroutine is gone (or about to be: it has sent its report, its last
// act).
func TestWindowNoGoroutineAfterDrain(t *testing.T) {
	// Goroutines of earlier tests may still be exiting: count from a
	// level that has held for a thousand yields.
	base := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n != base {
			base, i = n, 0
		}
	}
	gate := make(chan struct{})
	w := New(8, 0, func(gate chan struct{}) { <-gate }, func(chan struct{}) {})
	for i := 0; i < 8; i++ {
		w.Go(gate, 0)
	}
	if got := runtime.NumGoroutine() - base; got != 8 {
		t.Errorf("a full window of 8 runs %d goroutines", got)
	}
	close(gate)
	w.Drain()
	eventually(t, "the calls' goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
}

// TestWindowInlinePanicLeavesDrain: a window of one runs its call on the
// owner's goroutine, and a call that panics there is out of flight by
// the time the panic reaches the owner's deferred Drain, which returns.
func TestWindowInlinePanicLeavesDrain(t *testing.T) {
	w := New(1, 0, func(int) { panic("call panicked") }, func(int) { t.Error("a panicked call was settled") })
	func() {
		defer func() {
			if r := recover(); r != "call panicked" {
				t.Errorf("recovered %v", r)
			}
		}()
		defer w.Drain()
		w.Go(1, 10)
	}()
	if w.Len() != 0 || !w.Room(1<<20) {
		t.Errorf("%d calls in flight after the panic", w.Len())
	}
}
