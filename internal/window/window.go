// Package window overlaps round trips: it runs calls off their issuer's
// goroutine, a bounded number at a time, and hands each finished call
// back to the issuer.
//
// It is the one shape of every overlapped call in the module — the
// primary's ship window (internal/core) and the resync's hash-fetch and
// repair-write windows (internal/resync). A Window belongs to one
// goroutine, its owner: only the owner calls its methods, and a value
// it issues is the call's to write from Go until the window hands it to
// the owner's settle function, on the owner's goroutine, with everything
// the call wrote visible. So the owner settles each completion — counts
// it, learns from it, reuses its buffers — without a lock, and nothing
// it reads moves behind its back.
package window

import "slices"

// Window bounds the calls in flight by count and by bytes. A call of
// size n has room when fewer than the count bound are in flight and the
// bytes in flight plus n stay within the byte bound, or when nothing is
// in flight: a lone call larger than the byte bound still goes, alone.
type Window[T any] struct {
	call, settle    func(T)
	calls, maxBytes int // maxBytes 0: bounded by count alone
	bytes           int
	fly             []flight[T] // issued and not yet settled, oldest first
	lastID          uint64
	// done carries the ids of finished calls. It has a slot for every
	// call that can be in flight, so a call never waits to report.
	done chan uint64
}

type flight[T any] struct {
	v    T
	size int
	id   uint64
}

// New returns a window that runs call on up to calls (at least one)
// values at a time, of up to bytes bytes in all (0: no byte bound), and
// hands each value back to settle once its call has finished.
func New[T any](calls, bytes int, call, settle func(T)) *Window[T] {
	return &Window[T]{call: call, settle: settle, calls: calls, maxBytes: bytes, done: make(chan uint64, calls)}
}

// Len returns how many calls are in flight: issued and not settled.
func (w *Window[T]) Len() int { return len(w.fly) }

// At returns the i-th call in flight, oldest first. The owner may read
// whatever of it the call does not write.
func (w *Window[T]) At(i int) T { return w.fly[i].v }

// Room reports whether a call of size bytes may be issued now.
func (w *Window[T]) Room(size int) bool {
	return len(w.fly) == 0 || len(w.fly) < w.calls && (w.maxBytes == 0 || w.bytes+size <= w.maxBytes)
}

// Go issues call(v), a call of size bytes, once there is room for it,
// settling finished calls, waiting for them, until there is. A window
// of one call runs it on the owner's goroutine: the owner could only
// wait for it before issuing another, so starting a goroutine per call
// would buy nothing. A call that panics there is taken out of flight
// before the panic goes on up the owner's stack, so that a Drain the
// owner deferred returns and the panic crashes the program, rather than
// the Drain waiting forever for a call that will never finish.
func (w *Window[T]) Go(v T, size int) {
	for !w.Room(size) {
		w.Wait()
	}
	w.lastID++
	w.fly = append(w.fly, flight[T]{v: v, size: size, id: w.lastID})
	w.bytes += size
	if w.calls > 1 {
		go w.run(v, w.lastID)
		return
	}
	finished := false
	defer func() {
		if !finished {
			w.fly = w.fly[:len(w.fly)-1]
			w.bytes -= size
		}
	}()
	w.run(v, w.lastID)
	finished = true
}

// run is one call; the call's goroutine reads only fields the owner
// never writes after New.
func (w *Window[T]) run(v T, id uint64) {
	w.call(v)
	w.done <- id
}

// Wait settles a finished call, in any order, waiting for one; with
// nothing in flight it returns at once.
func (w *Window[T]) Wait() { w.take(true) }

// Poll settles every call that has finished, without waiting.
func (w *Window[T]) Poll() {
	for w.take(false) {
	}
}

// Drain settles every call still in flight, waiting for each, so no
// call's goroutine outlives the owner's use of the window.
func (w *Window[T]) Drain() {
	for w.take(true) {
	}
}

// take settles the next call to finish, waiting for it if wait is set,
// and reports whether it settled one.
func (w *Window[T]) take(wait bool) bool {
	if len(w.fly) == 0 {
		return false
	}
	var id uint64
	select {
	case id = <-w.done:
	default:
		if !wait {
			return false
		}
		id = <-w.done
	}
	i := slices.IndexFunc(w.fly, func(f flight[T]) bool { return f.id == id })
	f := w.fly[i]
	w.bytes -= f.size
	w.fly = slices.Delete(w.fly, i, i+1)
	w.settle(f.v)
	return true
}
