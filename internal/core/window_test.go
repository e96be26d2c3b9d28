package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prins/internal/block"
	"prins/internal/faults"
	"prins/internal/iscsi"
	"prins/internal/journal"
)

// The replica's sliding seq window and the primary's ship window: what
// lets a synchronous pipe keep several pushes of one stream in flight.

// seqModel is the specification seqWindow is checked against: the set
// of marked seqs and their maximum.
type seqModel struct {
	max    uint64
	marked map[uint64]bool
}

func (m *seqModel) mark(seq uint64) {
	if seq == 0 {
		return
	}
	m.marked[seq] = true
	if seq > m.max {
		m.max = seq
	}
}

func (m *seqModel) seen(seq uint64) bool {
	if seq == 0 || seq > m.max {
		return false
	}
	return m.max-seq >= seqWindowSize || m.marked[seq]
}

// TestSeqWindowEdges slides a window by every distance where the
// bitmap's word and wrap arithmetic could go wrong and compares every
// seq around it with the model.
func TestSeqWindowEdges(t *testing.T) {
	const base = 5 * seqWindowSize
	for _, slide := range []uint64{1, 63, 64, 65, seqWindowSize - 1, seqWindowSize, seqWindowSize + 1, 3 * seqWindowSize} {
		var w seqWindow
		m := seqModel{marked: map[uint64]bool{}}
		for _, back := range []uint64{0, 1, 3, 63, 64, 65, 500, seqWindowSize - 2, seqWindowSize - 1} {
			w.mark(base - back)
			m.mark(base - back)
		}
		w.mark(base + slide)
		m.mark(base + slide)
		w.mark(0) // the unsequenced push leaves no trace
		if w.max != m.max {
			t.Fatalf("slide %d: max = %d, want %d", slide, w.max, m.max)
		}
		for seq := uint64(base - 2*seqWindowSize); seq <= base+slide+2; seq++ {
			if got, want := w.seen(seq), m.seen(seq); got != want {
				t.Fatalf("slide %d: seen(%d) = %v, want %v (max %d)", slide, seq, got, want, w.max)
			}
		}
		if w.seen(0) {
			t.Fatalf("slide %d: seq 0 must never dedupe", slide)
		}
		// The boundary itself: exactly a window below max is out and
		// therefore a duplicate; one above it is in, and unmarked.
		if !w.seen(w.max - seqWindowSize) {
			t.Errorf("slide %d: seq max-window must read as a duplicate", slide)
		}
		if in := w.max - seqWindowSize + 1; w.seen(in) != m.marked[in] {
			t.Errorf("slide %d: seq max-window+1 is inside the window: seen must follow its bit", slide)
		}
		// Marking below the window changes nothing.
		before := w
		w.mark(w.max - seqWindowSize)
		if w != before {
			t.Errorf("slide %d: marking an aged-out seq touched the window", slide)
		}
	}
}

// windowRig is a journaled replica over a store of random blocks plus
// what a primary would ship to move chosen blocks to fresh content.
type windowRig struct {
	rep   *ReplicaEngine
	store block.Store
	rng   *rand.Rand
	bs    int
}

func newWindowRig(t *testing.T, seed int64, bs int, nb uint64, store func(block.Store) block.Store) *windowRig {
	t.Helper()
	mem, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, bs)
	for lba := uint64(0); lba < nb; lba++ {
		rng.Read(buf)
		if err := mem.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
	}
	var s block.Store = mem
	if store != nil {
		s = store(mem)
	}
	rep, err := NewReplicaEngineJournaled(s, journal.New(&journal.Mem{}))
	if err != nil {
		t.Fatal(err)
	}
	return &windowRig{rep: rep, store: mem, rng: rng, bs: bs}
}

// entry builds the PRINS entry that takes lba from its current content
// to fresh random content.
func (r *windowRig) entry(t *testing.T, seq, lba uint64) iscsi.BatchEntry {
	t.Helper()
	old := make([]byte, r.bs)
	if err := r.store.ReadBlock(lba, old); err != nil {
		t.Fatal(err)
	}
	fresh := make([]byte, r.bs)
	r.rng.Read(fresh)
	frame, hash := prinsFrame(t, old, fresh)
	return iscsi.BatchEntry{Seq: seq, LBA: lba, Hash: hash, Frame: frame}
}

func (r *windowRig) counts() (writes, dups int64) {
	s := r.rep.Traffic().Snapshot()
	return s.ReplicaWrites, s.Duplicates
}

func mustOK(t *testing.T, what string, statuses []iscsi.Status) {
	t.Helper()
	for k, st := range statuses {
		if st != iscsi.StatusOK {
			t.Fatalf("%s: entry %d status %v, want OK", what, k, st)
		}
	}
}

// TestSeqWindowCases pins the window's behaviour where it meets the
// rest of the apply path.
func TestSeqWindowCases(t *testing.T) {
	t.Run("below-max-unmarked-is-new", func(t *testing.T) {
		r := newWindowRig(t, 1, 512, 8, nil)
		hi, lo := r.entry(t, 9, 1), r.entry(t, 4, 2)
		for _, e := range []iscsi.BatchEntry{hi, lo, lo, hi} {
			if err := r.rep.ApplyStream(ModePRINS, 0, 0, e.Seq, e.LBA, e.Hash, e.Frame); err != nil {
				t.Fatalf("seq %d: %v", e.Seq, err)
			}
		}
		if w, d := r.counts(); w != 2 || d != 2 {
			t.Errorf("writes = %d, duplicates = %d, want 2 and 2", w, d)
		}
		if got := r.rep.LastSeq(); got != 9 {
			t.Errorf("LastSeq = %d, want the highest seq 9", got)
		}
	})

	t.Run("in-push-equal-seq", func(t *testing.T) {
		r := newWindowRig(t, 2, 512, 8, nil)
		e := r.entry(t, 3, 1)
		mustOK(t, "push", r.rep.HandleReplicaBatchStream(uint8(ModePRINS), 0, 0, []iscsi.BatchEntry{e, e}))
		if w, d := r.counts(); w != 1 || d != 1 {
			t.Errorf("writes = %d, duplicates = %d, want 1 and 1", w, d)
		}
	})

	t.Run("seq-zero-never-dedupes", func(t *testing.T) {
		r := newWindowRig(t, 3, 512, 8, nil)
		if e := r.entry(t, 2*seqWindowSize, 1); r.rep.ApplyStream(ModePRINS, 0, 0, e.Seq, e.LBA, e.Hash, e.Frame) != nil {
			t.Fatal("sequenced apply failed")
		}
		for _, lba := range []uint64{2, 3} {
			e := r.entry(t, 0, lba)
			if err := r.rep.ApplyStream(ModePRINS, 0, 0, 0, e.LBA, e.Hash, e.Frame); err != nil {
				t.Fatal(err)
			}
		}
		if w, d := r.counts(); w != 3 || d != 0 {
			t.Errorf("writes = %d, duplicates = %d, want 3 and 0", w, d)
		}
		if got := r.rep.LastSeq(); got != 2*seqWindowSize {
			t.Errorf("LastSeq = %d: an unsequenced push moved it", got)
		}
	})

	t.Run("journal-replay-marks-below-max", func(t *testing.T) {
		// Seq 10 lands; seq 7 (another push of the same stream, still in
		// flight) tears mid-write and stays journaled; the next apply
		// replays it. Its redelivery must then dedupe, not XOR twice.
		r := newWindowRig(t, 4, 512, 8, func(s block.Store) block.Store {
			return faults.NewPlan(1).WrapStore(s, faults.StoreFaults{TornWriteAt: 2})
		})
		e10, e7, e11 := r.entry(t, 10, 1), r.entry(t, 7, 2), r.entry(t, 11, 3)
		if err := r.rep.ApplyStream(ModePRINS, 0, 0, 10, e10.LBA, e10.Hash, e10.Frame); err != nil {
			t.Fatal(err)
		}
		if err := r.rep.ApplyStream(ModePRINS, 0, 0, 7, e7.LBA, e7.Hash, e7.Frame); !errors.Is(err, faults.ErrTornWrite) {
			t.Fatalf("torn apply err = %v", err)
		}
		if err := r.rep.ApplyStream(ModePRINS, 0, 0, 11, e11.LBA, e11.Hash, e11.Frame); err != nil {
			t.Fatal(err)
		}
		if err := r.rep.ApplyStream(ModePRINS, 0, 0, 7, e7.LBA, e7.Hash, e7.Frame); err != nil {
			t.Fatalf("redelivery of the replayed seq: %v", err)
		}
		if w, d := r.counts(); w != 3 || d != 1 {
			t.Errorf("writes = %d, duplicates = %d, want 3 and 1", w, d)
		}
		got := make([]byte, r.bs)
		if err := r.store.ReadBlock(e7.LBA, got); err != nil {
			t.Fatal(err)
		}
		if iscsi.HashBlock(got) != e7.Hash {
			t.Error("replayed block does not hold the journaled content")
		}
	})

	t.Run("refmiss-suffix-after-higher-seq", func(t *testing.T) {
		// A by-ref push is refused from its first unresolvable
		// reference on; before the primary re-ships that suffix by
		// value, a later run of the same stream lands. The repair still
		// carries seqs nobody applied, so it must apply.
		r := newWindowRig(t, 5, 512, 8, nil)
		head, ref, tail := r.entry(t, 1, 1), r.entry(t, 2, 2), r.entry(t, 3, 3)
		asRef := ref
		asRef.Frame = nil
		st := r.rep.HandleReplicaBatchStream(uint8(ModePRINS), 0, 0, []iscsi.BatchEntry{head, asRef, tail})
		if st[0] != iscsi.StatusOK || st[1] != iscsi.StatusRefMiss || st[2] != iscsi.StatusRefMiss {
			t.Fatalf("by-ref push statuses = %v, want OK, REF-MISS, REF-MISS", st)
		}
		other := r.entry(t, 4, 4)
		if err := r.rep.ApplyStream(ModePRINS, 0, 0, 4, other.LBA, other.Hash, other.Frame); err != nil {
			t.Fatal(err)
		}
		mustOK(t, "re-shipped suffix", r.rep.HandleReplicaBatchStream(uint8(ModePRINS), 0, 0, []iscsi.BatchEntry{ref, tail}))
		if w, d := r.counts(); w != 4 || d != 0 {
			t.Errorf("writes = %d, duplicates = %d, want 4 and 0 (the repair was deduped away)", w, d)
		}
		got := make([]byte, r.bs)
		for _, e := range []iscsi.BatchEntry{ref, tail} {
			if err := r.store.ReadBlock(e.LBA, got); err != nil {
				t.Fatal(err)
			}
			if iscsi.HashBlock(got) != e.Hash {
				t.Errorf("lba %d does not hold the re-shipped content", e.LBA)
			}
		}
	})
}

// TestSeqWindowAnyOrder is the window's property: whatever order the
// pushes a primary may have in flight together arrive in, and however
// often each is redelivered, every seq is applied exactly once and the
// image is the one in-order delivery leaves. Schedules are drawn the
// way the ship window produces them — pushes are admitted in seq order,
// only while every seq in flight stays within half the replica's
// window, and every copy of a push is delivered between its admission
// and its landing — with seq gaps (frames dropped while degraded) wide
// enough that the span rule, not the in-flight count, is what limits
// the schedule.
func TestSeqWindowAnyOrder(t *testing.T) {
	const (
		bs     = 64
		pushes = 120
	)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Lay out the pushes: one to four entries each, distinct LBAs.
		sizes := make([]int, pushes)
		total := 0
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(4)
			total += sizes[i]
		}
		got := newWindowRig(t, seed, bs, uint64(total), nil)
		want := newWindowRig(t, seed, bs, uint64(total), nil)
		plan := make([][]iscsi.BatchEntry, pushes)
		seq, lba := uint64(0), uint64(0)
		for i, n := range sizes {
			seq += uint64(rng.Intn(90)) // a gap ahead of the push
			for j := 0; j < n; j++ {
				seq++
				plan[i] = append(plan[i], got.entry(t, seq, lba))
				lba++
			}
		}
		maxSeq := seq

		// In order, once each: the reference image.
		for _, p := range plan {
			mustOK(t, "in-order push", want.rep.ApplyBatchStream(ModePRINS, 0, 0, p))
		}

		type flight struct {
			entries []iscsi.BatchEntry
			copies  int
		}
		var fly []*flight
		next, deliveries, spanHeld := 0, int64(0), 0
		for next < pushes || len(fly) > 0 {
			admit := next < pushes && len(fly) < shipWindow && (len(fly) == 0 || rng.Intn(2) == 0)
			if admit && len(fly) > 0 {
				oldest := fly[0].entries[0].Seq
				for _, f := range fly {
					oldest = min(oldest, f.entries[0].Seq)
				}
				last := plan[next][len(plan[next])-1].Seq
				if last-oldest >= seqWindowSize/2 {
					admit = false
					spanHeld++
				}
			}
			if admit {
				fly = append(fly, &flight{entries: plan[next], copies: 1 + rng.Intn(3)})
				next++
				continue
			}
			i := rng.Intn(len(fly))
			f := fly[i]
			mustOK(t, "push", got.rep.ApplyBatchStream(ModePRINS, 0, 0, f.entries))
			deliveries += int64(len(f.entries))
			if f.copies--; f.copies == 0 {
				fly[i] = fly[len(fly)-1]
				fly = fly[:len(fly)-1]
			}
		}

		eq, err := block.Equal(got.store, want.store)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("seed %d: image differs from in-order delivery", seed)
		}
		w, d := got.counts()
		if w != int64(total) || d != deliveries-int64(total) {
			t.Errorf("seed %d: writes = %d, duplicates = %d; want %d and %d (every seq applied exactly once)",
				seed, w, d, total, deliveries-int64(total))
		}
		if last := got.rep.StreamLastSeq(0, 0); last != maxSeq {
			t.Errorf("seed %d: StreamLastSeq = %d, want %d", seed, last, maxSeq)
		}
		if spanHeld == 0 {
			t.Errorf("seed %d: the span rule never held a push back; the schedule does not reach the window", seed)
		}
	}
}

// meetClient holds every push until two are inside it at once.
type meetClient struct {
	inner  ReplicaClient
	ctx    context.Context
	inside atomic.Int32
	both   chan struct{}
}

func (c *meetClient) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	if c.inside.Add(1) == 2 {
		close(c.both)
	}
	select {
	case <-c.both:
	case <-c.ctx.Done():
		return errors.New("meetClient: a second push never came while the first was in flight")
	}
	return c.inner.ReplicaWriteStream(mode, shard, vol, seq, lba, hash, frame)
}

// TestShipWindowOverlap: two synchronous writers on one shard have
// their pushes in flight together. With one push outstanding per pipe
// the first would wait for a second that cannot start.
func TestShipWindowOverlap(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	primary, _ := block.NewMem(512, 16)
	replicaStore, _ := block.NewMem(512, 16)
	e, err := NewEngine(primary, Config{Mode: ModePRINS})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	client := &meetClient{inner: &Loopback{Replica: NewReplicaEngine(replicaStore)}, ctx: ctx, both: make(chan struct{})}
	if err := e.AttachReplica(client); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := e.WriteBlock(uint64(w), fillBlock(512, byte(w+1))); err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	mustEqual(t, "replica", primary, replicaStore)
}

// swapClient delivers concurrent pushes out of order: a push that finds
// another one waiting inside goes first and only then lets that one
// proceed. A push that finds nobody waits a bounded number of scheduler
// yields for a partner, then goes alone, so it cannot deadlock against
// an engine that (rightly) refuses to send it one.
type swapClient struct {
	inner ReplicaClient

	mu      sync.Mutex
	waiting chan struct{}
	swaps   int
}

func (c *swapClient) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	c.mu.Lock()
	if first := c.waiting; first != nil {
		c.waiting = nil
		c.swaps++
		c.mu.Unlock()
		err := c.inner.ReplicaWriteStream(mode, shard, vol, seq, lba, hash, frame)
		close(first)
		return err
	}
	me := make(chan struct{})
	c.waiting = me
	c.mu.Unlock()
	for i := 0; i < 200; i++ {
		select {
		case <-me:
			return c.inner.ReplicaWriteStream(mode, shard, vol, seq, lba, hash, frame)
		default:
			runtime.Gosched()
		}
	}
	c.mu.Lock()
	alone := c.waiting == me
	if alone {
		c.waiting = nil
	}
	c.mu.Unlock()
	if !alone {
		<-me // a partner took the slot and is applying ahead of us
	}
	return c.inner.ReplicaWriteStream(mode, shard, vol, seq, lba, hash, frame)
}

// TestShipWindowReorder: four synchronous writers hammer eight LBAs of
// one shard through a client that lands overlapping pushes in reverse
// order. Runs that share an LBA must never overlap — the later parity
// applied first fails the replica's hash check — so the replica sees no
// diverged apply, the admission guard is seen waiting, and the images
// end identical.
func TestShipWindowReorder(t *testing.T) {
	const (
		bs        = 512
		lbas      = 8
		writers   = 4
		perWriter = 750
	)
	primary, _ := block.NewMem(bs, lbas)
	replicaStore, _ := block.NewMem(bs, lbas)
	replica := NewReplicaEngine(replicaStore)
	e, err := NewEngine(primary, Config{Mode: ModePRINS})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	client := &swapClient{inner: &Loopback{Replica: replica}}
	if err := e.AttachReplica(client); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			buf := make([]byte, bs)
			for i := 0; i < perWriter; i++ {
				rng.Read(buf[:32])
				if err := e.WriteBlock(uint64(rng.Intn(lbas)), buf); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	stat := e.ReplicaStats()[0].Metrics
	if stat.Diverged != 0 || replica.Traffic().Snapshot().Diverged != 0 {
		t.Errorf("diverged applies: primary counted %d, replica %d; same-LBA runs overlapped",
			stat.Diverged, replica.Traffic().Snapshot().Diverged)
	}
	if n := e.DirtyBlocks(0); n != 0 {
		t.Errorf("%d dirty blocks after a fault-free run", n)
	}
	client.mu.Lock()
	swaps := client.swaps
	client.mu.Unlock()
	if swaps == 0 {
		t.Error("no two pushes were ever in flight together: the test exercised nothing")
	}
	if stat.AdmitWaits == 0 {
		t.Error("AdmitWaits = 0 with 4 writers on 8 LBAs: the same-LBA guard never fired")
	}
	mustEqual(t, "replica", primary, replicaStore)
	t.Logf("swaps %d, admit waits %d of %d writes", swaps, stat.AdmitWaits, writers*perWriter)
}

// holdClient fails the push carrying seq 1 until healed, and notes
// whether any seq the span rule should have held back reached it
// meanwhile.
type holdClient struct {
	inner ReplicaClient

	mu       sync.Mutex
	healed   bool
	overshot bool
	done     int // pushes delivered
	reached  chan struct{}
}

func (c *holdClient) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	c.mu.Lock()
	healed := c.healed
	if !healed && seq > seqWindowSize/2 {
		c.overshot = true
	}
	c.mu.Unlock()
	if seq == 1 && !healed {
		return errors.New("holdClient: injected delivery failure")
	}
	err := c.inner.ReplicaWriteStream(mode, shard, vol, seq, lba, hash, frame)
	c.mu.Lock()
	if c.done++; c.done == seqWindowSize/2-1 {
		close(c.reached)
	}
	c.mu.Unlock()
	return err
}

// TestShipWindowSpan: the oldest push of a stream sits in its retry
// loop while a second writer keeps the stream moving. The pipe admits
// every run whose seqs stay within half the replica's window of the
// stuck one and then stops, so when the stuck push is finally
// delivered the replica still knows it has not applied it.
func TestShipWindowSpan(t *testing.T) {
	const (
		bs     = 512
		writes = seqWindowSize/2 + 100 // seq 1 plus enough to run into the span
	)
	primary, _ := block.NewMem(bs, writes)
	replicaStore, _ := block.NewMem(bs, writes)
	replica := NewReplicaEngine(replicaStore)
	release := make(chan struct{})
	e, err := NewEngine(primary, Config{Mode: ModePRINS, Retry: RetryPolicy{
		Attempts: 2,
		Backoff:  time.Nanosecond,
		Jitter:   NoJitter,
		Sleep:    func(time.Duration) { <-release }, // only the held push backs off
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	client := &holdClient{inner: &Loopback{Replica: replica}, reached: make(chan struct{})}
	if err := e.AttachReplica(client); err != nil {
		t.Fatal(err)
	}

	// On every way out: let the held push go, then wait for the writers,
	// then (deferred above) close the engine.
	var healOnce sync.Once
	heal := func() {
		healOnce.Do(func() {
			client.mu.Lock()
			client.healed = true
			client.mu.Unlock()
			close(release)
		})
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer heal()
	write := func(from, to uint64) {
		defer wg.Done()
		for lba := from; lba < to; lba++ {
			if err := e.WriteBlock(lba, fillBlock(bs, byte(lba%250+1))); err != nil {
				t.Errorf("lba %d: %v", lba, err)
				return
			}
		}
	}
	wg.Add(1)
	go write(0, 1) // seq 1: held
	// Only start the second writer once seq 1 exists, so that it IS seq 1.
	for e.ReplicaStats()[0].Metrics.Retries == 0 {
		runtime.Gosched()
	}
	wg.Add(1)
	go write(1, writes)

	// Seqs 2..window/2 are within the span and must all be delivered
	// past the stuck push; the next one must wait, which the counter
	// shows — or, were the rule broken, the client sees it arrive.
	<-client.reached
	overshot := func() bool {
		client.mu.Lock()
		defer client.mu.Unlock()
		return client.overshot
	}
	for e.ReplicaStats()[0].Metrics.AdmitWaits == 0 {
		if overshot() {
			t.Fatal("a seq half a window past the stuck push was shipped while it was still stuck")
		}
		runtime.Gosched()
	}
	if got := replica.LastSeq(); got != seqWindowSize/2 {
		t.Errorf("replica LastSeq = %d with seq 1 stuck, want %d", got, seqWindowSize/2)
	}

	heal()
	wg.Wait()

	if overshot() {
		t.Error("a seq past the span was shipped before the stuck push was delivered")
	}
	s := replica.Traffic().Snapshot()
	if s.ReplicaWrites != writes || s.Duplicates != 0 {
		t.Errorf("replica writes = %d, duplicates = %d; want %d and 0 (the held push must apply, not dedupe)",
			s.ReplicaWrites, s.Duplicates, writes)
	}
	mustEqual(t, "replica", primary, replicaStore)
}

// flightClient counts the pushes inside it per shard. Each push waits
// a bounded number of scheduler yields for more company than the ship
// window allows before it goes on, so whatever overlap the engine
// allows is reached, and any it should not is seen, without a sleep.
type flightClient struct {
	*Loopback
	inside, peak [2]atomic.Int32
}

func (c *flightClient) enter(shard uint8) func() {
	n := c.inside[shard].Add(1)
	for {
		old := c.peak[shard].Load()
		if n <= old || c.peak[shard].CompareAndSwap(old, n) {
			break
		}
	}
	for i := 0; i < 50 && c.inside[shard].Load() <= shipWindow; i++ {
		runtime.Gosched()
	}
	return func() { c.inside[shard].Add(-1) }
}

func (c *flightClient) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	defer c.enter(shard)()
	return c.Loopback.ReplicaWriteStream(mode, shard, vol, seq, lba, hash, frame)
}

func (c *flightClient) ReplicaWriteBatchStream(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) ([]iscsi.Status, error) {
	defer c.enter(shard)()
	return c.Loopback.ReplicaWriteBatchStream(mode, shard, vol, entries)
}

// TestShipWindowShippers: attach starts one shipper per pipe in either
// mode; the pipe's window decides how many pushes are in flight — one
// on an async pipe, whose stream must reach the replica in order and
// which never waits at admission, more than one and never more than
// shipWindow on a sync pipe under a same-LBA burst — and Close leaves
// no goroutine behind.
func TestShipWindowShippers(t *testing.T) {
	const (
		shards  = 2
		lbas    = 32 // 16 a shard: the LBA rule alone would allow more than shipWindow
		writers = 32
	)
	for _, tc := range []struct {
		name  string
		async bool
	}{
		{"async", true},
		{"sync", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Goroutines of earlier tests may still be exiting: count
			// from a level that has held for a thousand yields.
			base := runtime.NumGoroutine()
			for i := 0; i < 1000; i++ {
				runtime.Gosched()
				if n := runtime.NumGoroutine(); n != base {
					base, i = n, 0
				}
			}
			primary, _ := block.NewMem(512, lbas)
			replicaStore, _ := block.NewMem(512, lbas)
			e, err := NewEngine(primary, Config{Mode: ModePRINS, Async: tc.async, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			client := &flightClient{Loopback: &Loopback{Replica: NewReplicaEngine(replicaStore)}}
			if err := e.AttachReplica(client); err != nil {
				t.Fatal(err)
			}
			if got := runtime.NumGoroutine() - base; got != shards {
				t.Errorf("attach started %d goroutines, want one per pipe (%d)", got, shards)
			}
			// A burst from more writers than the window, several on each
			// LBA: the hazard the admission rules exist for.
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						if err := e.WriteBlock(uint64(w*5+i)%lbas, fillBlock(512, byte(w*7+i%50+1))); err != nil {
							t.Errorf("write: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			for sh := range client.peak {
				peak := int(client.peak[sh].Load())
				switch {
				case tc.async && peak != 1:
					t.Errorf("shard %d: %d pushes in flight on an async pipe, want 1", sh, peak)
				case !tc.async && (peak < 2 || peak > shipWindow):
					t.Errorf("shard %d: at most %d pushes in flight on a sync pipe, want 2..%d", sh, peak, shipWindow)
				}
			}
			waits := e.ReplicaStats()[0].Metrics.AdmitWaits
			if tc.async && waits != 0 {
				t.Errorf("AdmitWaits = %d on an async engine, want 0", waits)
			}
			t.Logf("peak pushes in flight per shard %d, %d; admit waits %d", client.peak[0].Load(), client.peak[1].Load(), waits)
			mustEqual(t, "replica", primary, replicaStore)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			// Close has waited for every shipper's deferred Done; the
			// goroutines themselves are gone a few instructions later.
			for i := 0; runtime.NumGoroutine() > base && i < 1e6; i++ {
				runtime.Gosched()
			}
			if got := runtime.NumGoroutine(); got > base {
				t.Errorf("%d goroutines left after Close, started with %d", got, base)
			}
		})
	}
}
