package resync

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prins/internal/block"
	"prins/internal/faults"
	"prins/internal/iscsi"
	"prins/internal/wan"
)

// runRangesSerial is the stop-and-wait resync the pipeline replaced,
// kept as its oracle: per batch, hash the local blocks, one one-unit
// hash command carrying their digest, then compare, with one WriteBlock
// round trip per differing block, nothing overlapped. A pipelined run
// over the same devices must leave the same replica image and report
// the same counts.
func runRangesSerial(local block.Store, remote *iscsi.Initiator, cfg Config, ranges ...block.Range) (stats Stats, err error) {
	cfg = cfg.withDefaults()
	defer func() {
		stats.WireBytes = int64(wan.WireBytesDiscrete(int(stats.HashBytes))) +
			int64(wan.WireBytesDiscrete(int(stats.DataBytes)))
	}()
	bs := local.BlockSize()
	buf := make([]byte, bs)
	for _, r := range block.NormalizeRanges(ranges, local.NumBlocks()) {
		for base := r.Start; base < r.End(); base += uint64(cfg.Batch) {
			count := uint32(min(r.End()-base, uint64(cfg.Batch)))
			localHashes := make([]uint64, count)
			for i := range localHashes {
				if err := local.ReadBlock(base+uint64(i), buf); err != nil {
					return stats, err
				}
				localHashes[i] = iscsi.HashBlock(buf)
			}
			remoteHashes, match, err := readHashes(remote, base, count, iscsi.HashBlock(iscsi.AppendHashes(nil, localHashes)))
			if err != nil {
				return stats, err
			}
			stats.HashBytes += int64(len(remoteHashes)) * iscsi.HashSize
			for i, localHash := range localHashes {
				lba := base + uint64(i)
				stats.BlocksScanned++
				if !match && localHash != remoteHashes[i] {
					stats.BlocksRepaired++
					if cfg.DryRun {
						continue
					}
					if err := local.ReadBlock(lba, buf); err != nil {
						return stats, err
					}
					if err := remote.WriteBlock(lba, buf); err != nil {
						return stats, err
					}
					stats.DataBytes += int64(bs)
				}
				if cfg.Learn != nil {
					cfg.Learn(lba, localHash)
				}
			}
		}
	}
	return stats, nil
}

// gateBackend is a StoreBackend that records the repair writes it has
// applied and parks the first one until released: the target serves a
// session one command at a time, so while that write is parked nothing
// behind it is answered and whatever the primary sends stays in flight.
type gateBackend struct {
	iscsi.StoreBackend
	gate    chan struct{}
	parked  chan struct{} // closed once the first write is parked
	once    sync.Once
	release func() // opens the gate; safe to call again

	mu     sync.Mutex
	writes int
	blocks uint64
}

func newGateBackend(store block.Store) *gateBackend {
	b := &gateBackend{
		StoreBackend: iscsi.StoreBackend{Store: store},
		gate:         make(chan struct{}),
		parked:       make(chan struct{}),
	}
	// A test that fails with the gate shut would hang in its session's
	// cleanup, so each defers release as well as calling it.
	b.release = sync.OnceFunc(func() { close(b.gate) })
	return b
}

func (b *gateBackend) HandleWrite(lba uint64, data []byte) iscsi.Status {
	b.once.Do(func() {
		close(b.parked)
		<-b.gate
	})
	st := b.StoreBackend.HandleWrite(lba, data)
	if st == iscsi.StatusOK {
		b.mu.Lock()
		b.writes++
		b.blocks += uint64(len(data) / b.Store.BlockSize())
		b.mu.Unlock()
	}
	return st
}

// applied returns the repair writes the backend has applied, and the
// blocks they carried.
func (b *gateBackend) applied() (writes int, blocks uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.writes, b.blocks
}

// session serves backend over net.Pipe and returns a logged-in
// initiator whose side of the pipe went through wrap (nil: as is).
func session(t *testing.T, backend iscsi.Backend, wrap func(net.Conn) net.Conn) *iscsi.Initiator {
	t.Helper()
	target := iscsi.NewTarget()
	target.Export("r", backend)
	client, server := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		target.ServeConn(server)
	}()
	if wrap != nil {
		client = wrap(client)
	}
	init := iscsi.NewInitiator(client)
	if err := init.Login("r"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		init.Close()
		wg.Wait()
	})
	return init
}

// parkedIn reports whether some goroutine is blocked on a channel
// receive with every named function on its stack. It is how a test
// tells "the comparer is waiting for window room" from "the comparer
// has not got there yet" without timing anything: the first is a state
// the correct pipeline reaches and stays in, so polling for it
// terminates.
func parkedIn(fns ...string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		header, _, _ := bytes.Cut(g, []byte("\n"))
		all := bytes.Contains(header, []byte("chan receive"))
		for _, fn := range fns {
			all = all && bytes.Contains(g, []byte(fn))
		}
		if all {
			return true
		}
	}
	return false
}

// roomWait is where the comparer waits for room in the repair window:
// settling a write in issue.
var roomWait = []string{"window.(*Window[...]).Wait", "resync.(*pipeline).issue"}

// eventually polls cond until it holds, failing the test after a
// generous deadline.
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

type result struct {
	stats Stats
	err   error
}

// runAsync starts fn and returns a channel carrying its result, so a
// test can drive the backend while the run is blocked on it.
func runAsync(fn func() (Stats, error)) <-chan result {
	done := make(chan result, 1)
	go func() {
		stats, err := fn()
		done <- result{stats, err}
	}()
	return done
}

func waitResult(t *testing.T, done <-chan result) result {
	t.Helper()
	select {
	case r := <-done:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return")
		return result{}
	}
}

// Geometry of the tests that park the backend: 4 KiB blocks, so a full
// run (maxRunBytes) is 16 blocks and the byte window holds four.
const (
	parkBS        = 4096
	parkNB        = 512
	parkRunBlocks = maxRunBytes / parkBS
)

// divergedPair is seededPair with every block diverged.
func divergedPair(t *testing.T, seed int64) (local, replica block.Store) {
	all := make([]uint64, parkNB)
	for i := range all {
		all[i] = uint64(i)
	}
	return seededPair(t, parkBS, parkNB, seed, all)
}

// TestResyncPipelineMatchesSerial is the differential test: over random
// divergence patterns, batch sizes and range sets, the pipelined run
// and the serial oracle leave byte-identical replicas, report the same
// counts and learn the same blocks, each exactly once.
func TestResyncPipelineMatchesSerial(t *testing.T) {
	const (
		bs = 512
		nb = 1200
	)
	for seed := int64(0); seed < 20; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			local, err := block.NewMem(bs, nb)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, bs)
			for lba := uint64(0); lba < nb; lba++ {
				rng.Read(buf)
				if err := local.WriteBlock(lba, buf); err != nil {
					t.Fatal(err)
				}
			}

			// Divergence: a run longer than the run cap (so longer than
			// any batch, too), a few shorter runs, isolated blocks.
			diverged := map[uint64]bool{}
			mark := func(start, n uint64) {
				for lba := start; lba < start+n && lba < nb; lba++ {
					diverged[lba] = true
				}
			}
			long := uint64(rng.Intn(nb - 400))
			mark(long, uint64(maxRunBytes/bs+1+rng.Intn(150)))
			for i := 0; i < 4; i++ {
				mark(uint64(rng.Intn(nb)), uint64(2+rng.Intn(40)))
			}
			for i := 0; i < 25; i++ {
				mark(uint64(rng.Intn(nb)), 1)
			}

			// Two replicas in the same diverged state, one per
			// implementation.
			var replicas [2]block.Store
			for i := range replicas {
				if replicas[i], err = block.NewMem(bs, nb); err != nil {
					t.Fatal(err)
				}
				if err := block.Copy(replicas[i], local); err != nil {
					t.Fatal(err)
				}
			}
			for lba := range diverged {
				rng.Read(buf)
				for _, r := range replicas {
					if err := r.WriteBlock(lba, buf); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Ranges: two pieces of the long run with a gap between them
			// (differing blocks on both sides of a range boundary, none
			// between); random pieces that overlap, touch, come unsorted;
			// an empty one; one clamped at the device's end; one wholly
			// past it.
			ranges := []block.Range{
				{Start: long + 10, Count: 3},
				{Start: long + 2, Count: 3},
				{Start: 40, Count: 0},
				{Start: nb - 30, Count: 500},
				{Start: nb + 10, Count: 5},
			}
			for i := 0; i < 6; i++ {
				ranges = append(ranges, block.Range{Start: uint64(rng.Intn(nb)), Count: uint64(1 + rng.Intn(300))})
			}
			cfg := Config{Batch: []uint32{16, 64, 256}[rng.Intn(3)], DryRun: seed%5 == 4}

			learned := [2]map[uint64]uint64{{}, {}}
			var stats [2]Stats
			for i, run := range []func(block.Store, *iscsi.Initiator, Config, ...block.Range) (Stats, error){runRangesSerial, RunRanges} {
				// A plain map: a Learn from a second goroutine is a race
				// the detector reports.
				seen := learned[i]
				cfg.Learn = func(lba, hash uint64) {
					if _, dup := seen[lba]; dup {
						t.Errorf("impl %d learned block %d twice", i, lba)
					}
					seen[lba] = hash
				}
				if stats[i], err = run(local, remoteFor(t, replicas[i], "r"), cfg, ranges...); err != nil {
					t.Fatal(err)
				}
			}

			want, got := stats[0], stats[1]
			if got.BlocksScanned != want.BlocksScanned || got.BlocksRepaired != want.BlocksRepaired ||
				got.HashBytes != want.HashBytes || got.DataBytes != want.DataBytes {
				t.Errorf("pipelined stats %+v, serial %+v", got, want)
			}
			// The oracle sends bare blocks; a repair span adds its framing,
			// a mask of at most maxRunBytes/bs bits and a frame header, and
			// the random blocks go raw. That framing is all WireBytes may
			// add.
			const frameHeader = 5 // an xcode frame's codec byte and length
			framing := got.SentBytes - got.DataBytes
			if lo, hi := got.RepairWrites*(1+frameHeader), got.RepairWrites*int64(maxRunBytes/bs/8+frameHeader); framing < lo || framing > hi {
				t.Errorf("%d spans framed in %d bytes, want %d..%d", got.RepairWrites, framing, lo, hi)
			}
			if wire := int64(wan.WireBytesDiscrete(int(got.HashBytes))) + int64(wan.WireBytesDiscrete(int(want.DataBytes+framing))); got.WireBytes != wire || got.WireBytes < want.WireBytes {
				t.Errorf("pipelined wire bytes %d, serial %d: want the serial count plus the framing, %d", got.WireBytes, want.WireBytes, wire)
			}
			if eq, err := block.Equal(replicas[0], replicas[1]); err != nil || !eq {
				t.Errorf("replica images differ between the two implementations (err %v)", err)
			}
			if len(learned[1]) != len(learned[0]) {
				t.Errorf("pipelined run learned %d blocks, serial %d", len(learned[1]), len(learned[0]))
			}
			for lba, hash := range learned[0] {
				if learned[1][lba] != hash {
					t.Errorf("block %d: learned hash %x, serial %x", lba, learned[1][lba], hash)
				}
			}
			if !cfg.DryRun && got.BlocksRepaired > 0 {
				if got.RepairWrites == 0 || got.RepairWrites > int64(got.BlocksRepaired) {
					t.Errorf("RepairWrites = %d for %d blocks", got.RepairWrites, got.BlocksRepaired)
				}
				if got.HashFetches == 0 {
					t.Error("HashFetches = 0")
				}
			}

			// What the ranges left out, a whole-device run finishes.
			if _, err := Run(local, remoteFor(t, replicas[1], "r"), Config{}); err != nil {
				t.Fatal(err)
			}
			if eq, _ := block.Equal(local, replicas[1]); !eq {
				t.Error("replica differs from local after the whole-device run")
			}
		})
	}
}

// TestResyncLearnsRepairAfterAck: a repaired block is learned only once
// the replica has acknowledged the write that carries it. The backend
// parks the first repair write; nothing of that run may be learned
// until the test lets it go.
func TestResyncLearnsRepairAfterAck(t *testing.T) {
	local, replica := divergedPair(t, 21)
	backend := newGateBackend(replica)
	defer backend.release()
	remote := session(t, backend, nil)

	var released atomic.Bool
	early := 0
	learned := map[uint64]int{}
	cfg := Config{Batch: parkNB, Learn: func(lba, _ uint64) {
		if !released.Load() {
			early++
		}
		learned[lba]++
	}}
	done := runAsync(func() (Stats, error) { return Run(local, remote, cfg) })

	// Every block differs, so until a write is acknowledged there is
	// nothing to learn — and the parked write is the first.
	<-backend.parked
	released.Store(true)
	backend.release()
	r := waitResult(t, done)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if early != 0 {
		t.Errorf("%d blocks learned before any write was acknowledged", early)
	}
	for lba := uint64(0); lba < parkNB; lba++ {
		if learned[lba] != 1 {
			t.Fatalf("block %d learned %d times, want once", lba, learned[lba])
		}
	}
	if r.stats.BlocksRepaired != parkNB || r.stats.RepairWrites != parkNB/parkRunBlocks {
		t.Errorf("repaired %d blocks in %d writes, want %d in %d",
			r.stats.BlocksRepaired, r.stats.RepairWrites, parkNB, parkNB/parkRunBlocks)
	}
	if eq, _ := block.Equal(local, replica); !eq {
		t.Error("replica still diverged")
	}
}

// TestResyncRepairWindowBounded: with the backend parked, the primary
// puts no more than the byte window's worth of repair data on the
// connection, however much there is to repair, and no more than the
// hash window's worth of fetches.
func TestResyncRepairWindowBounded(t *testing.T) {
	local, replica := divergedPair(t, 22)
	backend := newGateBackend(replica)
	defer backend.release()
	var conn *faults.Conn
	remote := session(t, backend, func(c net.Conn) net.Conn {
		conn = faults.NewPlan(1).WrapConn(c, faults.ConnFaults{})
		return conn
	})
	before := conn.Written()

	// One batch, so the only fetch is answered before the first write
	// parks the session.
	done := runAsync(func() (Stats, error) { return Run(local, remote, Config{Batch: parkNB}) })
	<-backend.parked

	// One header per command; the fetch is a bare header. The state
	// waited for is one the pipeline stays in until the gate opens: the
	// comparer out of window room and every write it issued offered to
	// the connection.
	const bound = repairWindowBytes + iscsi.FrameHeadroom*(repairWindowRuns+1)
	eventually(t, "a full window on the connection and the comparer waiting for room", func() bool {
		sent := conn.Written() - before
		if sent > bound {
			t.Fatalf("%d bytes offered to the connection with nothing acknowledged, bound %d", sent, bound)
		}
		return sent >= repairWindowBytes && parkedIn(roomWait...)
	})

	backend.release()
	if r := waitResult(t, done); r.err != nil || r.stats.BlocksRepaired != parkNB {
		t.Fatalf("after release: %+v, %v", r.stats, r.err)
	}
	if eq, _ := block.Equal(local, replica); !eq {
		t.Error("replica still diverged")
	}
}

// settleGoroutines waits for the goroutine count to fall back to
// baseline (a goroutine that has sent its result may not have exited
// yet).
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	eventually(t, fmt.Sprintf("goroutines to return to %d (now %d)", baseline, runtime.NumGoroutine()),
		func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestResyncCancelWithWritesInFlight: a cancel that arrives while
// repair writes are in flight stops the run at the next batch boundary;
// the writes in flight are waited out and counted, nothing leaks, and a
// rerun finishes the job.
func TestResyncCancelWithWritesInFlight(t *testing.T) {
	local, replica := divergedPair(t, 23)
	backend := newGateBackend(replica)
	defer backend.release()
	remote := session(t, backend, nil)
	baseline := runtime.NumGoroutine()

	cancel := make(chan struct{})
	done := runAsync(func() (Stats, error) { return Run(local, remote, Config{Batch: 2 * parkRunBlocks, Cancel: cancel}) })
	<-backend.parked
	close(cancel)
	backend.release()

	r := waitResult(t, done)
	if !errors.Is(r.err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", r.err)
	}
	settleGoroutines(t, baseline)
	writes, blocks := backend.applied()
	if r.stats.BlocksRepaired != blocks || r.stats.RepairWrites != int64(writes) || r.stats.DataBytes != int64(blocks)*parkBS {
		t.Errorf("stats %+v, but the replica applied %d blocks in %d writes", r.stats, blocks, writes)
	}
	if blocks == 0 || blocks >= parkNB/2 {
		t.Errorf("canceled run applied %d of %d blocks; want the window's worth and the batch's, not the device", blocks, parkNB)
	}

	again, err := Run(local, remote, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if again.BlocksRepaired != parkNB-blocks {
		t.Errorf("rerun repaired %d blocks, want the %d the first run left", again.BlocksRepaired, parkNB-blocks)
	}
	if eq, _ := block.Equal(local, replica); !eq {
		t.Error("replica still diverged after the rerun")
	}
}

// TestResyncResetWithWindowInFlight: the connection is reset with a
// full window of repair writes in flight. The run returns the error
// promptly, counts only acknowledged writes (the replica may hold more:
// a write can land and lose its acknowledgement), leaks nothing, and a
// rerun over a fresh session repairs exactly what the replica lacks.
func TestResyncResetWithWindowInFlight(t *testing.T) {
	local, replica := divergedPair(t, 24)
	backend := newGateBackend(replica)
	defer backend.release()
	baseline := runtime.NumGoroutine()

	// The reset fires on the write that follows the first full window:
	// login and one hash fetch (under 200 bytes), four full runs, then
	// the fifth run's PDU trips it — and that one is only sent once the
	// first acknowledgement makes room, with the other three still in
	// flight.
	var conn *faults.Conn
	remote := session(t, backend, func(c net.Conn) net.Conn {
		conn = faults.NewPlan(2).WrapConn(c, faults.ConnFaults{
			Fault:      faults.FaultReset,
			AfterBytes: 200 + repairWindowBytes + 4*iscsi.FrameHeadroom,
		})
		return conn
	})

	done := runAsync(func() (Stats, error) { return Run(local, remote, Config{Batch: parkNB}) })
	<-backend.parked
	eventually(t, "the comparer to fill the repair window", func() bool { return parkedIn(roomWait...) })
	backend.release()

	r := waitResult(t, done)
	if r.err == nil || !conn.Tripped() {
		t.Fatalf("err = %v, tripped = %v; want the reset to fail the run", r.err, conn.Tripped())
	}
	remote.Close()
	settleGoroutines(t, baseline)

	// The target may still be landing writes it had read before the
	// reset; its session goroutine has exited by now (settleGoroutines),
	// so the count is final.
	writes, blocks := backend.applied()
	if r.stats.BlocksRepaired > blocks || r.stats.RepairWrites > int64(writes) {
		t.Errorf("stats %+v count more than the replica applied (%d blocks, %d writes)", r.stats, blocks, writes)
	}
	if r.stats.BlocksRepaired != uint64(r.stats.RepairWrites)*parkRunBlocks || r.stats.DataBytes != int64(r.stats.BlocksRepaired)*parkBS {
		t.Errorf("stats disagree with themselves: %+v", r.stats)
	}
	if blocks == 0 || blocks >= parkNB {
		t.Errorf("replica applied %d of %d blocks around the reset", blocks, parkNB)
	}

	again, err := Run(local, session(t, backend, nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if again.BlocksRepaired != parkNB-blocks {
		t.Errorf("rerun repaired %d blocks, want the %d the replica lacked", again.BlocksRepaired, parkNB-blocks)
	}
	if eq, _ := block.Equal(local, replica); !eq {
		t.Error("replica still diverged after the rerun")
	}
}

// TestResyncRedialsOnceForAWindowOfFetches: the recovery case — the
// session went down during the outage, and the run's first act is a
// window of hash fetches that all find it down. They share one redial.
func TestResyncRedialsOnceForAWindowOfFetches(t *testing.T) {
	local, replica := seededPair(t, 512, 16*64, 25, []uint64{3, 4, 5, 700})
	target := iscsi.NewTarget()
	target.Export("r", &iscsi.StoreBackend{Store: replica})
	addr, err := target.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	remote := iscsi.NewInitiator(conn)
	defer remote.Close()
	if err := remote.Login("r"); err != nil {
		t.Fatal(err)
	}
	remote.EnableReconnectTCP(addr.String(), "r")
	_ = conn.Close() // the outage; the session notices on its own or on the first send

	stats, err := Run(local, remote, Config{Batch: 64}) // 16 batches: a full window at once
	if err != nil {
		t.Fatal(err)
	}
	if n := remote.Reconnects(); n != 1 {
		t.Errorf("Reconnects() = %d, want 1", n)
	}
	if stats.BlocksRepaired != 4 || stats.RepairWrites != 2 || stats.HashFetches != 16 {
		t.Errorf("stats = %+v, want 4 blocks in 2 writes, 16 fetches", stats)
	}
	if eq, _ := block.Equal(local, replica); !eq {
		t.Error("replica still diverged")
	}
}

// TestScrubberStopWithWritesInFlight: a Stop that lands while a
// pipelined pass (no pause) has repair writes in flight ends the pass
// at the next batch boundary, with those writes waited out and counted.
func TestScrubberStopWithWritesInFlight(t *testing.T) {
	local, replica := divergedPair(t, 26)
	backend := newGateBackend(replica)
	defer backend.release()
	remote := session(t, backend, nil)

	s := NewScrubber(local, remote, Config{Batch: 2 * parkRunBlocks}, 0)
	s.Start(time.Hour) // arms Stop; the loop itself stays idle
	done := runAsync(s.Pass)
	<-backend.parked
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	backend.release()

	r := waitResult(t, done)
	if !errors.Is(r.err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", r.err)
	}
	_, blocks := backend.applied()
	if r.stats.BlocksRepaired != blocks || blocks == 0 || blocks >= parkNB/2 {
		t.Errorf("stopped pass reports %d repaired, replica applied %d of %d", r.stats.BlocksRepaired, blocks, parkNB)
	}
	m := s.Metrics()
	if m.Passes != 0 || m.Repaired != int64(blocks) || m.Scanned != int64(r.stats.BlocksScanned) {
		t.Errorf("metrics %+v after a stopped pass of %+v", m, r.stats)
	}
}
