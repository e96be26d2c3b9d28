package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"prins/internal/block"
	"prins/internal/faults"
	"prins/internal/iscsi"
	"prins/internal/journal"
	"prins/internal/parity"
	"prins/internal/resync"
	"prins/internal/xcode"
)

// prinsFrame builds the wire frame and content hash a primary would
// ship for the transition oldData -> newData in ModePRINS.
func prinsFrame(t testing.TB, oldData, newData []byte) (frame []byte, hash uint64) {
	t.Helper()
	par := make([]byte, len(oldData))
	if err := parity.ForwardInto(par, newData, oldData); err != nil {
		t.Fatal(err)
	}
	frame, err := xcode.Encode(xcode.CodecZRL, par)
	if err != nil {
		t.Fatal(err)
	}
	return frame, iscsi.HashBlock(newData)
}

// TestVerifiedApplyDivergedDirtyRangeRepair is the acceptance loop for
// end-to-end integrity: a replica block rots underneath live PRINS
// replication, the next write to it is refused by the replica's hash
// check (instead of silently XOR-ing garbage), the primary counts the
// divergence and records the LBA in its dirty map, and a ranged resync
// heals exactly that block — scanning a tiny fraction of the device —
// after which live replication to the same LBA works again.
func TestVerifiedApplyDivergedDirtyRangeRepair(t *testing.T) {
	const (
		bs  = 1024
		nb  = 256
		rot = uint64(7)
	)

	replicaStore, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	repEngine := NewReplicaEngine(replicaStore)
	node := startNode(t, "replica", repEngine)

	repConn, err := iscsi.Dial(node.addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer repConn.Close()
	if err := repConn.Login("replica"); err != nil {
		t.Fatal(err)
	}

	primaryStore, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(primaryStore, Config{Mode: ModePRINS, Retry: chaosRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AttachReplica(repConn)

	// Healthy replication seeds both stores identically.
	writeWorkload(t, e, 42, 50)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "replica before corruption", replicaStore, primaryStore)

	// Silent corruption: the replica block rots with no write in
	// flight, so nothing notices until the next push XORs against it.
	rng := rand.New(rand.NewSource(7))
	junk := make([]byte, bs)
	rng.Read(junk)
	if err := replicaStore.WriteBlock(rot, junk); err != nil {
		t.Fatal(err)
	}

	// The next write to the rotted LBA must still succeed for the
	// application — divergence is detected corruption, not a transport
	// failure — while the replica refuses the apply.
	buf := make([]byte, bs)
	if err := e.ReadBlock(rot, buf); err != nil {
		t.Fatal(err)
	}
	rng.Read(buf[:bs/4])
	if err := e.WriteBlock(rot, buf); err != nil {
		t.Fatalf("write over diverged replica block: %v", err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}

	if got := e.Traffic().Snapshot().Diverged; got != 1 {
		t.Errorf("primary diverged counter = %d, want 1", got)
	}
	if rs := e.ReplicaStats(); len(rs) != 1 || rs[0].Metrics.Diverged != 1 {
		t.Errorf("per-replica diverged counter = %+v, want 1", rs)
	}
	if got := repEngine.Traffic().Snapshot().Diverged; got != 1 {
		t.Errorf("replica-side diverged counter = %d, want 1", got)
	}
	if e.Degraded() {
		t.Error("divergence must not degrade the replica: the transport is healthy")
	}

	// The primary knows exactly which block is suspect.
	dirty := e.DirtyRanges(0)
	if len(dirty) != 1 || dirty[0].Start != rot || dirty[0].Count != 1 {
		t.Fatalf("DirtyRanges = %+v, want [{%d 1}]", dirty, rot)
	}
	if got := e.DirtyBlocks(0); got != 1 {
		t.Fatalf("DirtyBlocks = %d, want 1", got)
	}

	// Incremental repair over a fresh session scans only the dirty
	// range, not the device.
	conn2, err := iscsi.Dial(node.addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := conn2.Login("replica"); err != nil {
		t.Fatal(err)
	}
	stats, err := resync.RunRanges(e, conn2, resync.Config{}, dirty...)
	if err != nil {
		t.Fatalf("ranged resync: %v", err)
	}
	if stats.BlocksScanned != 1 || stats.BlocksRepaired != 1 {
		t.Fatalf("ranged resync scanned=%d repaired=%d, want 1/1", stats.BlocksScanned, stats.BlocksRepaired)
	}
	if stats.BlocksScanned >= nb/10 {
		t.Errorf("ranged resync scanned %d blocks; should be far below device size %d", stats.BlocksScanned, nb)
	}
	e.ClearDirty(0)
	if got := e.DirtyBlocks(0); got != 0 {
		t.Errorf("DirtyBlocks after ClearDirty = %d", got)
	}

	// The replica now hash-verifies clean end to end.
	full, err := resync.RunRanges(e, conn2, resync.Config{DryRun: true}, block.Range{Start: 0, Count: nb})
	if err != nil {
		t.Fatal(err)
	}
	if full.BlocksScanned != nb || full.BlocksRepaired != 0 {
		t.Errorf("post-repair audit scanned=%d repaired=%d, want %d/0", full.BlocksScanned, full.BlocksRepaired, nb)
	}
	mustEqual(t, "replica after ranged repair", replicaStore, primaryStore)

	// Live replication to the healed LBA resumes: the A_old
	// precondition holds again, so the verified apply passes.
	rng.Read(buf[:bs/4])
	if err := e.WriteBlock(rot, buf); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := e.Traffic().Snapshot().Diverged; got != 1 {
		t.Errorf("healed LBA diverged again: counter = %d", got)
	}
	mustEqual(t, "replica after post-repair write", replicaStore, primaryStore)
}

// tornApplySetup stages the mid-write power loss: a journaled replica
// engine whose first store write tears, leaving the device block
// neither A_old nor A_new with the intent still journaled.
func tornApplySetup(t *testing.T) (inner block.Store, faulted *faults.Store, backing *journal.Mem, rep *ReplicaEngine, aNew []byte, hash uint64, frame []byte) {
	t.Helper()
	const (
		bs  = 512
		nb  = 8
		lba = uint64(5)
	)
	inner, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	aOld := make([]byte, bs)
	rng.Read(aOld)
	if err := inner.WriteBlock(lba, aOld); err != nil {
		t.Fatal(err)
	}
	aNew = make([]byte, bs)
	rng.Read(aNew)
	frame, hash = prinsFrame(t, aOld, aNew)

	faulted = faults.NewPlan(1).WrapStore(inner, faults.StoreFaults{TornWriteAt: 1})
	backing = &journal.Mem{}
	rep, err = NewReplicaEngineJournaled(faulted, journal.New(backing))
	if err != nil {
		t.Fatal(err)
	}

	err = rep.ApplyStream(ModePRINS, 0, 0, 1, lba, hash, frame)
	if !errors.Is(err, iscsi.ErrReplicaStore) || !errors.Is(err, faults.ErrTornWrite) {
		t.Fatalf("torn apply err = %v, want ErrReplicaStore wrapping ErrTornWrite", err)
	}
	cur := make([]byte, bs)
	if err := inner.ReadBlock(lba, cur); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(cur, aOld) || bytes.Equal(cur, aNew) {
		t.Fatal("write did not tear: block is still old or already new")
	}
	return inner, faulted, backing, rep, aNew, hash, frame
}

// TestTornWriteJournalReplay proves the journal's crash-safety
// contract both ways out of a torn in-place write: the same engine
// replays the intent before its next apply, and a restarted engine
// replays it at construction. Either way the block ends at A_new and
// the primary's redelivery of the journaled seq dedupes instead of
// double-XOR-ing.
func TestTornWriteJournalReplay(t *testing.T) {
	const lba = uint64(5)

	t.Run("retry", func(t *testing.T) {
		inner, _, _, rep, aNew, hash, frame := tornApplySetup(t)
		// The primary retries the same seq: replay-then-dedupe.
		if err := rep.ApplyStream(ModePRINS, 0, 0, 1, lba, hash, frame); err != nil {
			t.Fatalf("retry after torn write: %v", err)
		}
		cur := make([]byte, len(aNew))
		if err := inner.ReadBlock(lba, cur); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cur, aNew) {
			t.Fatal("journal replay did not restore A_new")
		}
		if got := rep.Traffic().Snapshot().Duplicates; got != 1 {
			t.Errorf("duplicates = %d; the retried seq should dedupe after replay", got)
		}
		if rep.LastSeq() != 1 {
			t.Errorf("LastSeq = %d, want 1", rep.LastSeq())
		}
	})

	t.Run("restart", func(t *testing.T) {
		inner, faulted, backing, _, aNew, hash, frame := tornApplySetup(t)
		// Crash: the engine is gone; only the store and the journal
		// backing survive. Restart replays at construction.
		rep2, err := NewReplicaEngineJournaled(faulted, journal.New(backing))
		if err != nil {
			t.Fatalf("restart with pending intent: %v", err)
		}
		cur := make([]byte, len(aNew))
		if err := inner.ReadBlock(lba, cur); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cur, aNew) {
			t.Fatal("startup replay did not restore A_new")
		}
		if rep2.LastSeq() != 1 {
			t.Errorf("LastSeq after replay = %d, want 1", rep2.LastSeq())
		}
		// The primary redelivers the frame it never saw acked.
		if err := rep2.ApplyStream(ModePRINS, 0, 0, 1, lba, hash, frame); err != nil {
			t.Fatalf("redelivery after restart: %v", err)
		}
		if got := rep2.Traffic().Snapshot().Duplicates; got != 1 {
			t.Errorf("duplicates = %d, want 1", got)
		}
		if err := inner.ReadBlock(lba, cur); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cur, aNew) {
			t.Fatal("redelivery corrupted the replayed block")
		}
	})
}

// TestTornWriteDetectedWithoutJournal is the contrast case: with no
// journal, a torn write leaves the block poisoned — but the verified
// apply turns what used to be silent corruption into an explicit
// ErrDiverged on the retry, refusing to XOR against the torn content.
func TestTornWriteDetectedWithoutJournal(t *testing.T) {
	const (
		bs  = 512
		lba = uint64(3)
	)
	inner, err := block.NewMem(bs, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	aOld := make([]byte, bs)
	rng.Read(aOld)
	if err := inner.WriteBlock(lba, aOld); err != nil {
		t.Fatal(err)
	}
	aNew := make([]byte, bs)
	rng.Read(aNew)
	frame, hash := prinsFrame(t, aOld, aNew)

	faulted := faults.NewPlan(2).WrapStore(inner, faults.StoreFaults{TornWriteAt: 1})
	rep := NewReplicaEngine(faulted)

	err = rep.ApplyStream(ModePRINS, 0, 0, 1, lba, hash, frame)
	if !errors.Is(err, iscsi.ErrReplicaStore) || !errors.Is(err, faults.ErrTornWrite) {
		t.Fatalf("torn apply err = %v", err)
	}
	// Retry re-applies (nothing journaled, nothing deduped): the hash
	// check catches the poisoned pre-image before any store write.
	err = rep.ApplyStream(ModePRINS, 0, 0, 1, lba, hash, frame)
	if !errors.Is(err, iscsi.ErrDiverged) {
		t.Fatalf("retry err = %v, want ErrDiverged", err)
	}
	if got := rep.Traffic().Snapshot().Diverged; got != 1 {
		t.Errorf("diverged = %d, want 1", got)
	}
}

func TestDirtyMapRanges(t *testing.T) {
	d := newDirtyMap()
	if got := d.ranges(); len(got) != 0 || d.count() != 0 {
		t.Fatalf("fresh map: ranges=%v count=%d", got, d.count())
	}

	for _, lba := range []uint64{5, 6, 7, 63, 64, 200} {
		d.mark(lba)
	}
	d.mark(6) // idempotent
	if got := d.count(); got != 6 {
		t.Errorf("count = %d, want 6", got)
	}
	want := []block.Range{{Start: 5, Count: 3}, {Start: 63, Count: 2}, {Start: 200, Count: 1}}
	got := d.ranges()
	if len(got) != len(want) {
		t.Fatalf("ranges = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranges = %v, want %v", got, want)
		}
	}

	// Clearing a run (spanning a word boundary) leaves the rest.
	d.clear([]block.Range{{Start: 63, Count: 2}})
	if got := d.count(); got != 4 {
		t.Errorf("count after partial clear = %d, want 4", got)
	}
	got = d.ranges()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[2] {
		t.Errorf("ranges after partial clear = %v", got)
	}

	// Empty clear wipes everything.
	d.clear(nil)
	if d.count() != 0 || len(d.ranges()) != 0 {
		t.Errorf("map not empty after full clear: %v", d.ranges())
	}
}

// BenchmarkReplicaApply measures the replica-side apply path with and
// without content-hash verification — the cost of the integrity check
// on top of decode + backward parity + store write.
func BenchmarkReplicaApply(b *testing.B) {
	const bs = 4096
	rng := rand.New(rand.NewSource(5))
	par := make([]byte, bs)
	// Sparse parity, ~6% of the block dirtied, like the paper's
	// small-write workloads.
	for i := 0; i < bs/16; i++ {
		par[rng.Intn(bs)] = byte(1 + rng.Intn(255))
	}
	frame, err := xcode.Encode(xcode.CodecZRL, par)
	if err != nil {
		b.Fatal(err)
	}
	// XOR-ing the same parity alternates the block between two states;
	// precompute both hashes.
	even := make([]byte, bs) // content after an even number of applies
	odd := make([]byte, bs)
	copy(odd, par)
	hashOdd, hashEven := iscsi.HashBlock(odd), iscsi.HashBlock(even)

	for _, tc := range []struct {
		name   string
		verify bool
	}{
		{"verified", true},
		{"unverified", false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			store, err := block.NewMem(bs, 1)
			if err != nil {
				b.Fatal(err)
			}
			rep := NewReplicaEngine(store)
			b.SetBytes(bs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var hash uint64
				if tc.verify {
					if i%2 == 0 {
						hash = hashOdd
					} else {
						hash = hashEven
					}
				}
				if err := rep.ApplyStream(ModePRINS, 0, 0, uint64(i+1), 0, hash, frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
