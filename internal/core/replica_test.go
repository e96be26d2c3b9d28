package core

import (
	"bytes"
	"math/rand"
	"testing"

	"prins/internal/block"
	"prins/internal/faults"
	"prins/internal/iscsi"
	"prins/internal/journal"
)

// groupApplySetup stages a three-entry PRINS batch against a journaled
// replica whose Nth store write tears — the mid-batch power loss.
func groupApplySetup(t *testing.T, tearAt int64) (inner block.Store, faulted *faults.Store, backing *journal.Mem, rep *ReplicaEngine, entries []iscsi.BatchEntry, news [][]byte) {
	t.Helper()
	const (
		bs = 512
		nb = 16
	)
	inner, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	lbas := []uint64{2, 5, 9}
	olds := make([][]byte, len(lbas))
	news = make([][]byte, len(lbas))
	entries = make([]iscsi.BatchEntry, len(lbas))
	for i, lba := range lbas {
		olds[i] = make([]byte, bs)
		rng.Read(olds[i])
		if err := inner.WriteBlock(lba, olds[i]); err != nil {
			t.Fatal(err)
		}
		news[i] = make([]byte, bs)
		rng.Read(news[i])
		frame, hash := prinsFrame(t, olds[i], news[i])
		entries[i] = iscsi.BatchEntry{Seq: uint64(i + 1), LBA: lba, Hash: hash, Frame: frame}
	}

	faulted = faults.NewPlan(7).WrapStore(inner, faults.StoreFaults{TornWriteAt: tearAt})
	backing = &journal.Mem{}
	rep, err = NewReplicaEngineJournaled(faulted, journal.New(backing))
	if err != nil {
		t.Fatal(err)
	}
	return inner, faulted, backing, rep, entries, news
}

// TestChaosGroupApplyTornMidBatch is the group apply's
// all-commit-or-all-replay contract: a batch whose store write tears
// mid-group leaves the WHOLE group journaled, and recovery — same
// engine or a restart — replays every entry, never a torn suffix. The
// primary's redelivery of the batch then dedupes entirely.
func TestChaosGroupApplyTornMidBatch(t *testing.T) {
	check := func(t *testing.T, inner block.Store, news [][]byte) {
		t.Helper()
		cur := make([]byte, len(news[0]))
		for i, lba := range []uint64{2, 5, 9} {
			if err := inner.ReadBlock(lba, cur); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cur, news[i]) {
				t.Errorf("lba %d does not hold A_new after recovery", lba)
			}
		}
	}

	t.Run("redeliver", func(t *testing.T) {
		inner, _, _, rep, entries, news := groupApplySetup(t, 2)
		statuses := rep.ApplyBatchStream(ModePRINS, 0, 0, entries)
		if statuses[0] != iscsi.StatusOK {
			t.Errorf("entry 0 (written before the tear) = %v, want OK", statuses[0])
		}
		if statuses[1] != iscsi.StatusStoreError || statuses[2] != iscsi.StatusStoreError {
			t.Errorf("entries 1,2 = %v,%v, want StoreError (torn write and stopped suffix)", statuses[1], statuses[2])
		}

		// The primary redelivers the batch it saw partially refused: the
		// journal replays the whole group first, then every entry dedupes.
		statuses = rep.ApplyBatchStream(ModePRINS, 0, 0, entries)
		for k, st := range statuses {
			if st != iscsi.StatusOK {
				t.Errorf("redelivered entry %d = %v, want OK", k, st)
			}
		}
		check(t, inner, news)
		if got := rep.LastSeq(); got != 3 {
			t.Errorf("LastSeq = %d, want 3", got)
		}
		if got := rep.Traffic().Snapshot().Duplicates; got != 3 {
			t.Errorf("duplicates = %d, want 3 (the whole redelivered batch)", got)
		}
	})

	t.Run("restart", func(t *testing.T) {
		inner, faulted, backing, rep, entries, news := groupApplySetup(t, 2)
		rep.ApplyBatchStream(ModePRINS, 0, 0, entries)
		_ = rep // crash: only the store and journal backing survive

		rep2, err := NewReplicaEngineJournaled(faulted, journal.New(backing))
		if err != nil {
			t.Fatalf("restart with pending group intent: %v", err)
		}
		check(t, inner, news)
		if got := rep2.LastSeq(); got != 3 {
			t.Errorf("LastSeq after startup replay = %d, want 3", got)
		}
	})

	t.Run("first-write-torn", func(t *testing.T) {
		inner, _, _, rep, entries, news := groupApplySetup(t, 1)
		statuses := rep.ApplyBatchStream(ModePRINS, 0, 0, entries)
		for k, st := range statuses {
			if st != iscsi.StatusStoreError {
				t.Errorf("entry %d = %v, want StoreError (nothing committed)", k, st)
			}
		}
		statuses = rep.ApplyBatchStream(ModePRINS, 0, 0, entries)
		for k, st := range statuses {
			if st != iscsi.StatusOK {
				t.Errorf("redelivered entry %d = %v, want OK", k, st)
			}
		}
		check(t, inner, news)
	})
}

// TestGroupApplyMatchesPerEntry pins the group path's semantic parity:
// a mixed batch — an in-batch duplicate, a same-LBA chain whose second
// entry XORs against its batch-mate's staged block, and a diverged
// entry — produces exactly the statuses the per-entry walk would.
func TestGroupApplyMatchesPerEntry(t *testing.T) {
	const bs, nb = 512, 16
	inner, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	old := make([]byte, bs)
	mid := make([]byte, bs)
	fin := make([]byte, bs)
	oth := make([]byte, bs)
	rng.Read(old)
	rng.Read(mid)
	rng.Read(fin)
	rng.Read(oth)
	if err := inner.WriteBlock(4, old); err != nil {
		t.Fatal(err)
	}
	rep := NewReplicaEngine(inner)

	f1, h1 := prinsFrame(t, old, mid) // lba 4: old -> mid
	f2, h2 := prinsFrame(t, mid, fin) // lba 4: mid -> fin, pre-image staged in-batch
	f3, _ := prinsFrame(t, oth, oth)  // lba 7: wrong pre-image assumption
	entries := []iscsi.BatchEntry{
		{Seq: 1, LBA: 4, Hash: h1, Frame: f1},
		{Seq: 1, LBA: 4, Hash: h1, Frame: f1},                   // duplicate seq: dedupes in-batch
		{Seq: 2, LBA: 4, Hash: h2, Frame: f2},                   // chains off entry 0's staged block
		{Seq: 3, LBA: 7, Hash: iscsi.HashBlock(old), Frame: f3}, // hash cannot match: diverged
	}
	statuses := rep.ApplyBatchStream(ModePRINS, 0, 0, entries)
	want := []iscsi.Status{iscsi.StatusOK, iscsi.StatusOK, iscsi.StatusOK, iscsi.StatusDiverged}
	for k := range want {
		if statuses[k] != want[k] {
			t.Errorf("statuses[%d] = %v, want %v", k, statuses[k], want[k])
		}
	}
	cur := make([]byte, bs)
	if err := inner.ReadBlock(4, cur); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cur, fin) {
		t.Error("lba 4 did not converge to the chained final content")
	}
	if got := rep.LastSeq(); got != 2 {
		t.Errorf("LastSeq = %d, want 2 (the refused seq-3 entry must not advance the cursor)", got)
	}
	if got := rep.Traffic().Snapshot().Duplicates; got != 1 {
		t.Errorf("duplicates = %d, want 1", got)
	}
	if got := rep.Traffic().Snapshot().Diverged; got != 1 {
		t.Errorf("diverged = %d, want 1", got)
	}
}
