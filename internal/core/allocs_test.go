package core

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"prins/internal/block"
	"prins/internal/iscsi"
	"prins/internal/journal"
	"prins/internal/parity"
	"prins/internal/xcode"
)

// TestBatchOfOneAllocs pins what the degenerate cases of the shared
// paths cost: a replica apply of one entry and one async write through
// a Loopback. A single write is the batch of one and a single apply is
// the group of one, so folding them into the batch code must not add
// per-call slices, maps or sorts — and, since the replica stages into
// its stream's slots and the journal assembles its record in its own
// buffer, no per-call buffer either: the ceilings are zero.
func TestBatchOfOneAllocs(t *testing.T) {
	const bs, nb = 4096, 16
	// Two images of one block that differ in a 10% region, so the PRINS
	// frame is a short ZRL run and the apply alternates between them.
	a, b := make([]byte, bs), make([]byte, bs)
	for i := range a {
		a[i] = byte(i * 7)
		b[i] = a[i]
	}
	for i := 100; i < 100+bs/10; i++ {
		b[i] ^= 0x5A
	}
	fp := make([]byte, bs)
	if err := parity.ForwardInto(fp, b, a); err != nil {
		t.Fatal(err)
	}
	frame, err := xcode.EncodeBest(fp, xcode.CodecZRL)
	if err != nil {
		t.Fatal(err)
	}
	hashes := [2]uint64{iscsi.HashBlock(a), iscsi.HashBlock(b)}

	replica := func(journaled bool) *ReplicaEngine {
		t.Helper()
		store, err := block.NewMem(bs, nb)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.WriteBlock(3, a); err != nil {
			t.Fatal(err)
		}
		if !journaled {
			return NewReplicaEngine(store)
		}
		rep, err := NewReplicaEngineJournaled(store, journal.New(&journal.Mem{}))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	for _, tc := range []struct {
		name      string
		journaled bool
		ceiling   float64
	}{
		{"apply-unjournaled", false, applyAllocs},
		{"apply-journaled", true, applyJournaledAllocs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := replica(tc.journaled)
			var seq uint64
			got := testing.AllocsPerRun(200, func() {
				seq++
				// The XOR of the two images toggles the block: odd seqs
				// land b, even seqs land a.
				if err := rep.ApplyStream(ModePRINS, 0, 0, seq, 3, hashes[seq%2], frame); err != nil {
					t.Fatal(err)
				}
			})
			if got > tc.ceiling {
				t.Errorf("one-entry replica apply: %.1f allocs, ceiling %.0f", got, tc.ceiling)
			}
		})
	}

	t.Run("async-write-loopback", func(t *testing.T) {
		primary, err := block.NewMem(bs, nb)
		if err != nil {
			t.Fatal(err)
		}
		if err := primary.WriteBlock(3, a); err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(primary, Config{Mode: ModePRINS, Async: true})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if err := eng.AttachReplica(&Loopback{Replica: replica(false)}); err != nil {
			t.Fatal(err)
		}
		images := [2][]byte{a, b}
		var n int
		got := testing.AllocsPerRun(200, func() {
			n++
			if err := eng.WriteBlock(3, images[n%2]); err != nil {
				t.Fatal(err)
			}
			// Draining after every write keeps each ship a batch of one
			// and the shipper's allocations inside the measured run.
			if err := eng.Drain(); err != nil {
				t.Fatal(err)
			}
		})
		if got > writeAllocs {
			t.Errorf("one async write through a Loopback: %.1f allocs, ceiling %.0f", got, writeAllocs)
		}
	})
}

// Ceilings for TestBatchOfOneAllocs.
const (
	applyAllocs          float64 = 0
	applyJournaledAllocs float64 = 0
	writeAllocs          float64 = 0
)

// TestBatchSteadyStateAllocs pins what a batched push costs once its
// stream is warm: the status vector it returns and nothing else, for a
// 32-entry batch that mixes sparse (ZRL) and dense (raw-floored)
// parities and carries two same-LBA predecessors, journaled or not.
func TestBatchSteadyStateAllocs(t *testing.T) {
	const bs, nb, n = 4096, 64, 32
	rng := rand.New(rand.NewSource(5))
	for _, journaled := range []bool{false, true} {
		store, err := block.NewMem(bs, nb)
		if err != nil {
			t.Fatal(err)
		}
		rep := NewReplicaEngine(store)
		if journaled {
			if rep, err = NewReplicaEngineJournaled(store, journal.NewMem()); err != nil {
				t.Fatal(err)
			}
		}
		// Entry i toggles block lba(i) by a fixed parity, so the same
		// frames apply again and again; entries 30 and 31 revisit the
		// LBAs of 0 and 1 inside the push. Unverified (hash 0): the
		// verified path is TestBatchOfOneAllocs' and the benchmark's.
		entries := make([]iscsi.BatchEntry, n)
		var codecs [3]int
		for i := range entries {
			fp := make([]byte, bs)
			if i%2 == 0 {
				rng.Read(fp[100 : 100+bs/10])
			} else {
				rng.Read(fp)
			}
			frame, err := xcode.EncodeBest(fp, xcode.CodecZRL)
			if err != nil {
				t.Fatal(err)
			}
			entries[i] = iscsi.BatchEntry{LBA: uint64(i % 30), Frame: frame}
			codecs[frame[0]]++
		}
		if codecs[xcode.CodecRaw] == 0 || codecs[xcode.CodecZRL] == 0 {
			t.Fatalf("batch is not mixed: %v", codecs)
		}
		var seq uint64
		push := func() {
			for i := range entries {
				seq++
				entries[i].Seq = seq
			}
			for k, st := range rep.HandleReplicaBatchStream(uint8(ModePRINS), 1, 0, entries) {
				if st != iscsi.StatusOK {
					t.Fatalf("entry %d: %v", k, st)
				}
			}
		}
		push() // warm-up: slots, order, map, journal record
		if got := testing.AllocsPerRun(50, push); got > 1 {
			t.Errorf("journaled=%v: a warm 32-entry push allocates %.1f times, want 1 (the status vector)", journaled, got)
		}
	}
}

// TestHostileFrameLength is the amplification regression test: a
// five-byte ZRL frame is valid by the trailing-zeros contract and may
// declare any length up to xcode.MaxBlockLen, so the replica must
// refuse it on the declared length, before it takes or zeroes a buffer
// of that size. A batch of 64 is refused entry by entry, for no more
// than a steady-state push costs.
func TestHostileFrameLength(t *testing.T) {
	store, err := block.NewMem(4096, 16)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplicaEngine(store)
	hostile := []byte{byte(xcode.CodecZRL), 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hostile[1:], xcode.MaxBlockLen)
	if n, err := xcode.DecodedLen(hostile); err != nil || n != xcode.MaxBlockLen {
		t.Fatalf("the hostile frame must parse: len %d, err %v", n, err)
	}
	entries := make([]iscsi.BatchEntry, 64)
	for i := range entries {
		entries[i] = iscsi.BatchEntry{Seq: uint64(i + 1), LBA: uint64(i % 16), Frame: hostile}
	}
	want := statusOf(block.ErrBadBufSize)
	push := func() {
		for k, st := range rep.HandleReplicaBatchStream(uint8(ModePRINS), 0, 0, entries) {
			if st != want {
				t.Fatalf("entry %d: status %v, want %v", k, st, want)
			}
		}
	}
	push()
	if got := testing.AllocsPerRun(20, push); got > 1 {
		t.Errorf("refusing 64 hostile frames allocates %.1f times, want 1 (the status vector)", got)
	}
	if err := rep.Apply(ModePRINS, 1, 0, 0, hostile); !errors.Is(err, block.ErrBadBufSize) {
		t.Errorf("single apply: %v, want block.ErrBadBufSize", err)
	}
	if got := rep.Traffic().Snapshot().ReplicaWrites; got != 0 {
		t.Errorf("%d hostile entries applied", got)
	}
}
