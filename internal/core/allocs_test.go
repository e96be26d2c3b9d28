package core

import (
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
// per-call slices, maps or sorts. The ceilings are the values measured
// on the per-path code those cases had before the collapse.
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

// Ceilings for TestBatchOfOneAllocs, measured at the commit before the
// push paths were collapsed.
const (
	applyAllocs          float64 = 4
	applyJournaledAllocs float64 = 6
	writeAllocs          float64 = 4 // all four are the replica apply's
)
