package resync

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"prins/internal/block"
)

// seededPair builds identical local/replica stores of random content
// and diverges the given replica LBAs.
func seededPair(t *testing.T, bs int, nb uint64, seed int64, diverge []uint64) (local, replica block.Store) {
	t.Helper()
	local, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	replica, err = block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, bs)
	for lba := uint64(0); lba < nb; lba++ {
		rng.Read(buf)
		if err := local.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
		if err := replica.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
	}
	for _, lba := range diverge {
		rng.Read(buf)
		if err := replica.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
	}
	return local, replica
}

// TestRunRangesScansOnlyNamedRanges: an incremental resync touches
// exactly the requested runs — divergence outside them is left alone —
// and the input is normalized (unsorted, adjacent, duplicate runs).
func TestRunRangesScansOnlyNamedRanges(t *testing.T) {
	const (
		bs = 512
		nb = 200
	)
	local, replica := seededPair(t, bs, nb, 3, []uint64{10, 11, 99, 150})
	remote := remoteFor(t, replica, "r")

	stats, err := RunRanges(local, remote, Config{},
		block.Range{Start: 150, Count: 1},
		block.Range{Start: 10, Count: 2},
		block.Range{Start: 11, Count: 1}) // merges into {10,2}
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksScanned != 3 || stats.BlocksRepaired != 3 {
		t.Fatalf("scanned=%d repaired=%d, want 3/3", stats.BlocksScanned, stats.BlocksRepaired)
	}

	// Block 99 was outside every range: still diverged.
	if eq, _ := block.Equal(local, replica); eq {
		t.Fatal("out-of-range divergence was repaired")
	}
	lba, _, err := block.FirstDiff(local, replica)
	if err != nil {
		t.Fatal(err)
	}
	if lba != 99 {
		t.Errorf("remaining divergence at %d, want 99", lba)
	}

	// An empty range set is a successful no-op.
	stats, err = RunRanges(local, remote, Config{})
	if err != nil || stats.BlocksScanned != 0 {
		t.Errorf("empty ranges: stats=%+v err=%v", stats, err)
	}
}

// cancelStore closes a cancel channel once n blocks have been read —
// deterministically aborting a resync at a specific block.
type cancelStore struct {
	block.Store
	after  int
	cancel chan struct{}

	mu    sync.Mutex
	reads int
	once  sync.Once
}

func (c *cancelStore) ReadBlock(lba uint64, buf []byte) error {
	c.mu.Lock()
	c.reads++
	fire := c.reads >= c.after
	c.mu.Unlock()
	if fire {
		c.once.Do(func() { close(c.cancel) })
	}
	return c.Store.ReadBlock(lba, buf)
}

func TestResyncCancel(t *testing.T) {
	const (
		bs    = 512
		nb    = 200
		batch = 64
	)
	local, replica := seededPair(t, bs, nb, 4, []uint64{5, 70, 190})
	remote := remoteFor(t, replica, "r")

	// A cancel already pending aborts before any batch: zero stats.
	done := make(chan struct{})
	close(done)
	stats, err := Run(local, remote, Config{Batch: batch, Cancel: done})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if stats.BlocksScanned != 0 || stats.BlocksRepaired != 0 || stats.WireBytes != 0 {
		t.Errorf("pre-canceled run did work: %+v", stats)
	}

	// Cancel fired in the middle of the first batch: the run stops at the
	// next block, not at the batch boundary, with stats counting exactly
	// the completed work. After 6 reads, and still after 10, the span
	// holding lba 5 is being gathered and is dropped: a matching block
	// (lba 6) no longer closes a span, which ends with its batch.
	for _, tc := range []struct{ after, repaired int }{{6, 0}, {10, 0}} {
		cancel := make(chan struct{})
		gated := &cancelStore{Store: local, after: tc.after, cancel: cancel}
		stats, err = Run(gated, remote, Config{Batch: batch, Cancel: cancel})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("cancel after %d reads: err = %v, want ErrCanceled", tc.after, err)
		}
		if stats.BlocksScanned != uint64(tc.after) {
			t.Errorf("cancel after %d reads: scanned %d blocks, want no block compared after the cancel fired", tc.after, stats.BlocksScanned)
		}
		if stats.BlocksRepaired != uint64(tc.repaired) || stats.RepairWrites != int64(tc.repaired) ||
			stats.DataBytes != int64(tc.repaired*bs) || stats.HashFetches == 0 {
			t.Errorf("cancel after %d reads: inconsistent stats %+v", tc.after, stats)
		}
	}
	if err := replica.WriteBlock(5, make([]byte, bs)); err != nil { // diverge lba 5 again for the next case
		t.Fatal(err)
	}

	// Cancel fired on the last block of the first batch: the run stops
	// before the second.
	cancel := make(chan struct{})
	gated := &cancelStore{Store: local, after: batch, cancel: cancel}
	stats, err = Run(gated, remote, Config{Batch: batch, Cancel: cancel})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if stats.BlocksScanned != batch {
		t.Errorf("scanned = %d, want exactly one batch (%d)", stats.BlocksScanned, batch)
	}
	if stats.BlocksRepaired != 1 { // only lba 5 lies in the first batch
		t.Errorf("repaired = %d, want 1", stats.BlocksRepaired)
	}
	if stats.HashBytes == 0 || stats.WireBytes == 0 {
		t.Errorf("canceled run lost its wire accounting: %+v", stats)
	}

	// Resuming without a cancel finishes the job.
	stats, err = Run(local, remote, Config{Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksScanned != nb || stats.BlocksRepaired != 2 {
		t.Errorf("resumed run scanned=%d repaired=%d, want %d/2", stats.BlocksScanned, stats.BlocksRepaired, nb)
	}
	if eq, _ := block.Equal(local, replica); !eq {
		t.Error("replica still diverged after resumed run")
	}
}
