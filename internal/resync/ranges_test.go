package resync

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"prins/internal/block"
	"prins/internal/iscsi"
	"prins/internal/wan"
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

	// Cancel fired while the first batches are hashed: the run stops
	// before its next local read, with stats counting exactly the
	// completed work. After 6 reads nothing was issued. After a whole
	// batch of reads its fetch went out — the cancel is polled before a
	// read, not before a fetch — and is answered, with the batch's
	// hashes since lba 5 differs, but nothing was compared.
	for _, tc := range []struct {
		after   int
		fetches int64
	}{{6, 0}, {batch, 1}} {
		cancel := make(chan struct{})
		gated := &cancelStore{Store: local, after: tc.after, cancel: cancel}
		stats, err = Run(gated, remote, Config{Batch: batch, Cancel: cancel})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("cancel after %d reads: err = %v, want ErrCanceled", tc.after, err)
		}
		want := Stats{HashFetches: tc.fetches, HashBytes: tc.fetches * batch * iscsi.HashSize}
		want.WireBytes = int64(wan.WireBytesDiscrete(int(want.HashBytes)))
		if stats != want {
			t.Errorf("cancel after %d reads: stats %+v, want %+v", tc.after, stats, want)
		}
	}

	// Resuming without a cancel finishes the job.
	stats, err = Run(local, remote, Config{Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksScanned != nb || stats.BlocksRepaired != 3 {
		t.Errorf("resumed run scanned=%d repaired=%d, want %d/3", stats.BlocksScanned, stats.BlocksRepaired, nb)
	}
	if eq, _ := block.Equal(local, replica); !eq {
		t.Error("replica still diverged after resumed run")
	}
}
