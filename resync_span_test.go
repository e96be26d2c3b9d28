package prins_test

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"prins"
	"prins/internal/memfs"
)

// writeLog is a store that remembers which blocks were written: the
// dirty ranges a primary keeps for a replica that missed the writes.
type writeLog struct {
	prins.Store
	mu      sync.Mutex
	written map[uint64]bool
}

func (w *writeLog) WriteBlock(lba uint64, data []byte) error {
	w.mu.Lock()
	w.written[lba] = true
	w.mu.Unlock()
	return w.Store.WriteBlock(lba, data)
}

// ranges returns the written blocks as one-block ranges, in LBA order
// (the resync merges neighbours), and forgets them.
func (w *writeLog) ranges() []prins.Range {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]prins.Range, 0, len(w.written))
	for lba := range w.written {
		out = append(out, prins.Range{Start: lba, Count: 1})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	w.written = map[uint64]bool{}
	return out
}

// serveReplica serves store as a plain replica on loopback TCP.
func serveReplica(t *testing.T, store prins.Store) string {
	t.Helper()
	r := prins.NewReplica(store)
	addr, err := r.Serve("127.0.0.1:0", "vol")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return addr.String()
}

// TestResyncTarSpanCeiling pins what a repair span saves on the
// outage workload's data (bench/'s tar-dedupe-outage-t3): a memfs tree
// of 512 B blocks, 2 directories of one 14 KiB text file, copied to a
// replica; then 64 edit+tar rounds the replica misses, and a ranged
// resync of the blocks they wrote. The repaired blocks are text, and
// archive copies of file blocks repaired in the same pass, so their
// spans go out DEFLATE-compressed. Sent bytes per repaired block are
// held to the ceiling this run recorded, 121 blocks sent as 6748 B in
// 2 spans (61952 B as raw blocks), and the replica must come out
// byte-identical and fsck-clean.
func TestResyncTarSpanCeiling(t *testing.T) {
	const bs, nb = 512, 16 << 10
	disk, err := prins.NewMemStore(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	primary := &writeLog{Store: disk, written: map[uint64]bool{}}
	fs, err := memfs.Mkfs(primary)
	if err != nil {
		t.Fatal(err)
	}
	tree := memfs.MicroBenchmark{Dirs: 2, FilesPerDir: 1, FileSize: 14 << 10, ChangeFraction: 0.5, EditFraction: 0.1}
	runner, err := memfs.NewMicroRunner(fs, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := prins.NewMemStore(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	if err := prins.CopyStore(replica, disk); err != nil {
		t.Fatal(err)
	}
	primary.ranges()
	for round := 1; round <= 64; round++ {
		if _, err := runner.Round(round); err != nil {
			t.Fatal(err)
		}
	}

	st, err := prins.ResyncRanges(disk, serveReplica(t, replica), "vol", false, primary.ranges()...)
	if err != nil {
		t.Fatal(err)
	}
	if st.BlocksRepaired == 0 || st.DataBytes != int64(st.BlocksRepaired)*bs {
		t.Fatalf("repaired %d blocks as %d data bytes", st.BlocksRepaired, st.DataBytes)
	}
	perBlock := float64(st.SentBytes) / float64(st.BlocksRepaired)
	t.Logf("repaired %d of %d blocks in %d spans: %d data bytes sent as %d (%.1f B per block)",
		st.BlocksRepaired, st.BlocksScanned, st.RepairWrites, st.DataBytes, st.SentBytes, perBlock)
	if ceiling := 55.8; perBlock > ceiling {
		t.Errorf("repair spans sent %.1f B per repaired block, ceiling %.1f", perBlock, ceiling)
	}
	if eq, err := prins.Equal(disk, replica); err != nil || !eq {
		t.Fatalf("replica differs after the resync (err %v)", err)
	}
	rfs, err := memfs.Mount(replica)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rfs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fsck on the replica: %v", rep.Problems)
	}
}

// TestResyncRandomSpanFraming: data that does not compress costs a
// repair span no more than its framing — a mask of at most one bit per
// block of a 64 KiB stretch, and a 5-byte frame header — over the raw
// blocks.
func TestResyncRandomSpanFraming(t *testing.T) {
	const bs, nb = 512, 4096
	local, err := prins.NewMemStore(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := prins.NewMemStore(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	buf := make([]byte, bs)
	for lba := uint64(0); lba < nb; lba++ {
		rng.Read(buf)
		if err := local.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(4) != 0 { // a quarter of the blocks diverge
			if err := replica.WriteBlock(lba, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := prins.Resync(local, serveReplica(t, replica), "vol", false)
	if err != nil {
		t.Fatal(err)
	}
	const maxFraming = (64<<10)/bs/8 + 5
	if st.SentBytes < st.DataBytes || st.SentBytes > st.DataBytes+st.RepairWrites*maxFraming {
		t.Errorf("%d spans sent %d bytes for %d of random blocks, want at most %d B of framing each",
			st.RepairWrites, st.SentBytes, st.DataBytes, maxFraming)
	}
	if eq, err := prins.Equal(local, replica); err != nil || !eq {
		t.Fatalf("replica differs after the resync (err %v)", err)
	}
}
