package prins_test

import (
	"math/rand"
	"net"
	"sort"
	"sync"
	"testing"

	"prins"
	"prins/internal/block"
	"prins/internal/iscsi"
	"prins/internal/memfs"
	"prins/internal/resync"
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

// tarOutage builds the outage workload's data (bench/'s
// tar-dedupe-outage-t3): a memfs tree of 512 B blocks, 2 directories of
// one 14 KiB text file, copied to a replica; then 64 edit+tar rounds the
// replica misses. It returns the primary's device, the replica's and the
// blocks the rounds wrote, as one-block ranges.
func tarOutage(t *testing.T) (disk, replica prins.Store, dirty []prins.Range) {
	t.Helper()
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
	if replica, err = prins.NewMemStore(bs, nb); err != nil {
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
	return disk, replica, primary.ranges()
}

// TestResyncTarSpanCeiling pins what a repair span saves on the
// outage workload's data (tarOutage): a ranged resync of the blocks the
// rounds wrote. The repaired blocks are text, so their spans go out
// DEFLATE-compressed, and half of the big span's blocks are the
// archive's copies of file blocks repaired in the same span, so they go
// out as copies, named in the copy list and left out of the frame. Sent
// bytes per repaired block are held to the ceiling this run recorded,
// 121 blocks sent as 6182 B in 2 spans (61952 B as raw blocks; 6748 B
// while every copy went out in the frame), and the replica must come out
// byte-identical and fsck-clean.
func TestResyncTarSpanCeiling(t *testing.T) {
	const bs = 512
	disk, replica, dirty := tarOutage(t)
	st, err := prins.ResyncRanges(disk, serveReplica(t, replica), "vol", false, dirty...)
	if err != nil {
		t.Fatal(err)
	}
	if st.BlocksRepaired == 0 || st.DataBytes != int64(st.BlocksRepaired)*bs {
		t.Fatalf("repaired %d blocks as %d data bytes", st.BlocksRepaired, st.DataBytes)
	}
	perBlock := float64(st.SentBytes) / float64(st.BlocksRepaired)
	t.Logf("repaired %d of %d blocks in %d spans: %d data bytes sent as %d (%.1f B per block)",
		st.BlocksRepaired, st.BlocksScanned, st.RepairWrites, st.DataBytes, st.SentBytes, perBlock)
	if ceiling := 51.1; perBlock > ceiling {
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

// TestResyncTarPassWire meters the connection under the same ranged
// resync of the outage workload (tarOutage), both ways: the hash
// commands and their answers, the repair spans and their responses,
// headers included. The pass's dirty ranges hold fewer blocks than one
// command's batch, so they go out as the units of one hash command where
// each range cost a command of its own before; and the whole pass is
// held to the ceiling this run recorded, 7526 B: 8692 B while each of
// the eight units went out as a command of its own and every copy in
// its span's frame.
func TestResyncTarPassWire(t *testing.T) {
	disk, replica, dirty := tarOutage(t)
	ranges := make([]block.Range, len(dirty))
	for k, r := range dirty {
		ranges[k] = block.Range{Start: r.Start, Count: r.Count}
	}
	if n := len(block.NormalizeRanges(ranges, disk.NumBlocks())); n < 2 {
		t.Fatalf("the rounds left %d dirty range, want several", n)
	}

	target := iscsi.NewTarget()
	target.Export("r", &iscsi.StoreBackend{Store: replica})
	client, server := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		target.ServeConn(server)
	}()
	both := &meteredConn{Conn: client}
	meter := &pduMeter{Conn: both}
	remote := iscsi.NewInitiator(meter)
	t.Cleanup(func() {
		remote.Close()
		wg.Wait()
	})
	if err := remote.Login("r"); err != nil {
		t.Fatal(err)
	}
	wire, pdus := both.n.Load(), meter.pdus

	st, err := resync.RunRanges(disk, remote, resync.Config{}, ranges...)
	if err != nil {
		t.Fatal(err)
	}
	wire, pdus = both.n.Load()-wire, meter.pdus-pdus
	t.Logf("scanned %d blocks in %d hash commands (%d B of hashes), repaired %d in %d spans (%d B sent): %d B on the connection",
		st.BlocksScanned, st.HashFetches, st.HashBytes, st.BlocksRepaired, st.RepairWrites, st.SentBytes, wire)
	if st.HashFetches != 1 || pdus != st.HashFetches+st.RepairWrites {
		t.Errorf("%d PDUs for %d hash commands and %d spans, want one hash command", pdus, st.HashFetches, st.RepairWrites)
	}
	if want := 2*48*pdus + st.SentBytes + st.HashBytes; wire < want {
		t.Errorf("%d B on the connection, less than the %d B the commands and answers carry", wire, want)
	}
	if ceiling := int64(7526); wire > ceiling {
		t.Errorf("the pass put %d B on the connection, ceiling %d", wire, ceiling)
	}
	if eq, err := prins.Equal(disk, replica); err != nil || !eq {
		t.Fatalf("replica differs after the resync (err %v)", err)
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

// TestResyncTarPassWireUnasked meters the same pass as
// TestResyncTarPassWire with the dirty ranges marked, as the engine's
// dirty map hands them out (Engine.DirtyRanges): no hash command goes
// out, so the connection carries only the repair spans and their
// responses. The blocks the rounds wrote but left as they were ship
// too. The pass is held to the ceiling this run recorded, 6385 B: 7526 B
// while it asked the replica first.
func TestResyncTarPassWireUnasked(t *testing.T) {
	disk, replica, dirty := tarOutage(t)
	ranges := make([]block.Range, len(dirty))
	for k, r := range dirty {
		ranges[k] = block.Range{Start: r.Start, Count: r.Count, Dirty: true}
	}

	target := iscsi.NewTarget()
	target.Export("r", &iscsi.StoreBackend{Store: replica})
	client, server := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		target.ServeConn(server)
	}()
	both := &meteredConn{Conn: client}
	meter := &pduMeter{Conn: both}
	remote := iscsi.NewInitiator(meter)
	t.Cleanup(func() {
		remote.Close()
		wg.Wait()
	})
	if err := remote.Login("r"); err != nil {
		t.Fatal(err)
	}
	wire, pdus := both.n.Load(), meter.pdus

	st, err := resync.RunRanges(disk, remote, resync.Config{}, ranges...)
	if err != nil {
		t.Fatal(err)
	}
	wire, pdus = both.n.Load()-wire, meter.pdus-pdus
	t.Logf("shipped %d blocks unasked in %d spans (%d B sent): %d B on the connection",
		st.BlocksRepaired, st.RepairWrites, st.SentBytes, wire)
	if n := block.CountBlocks(block.NormalizeRanges(ranges, disk.NumBlocks())); st.BlocksScanned != n || st.BlocksRepaired != n {
		t.Errorf("scanned %d, repaired %d; want all %d dirty blocks shipped", st.BlocksScanned, st.BlocksRepaired, n)
	}
	if st.HashFetches != 0 || st.HashBytes != 0 || pdus != st.RepairWrites {
		t.Errorf("%d PDUs for %d hash commands and %d spans, want only the spans", pdus, st.HashFetches, st.RepairWrites)
	}
	if ceiling := int64(6385); wire > ceiling {
		t.Errorf("the pass put %d B on the connection, ceiling %d", wire, ceiling)
	}
	if eq, err := prins.Equal(disk, replica); err != nil || !eq {
		t.Fatalf("replica differs after the resync (err %v)", err)
	}
}
