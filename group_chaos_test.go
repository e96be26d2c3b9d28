package prins_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"prins"
	"prins/internal/parity"
)

// groupNode is one served group replica: its unit store, the Replica
// wrapper, and the TCP endpoint it serves.
type groupNode struct {
	store   prins.Store
	replica *prins.Replica
	addr    string
	export  string
}

// blankUnit returns a zeroed unit-sized store of nb blocks.
func blankUnit(tb testing.TB, unitSize int, nb uint64) prins.Store {
	tb.Helper()
	store, err := prins.NewMemStore(unitSize, nb)
	if err != nil {
		tb.Fatal(err)
	}
	return store
}

// serveGroupNode serves store, a plain replica of a unit-sized device,
// on loopback TCP as export "unit<idx>" until the test ends.
func serveGroupNode(tb testing.TB, store prins.Store, idx int) *groupNode {
	tb.Helper()
	rep := prins.NewReplica(store)
	export := fmt.Sprintf("unit%d", idx)
	addr, err := rep.Serve("127.0.0.1:0", export)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { rep.Close() })
	return &groupNode{store: store, replica: rep, addr: addr.String(), export: export}
}

// assertGroupEncodes checks that each given unit store holds, at every
// LBA, exactly its unit of the k-of-n RS encoding of local's block.
func assertGroupEncodes(tb testing.TB, local prins.Store, k, n int, units map[int]prins.Store) {
	tb.Helper()
	rs, err := parity.NewRS(k, n)
	if err != nil {
		tb.Fatal(err)
	}
	u := rs.UnitSize(local.BlockSize())
	want := make([][]byte, n)
	for i := range want {
		want[i] = make([]byte, u)
	}
	blk := make([]byte, local.BlockSize())
	got := make([]byte, u)
	for lba := uint64(0); lba < local.NumBlocks(); lba++ {
		if err := local.ReadBlock(lba, blk); err != nil {
			tb.Fatal(err)
		}
		if err := rs.EncodeInto(want, blk); err != nil {
			tb.Fatal(err)
		}
		for i, store := range units {
			if err := store.ReadBlock(lba, got); err != nil {
				tb.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				tb.Fatalf("lba %d: unit %d is not the RS encoding of the primary's block", lba, i)
			}
		}
	}
}

// TestGroupChaosKillReplicasMidStripeThenResync is the end-to-end
// robustness drill for erasure-coded groups: a 2-of-4 group takes a
// sync write workload over real TCP sessions, n-k=2 replicas are
// killed while writes are in flight, quorum commit keeps the workload
// succeeding on the two survivors, and the two lost units are then
// rebuilt onto fresh replacements by the primary's resync, projected
// onto each unit. Afterwards every unit — survivor and replacement
// alike — must hold exactly the Reed-Solomon encoding of the final
// primary content, each rebuild must have shipped one unit per block,
// and the two rebuilds together must cost about half the modelled wire
// bytes a full-copy mirror deployment pays to re-seed one lost replica
// per unit.
func TestGroupChaosKillReplicasMidStripeThenResync(t *testing.T) {
	const (
		k  = 2
		n  = 4
		bs = 4096
		nb = 256
	)
	local, err := prins.NewMemStore(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	primary, err := prins.NewPrimary(local, prins.Config{
		Mode:          prins.ModePRINS,
		GroupK:        k,
		GroupN:        n,
		AllowDegraded: true,
		RetryAttempts: 2,
		RetryTimeout:  200 * time.Millisecond,
		RetryBackoff:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	u := primary.GroupUnitSize()
	if u != bs/k {
		t.Fatalf("unit size = %d, want %d", u, bs/k)
	}
	nodes := make([]*groupNode, n)
	for i := 0; i < n; i++ {
		nodes[i] = serveGroupNode(t, blankUnit(t, u, nb), i)
		if err := primary.AttachReplicaAddr(nodes[i].addr, nodes[i].export); err != nil {
			t.Fatalf("attach unit %d: %v", i, err)
		}
	}

	// Writer: one full sequential pass so every block diverges from a
	// zeroed device (keeps the mirror baseline honest — it must recopy
	// everything), then random overwrites. Sync writes: each returns
	// only once a k-quorum of units is durable.
	const overwrites = 64
	killAt := make(chan struct{})
	writerErr := make(chan error, 1)
	var once sync.Once
	go func() {
		rng := rand.New(rand.NewSource(7))
		buf := make([]byte, bs)
		write := func(lba uint64) error {
			rng.Read(buf)
			return primary.WriteBlock(lba, buf)
		}
		for lba := uint64(0); lba < nb; lba++ {
			if lba == nb/3 {
				once.Do(func() { close(killAt) })
			}
			if err := write(lba); err != nil {
				writerErr <- fmt.Errorf("write lba %d: %w", lba, err)
				return
			}
		}
		for i := 0; i < overwrites; i++ {
			if err := write(uint64(rng.Intn(nb))); err != nil {
				writerErr <- fmt.Errorf("overwrite %d: %w", i, err)
				return
			}
		}
		writerErr <- nil
	}()

	// Kill units 1 and 2 while the workload is mid-flight. Quorum is
	// exactly met by the survivors, so every write must still commit.
	<-killAt
	lost := []int{1, 2}
	for _, i := range lost {
		if err := nodes[i].replica.Close(); err != nil {
			t.Fatalf("kill unit %d: %v", i, err)
		}
	}
	if err := <-writerErr; err != nil {
		t.Fatalf("workload stalled after losing n-k replicas: %v", err)
	}
	if err := primary.Drain(); err != nil {
		t.Fatal(err)
	}
	if !primary.Degraded() {
		t.Fatal("primary not degraded after killing two replicas")
	}

	// Rebuild each lost unit onto a fresh replacement. The primary holds
	// every block, so it ships exactly one unit per block.
	units := make(map[int]prins.Store, n)
	for i, node := range nodes {
		units[i] = node.store
	}
	var unitWire int64
	for _, li := range lost {
		sink := serveGroupNode(t, blankUnit(t, u, nb), li)
		units[li] = sink.store
		st, err := primary.ResyncReplica(li, sink.addr, sink.export)
		if err != nil {
			t.Fatalf("rebuild unit %d: %v", li, err)
		}
		if st.BlocksRepaired != nb || st.DataBytes != int64(nb*u) {
			t.Fatalf("rebuild of unit %d repaired %d blocks with %d data bytes, want %d with %d",
				li, st.BlocksRepaired, st.DataBytes, nb, nb*u)
		}
		unitWire += st.WireBytes
	}
	assertGroupEncodes(t, local, k, n, units)

	// Bandwidth: a mirror deployment losing the same two replicas
	// re-seeds each with a full-device delta resync of whole blocks, k
	// units' worth each. Both sides use the same discrete packet model,
	// so the ratio is deterministic: about 1/k.
	mirrorStore, err := prins.NewMemStore(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	mirror := prins.NewReplica(mirrorStore)
	defer mirror.Close()
	maddr, err := mirror.Serve("127.0.0.1:0", "mirror")
	if err != nil {
		t.Fatal(err)
	}
	rst, err := prins.Resync(local, maddr.String(), "mirror", false)
	if err != nil {
		t.Fatal(err)
	}
	if rst.BlocksRepaired != nb {
		t.Fatalf("mirror baseline repaired %d blocks, want %d (workload must dirty every block)", rst.BlocksRepaired, nb)
	}
	mirrorWire := int64(len(lost)) * rst.WireBytes
	if ratio := float64(unitWire) / float64(mirrorWire); ratio > 0.51 {
		t.Fatalf("unit rebuilds modelled %d wire bytes, %.3f of the mirror re-seed's %d; want <= 0.51",
			unitWire, ratio, mirrorWire)
	}
	t.Logf("unit rebuilds: %d modelled wire bytes; mirror resync x%d: %d (%.3f)",
		unitWire, len(lost), mirrorWire, float64(unitWire)/float64(mirrorWire))
}
