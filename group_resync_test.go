package prins_test

import (
	"bytes"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"prins"
	"prins/internal/iscsi"
	"prins/internal/parity"
)

// offlineStore is a unit replica's device that can go away and come
// back: while down, every read and write fails the way a dead disk's
// do, so the replica refuses each push it is sent.
type offlineStore struct {
	prins.Store
	down atomic.Bool
}

var errOffline = errors.New("unit device offline")

func (s *offlineStore) ReadBlock(lba uint64, buf []byte) error {
	if s.down.Load() {
		return errOffline
	}
	return s.Store.ReadBlock(lba, buf)
}

func (s *offlineStore) WriteBlock(lba uint64, data []byte) error {
	if s.down.Load() {
		return errOffline
	}
	return s.Store.WriteBlock(lba, data)
}

// TestGroupResyncReplica drives the rebuild of a group unit through the
// primary's resync, projected onto the unit.
func TestGroupResyncReplica(t *testing.T) {
	// The documented degraded-mode recovery, for a group unit: a unit
	// whose device drops out mid-workload is degraded, its missed LBAs
	// dirty-mapped; Drain, ResyncReplica over exactly those ranges and
	// ClearDegraded bring it back, and live writes land on it again.
	t.Run("dirty-ranges-after-outage", func(t *testing.T) {
		const (
			k, n    = 2, 4
			bs      = 4096
			nb      = 128
			flapped = 2
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
		})
		if err != nil {
			t.Fatal(err)
		}
		defer primary.Close()
		u := primary.GroupUnitSize()
		units := make(map[int]prins.Store, n)
		var unit *offlineStore
		var node *groupNode
		for i := 0; i < n; i++ {
			var store prins.Store = blankUnit(t, u, nb)
			if i == flapped {
				unit = &offlineStore{Store: store}
				store = unit
			}
			nd := serveGroupNode(t, store, i)
			if err := primary.AttachReplicaAddr(nd.addr, nd.export); err != nil {
				t.Fatalf("attach unit %d: %v", i, err)
			}
			if i == flapped {
				node = nd
			}
			units[i] = store
		}

		rng := rand.New(rand.NewSource(5))
		buf := make([]byte, bs)
		write := func(lbas ...uint64) {
			t.Helper()
			for _, lba := range lbas {
				rng.Read(buf)
				if err := primary.WriteBlock(lba, buf); err != nil {
					t.Fatalf("write lba %d: %v", lba, err)
				}
			}
			if err := primary.Drain(); err != nil {
				t.Fatal(err)
			}
		}
		span := func(start, count uint64) []uint64 {
			out := make([]uint64, count)
			for i := range out {
				out[i] = start + uint64(i)
			}
			return out
		}

		write(span(0, 32)...)
		unit.down.Store(true)
		write(append(span(40, 16), 3, 5)...)
		unit.down.Store(false)
		// Still degraded: these are dropped and dirty-mapped too.
		write(span(100, 4)...)
		if !primary.Degraded() {
			t.Fatal("primary not degraded after the unit's device went away")
		}

		dirty := primary.DirtyRanges(flapped)
		var nDirty uint64
		for _, r := range dirty {
			nDirty += r.Count
		}
		want := []prins.Range{{Start: 3, Count: 1}, {Start: 5, Count: 1}, {Start: 40, Count: 16}, {Start: 100, Count: 4}}
		if len(dirty) != len(want) {
			t.Fatalf("dirty ranges %v, want %v", dirty, want)
		}
		for i := range want {
			if dirty[i] != want[i] {
				t.Fatalf("dirty ranges %v, want %v", dirty, want)
			}
		}

		st, err := primary.ResyncReplica(flapped, node.addr, node.export, dirty...)
		if err != nil {
			t.Fatalf("resync unit %d: %v", flapped, err)
		}
		if st.BlocksScanned != nDirty || st.BlocksRepaired != nDirty || st.HashFetches != 0 {
			t.Fatalf("resync scanned %d, repaired %d in %d hash fetches; want %d and %d, no fetch",
				st.BlocksScanned, st.BlocksRepaired, st.HashFetches, nDirty, nDirty)
		}
		if st.DataBytes != int64(nDirty)*int64(u) {
			t.Fatalf("resync shipped %d data bytes, want one unit per dirty block (%d)", st.DataBytes, int64(nDirty)*int64(u))
		}
		assertGroupEncodes(t, local, k, n, units)

		primary.ClearDirty(flapped)
		primary.ClearDegraded()
		write(3, 40, 70, 127)
		if primary.Degraded() || len(primary.DirtyRanges(flapped)) != 0 {
			t.Fatalf("unit %d missed writes after ClearDegraded: degraded=%v dirty=%v",
				flapped, primary.Degraded(), primary.DirtyRanges(flapped))
		}
		assertGroupEncodes(t, local, k, n, units)
	})

	// A ranged rebuild onto a blank unit writes exactly the named blocks
	// — ranges overlapping, out of order and past the device's end — and
	// leaves every other LBA untouched. The stripe is padded (900 B does
	// not divide by k = 3) and the lost unit is a parity unit.
	t.Run("ranges-onto-blank-unit", func(t *testing.T) {
		const (
			k, n = 3, 5
			bs   = 900
			nb   = 32
			lost = 4
		)
		local, err := prins.NewMemStore(bs, nb)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		blk := make([]byte, bs)
		for lba := uint64(0); lba < nb; lba++ {
			rng.Read(blk)
			if err := local.WriteBlock(lba, blk); err != nil {
				t.Fatal(err)
			}
		}
		rs, err := parity.NewRS(k, n)
		if err != nil {
			t.Fatal(err)
		}
		u := rs.UnitSize(bs)
		sink := serveGroupNode(t, blankUnit(t, u, nb), lost)

		st, err := prins.RepairGroupUnit(local, k, n, lost, sink.addr, sink.export,
			prins.Range{Start: 20, Count: 100},
			prins.Range{Start: 4, Count: 6},
			prins.Range{Start: 8, Count: 2},
		)
		if err != nil {
			t.Fatal(err)
		}
		// {8,2} is inside {4,6}; {20,100} clips to {20,12}.
		if want := uint64(6 + 12); st.BlocksScanned != want || st.BlocksRepaired != want {
			t.Fatalf("scanned %d, repaired %d blocks; want %d", st.BlocksScanned, st.BlocksRepaired, want)
		}
		zero := make([]byte, u)
		got := make([]byte, u)
		for lba := uint64(0); lba < nb; lba++ {
			if err := local.ReadBlock(lba, blk); err != nil {
				t.Fatal(err)
			}
			units, err := rs.Encode(blk)
			if err != nil {
				t.Fatal(err)
			}
			if err := sink.store.ReadBlock(lba, got); err != nil {
				t.Fatal(err)
			}
			switch repaired := (lba >= 4 && lba < 10) || lba >= 20; {
			case repaired && !bytes.Equal(got, units[lost]):
				t.Fatalf("lba %d not rebuilt", lba)
			case !repaired && !bytes.Equal(got, zero):
				t.Fatalf("lba %d written outside the ranges", lba)
			}
		}

		if _, err := prins.RepairGroupUnit(local, k, n, n, sink.addr, sink.export); err == nil {
			t.Fatal("unit index outside the group accepted")
		}
		if _, err := prins.RepairGroupUnit(local, n+1, n, lost, sink.addr, sink.export); err == nil {
			t.Fatal("k > n accepted")
		}
	})
}

// servedGroup builds a sync k-of-n PRINS primary over local whose units
// are plain replicas of blank unit-sized devices served on loopback TCP
// and attached in unit order.
func servedGroup(t *testing.T, local prins.Store, k, n int, cfg prins.Config) (*prins.Primary, []*groupNode) {
	t.Helper()
	cfg.Mode, cfg.GroupK, cfg.GroupN = prins.ModePRINS, k, n
	primary, err := prins.NewPrimary(local, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	nodes := make([]*groupNode, n)
	for i := range nodes {
		nodes[i] = serveGroupNode(t, blankUnit(t, primary.GroupUnitSize(), local.NumBlocks()), i)
		if err := primary.AttachReplicaAddr(nodes[i].addr, nodes[i].export); err != nil {
			t.Fatalf("attach unit %d: %v", i, err)
		}
	}
	return primary, nodes
}

// nodeUnits maps each node's unit index to its store.
func nodeUnits(nodes []*groupNode) map[int]prins.Store {
	units := make(map[int]prins.Store, len(nodes))
	for i, nd := range nodes {
		units[i] = nd.store
	}
	return units
}

// TestGroupSwappedUnitsDiverge: a group member carries no unit index of
// its own — the attach order is its index — so what guards a unit
// mounted at the wrong index is the hash of the new unit every PRINS
// entry carries. With units 1 and 2 of a 2-of-3 group holding each
// other's (non-zero) content, the next write to such an LBA is refused
// as diverged by both, which loses the quorum, and lands in both dirty
// maps; a resync of each swapped unit then converges the group.
func TestGroupSwappedUnitsDiverge(t *testing.T) {
	const (
		k, n = 2, 3
		bs   = 1024
		nb   = 16
	)
	local, err := prins.NewMemStore(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	primary, nodes := servedGroup(t, local, k, n, prins.Config{})
	rng := rand.New(rand.NewSource(9))
	buf := make([]byte, bs)
	for lba := uint64(0); lba < nb; lba++ {
		rng.Read(buf)
		if err := primary.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Drain(); err != nil {
		t.Fatal(err)
	}
	units := nodeUnits(nodes)
	assertGroupEncodes(t, local, k, n, units)

	// Swap the contents of units 1 and 2 under their replicas.
	a, b := make([]byte, primary.GroupUnitSize()), make([]byte, primary.GroupUnitSize())
	for lba := uint64(0); lba < nb; lba++ {
		if err := units[1].ReadBlock(lba, a); err != nil {
			t.Fatal(err)
		}
		if err := units[2].ReadBlock(lba, b); err != nil {
			t.Fatal(err)
		}
		if err := units[1].WriteBlock(lba, b); err != nil {
			t.Fatal(err)
		}
		if err := units[2].WriteBlock(lba, a); err != nil {
			t.Fatal(err)
		}
	}

	const lba = 5
	rng.Read(buf)
	if err := primary.WriteBlock(lba, buf); !errors.Is(err, iscsi.ErrDiverged) {
		t.Fatalf("write over swapped units: %v, want the quorum lost to diverged units", err)
	}
	if err := primary.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2} {
		dirty := primary.DirtyRanges(i)
		if len(dirty) != 1 || dirty[0] != (prins.Range{Start: lba, Count: 1}) {
			t.Fatalf("unit %d dirty ranges %v, want lba %d", i, dirty, lba)
		}
	}

	for _, i := range []int{1, 2} {
		st, err := primary.ResyncReplica(i, nodes[i].addr, nodes[i].export)
		if err != nil {
			t.Fatalf("resync unit %d: %v", i, err)
		}
		if st.BlocksRepaired != nb {
			t.Fatalf("resync of unit %d repaired %d blocks, want all %d", i, st.BlocksRepaired, nb)
		}
		primary.ClearDirty(i)
	}
	assertGroupEncodes(t, local, k, n, units)
}

// TestGroupDedupe: ship-by-reference composes with groups. Two LBAs
// holding one block hold one unit at every index, so each unit's
// replica can materialize a copied block from its own store: a copy
// through a 2-of-4 primary ships by reference to every unit, and a
// unit's resync feeds the blocks it proves present into that unit's
// index exactly as a mirror's does.
func TestGroupDedupe(t *testing.T) {
	const (
		k, n = 2, 4
		bs   = 2048
		nb   = 32
	)
	local, err := prins.NewMemStore(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	primary, nodes := servedGroup(t, local, k, n, prins.Config{DedupeEntries: -1})
	rng := rand.New(rand.NewSource(4))
	blocks := make([][]byte, 8)
	for i := range blocks {
		blocks[i] = make([]byte, bs)
		rng.Read(blocks[i])
		if err := primary.WriteBlock(uint64(i), blocks[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Copy every block to a new LBA, as a cp or a tar extract would.
	for i, blk := range blocks {
		if err := primary.WriteBlock(uint64(16+i), blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Drain(); err != nil {
		t.Fatal(err)
	}
	hits := primary.Stats().DedupeHits
	if hits == 0 {
		t.Fatal("no copy shipped by reference")
	}
	units := nodeUnits(nodes)
	assertGroupEncodes(t, local, k, n, units)

	// A block that reached the units only through a resync: written under
	// the primary, then repaired onto every unit. Copying it ships by
	// reference only if each resync taught its unit's index the unit.
	learned := make([]byte, bs)
	rng.Read(learned)
	if err := local.WriteBlock(10, learned); err != nil {
		t.Fatal(err)
	}
	for i, nd := range nodes {
		st, err := primary.ResyncReplica(i, nd.addr, nd.export, prins.Range{Start: 10, Count: 1})
		if err != nil {
			t.Fatalf("resync unit %d: %v", i, err)
		}
		if st.BlocksRepaired != 1 {
			t.Fatalf("resync of unit %d repaired %d blocks, want 1", i, st.BlocksRepaired)
		}
	}
	if err := primary.WriteBlock(30, learned); err != nil {
		t.Fatal(err)
	}
	if err := primary.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := primary.Stats().DedupeHits - hits; got != n {
		t.Fatalf("copy of a resynced block: %d by-reference hits, want one per unit (%d)", got, n)
	}
	assertGroupEncodes(t, local, k, n, units)
}
