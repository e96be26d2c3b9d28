package prins_test

import (
	"bytes"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"prins"
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
			nd := serveGroupNode(t, store, k, n, i)
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
		if st.BlocksScanned != nDirty || st.BlocksRepaired != nDirty || st.HashFetches == 0 {
			t.Fatalf("resync scanned %d, repaired %d in %d hash fetches; want %d and %d, fetches > 0",
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
		sink := serveGroupNode(t, blankUnit(t, u, nb), k, n, lost)

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
