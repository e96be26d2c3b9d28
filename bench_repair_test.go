// BenchmarkGroupRepair measures the rebuild of a lost stripe unit — a
// resync from the primary's logical device projected onto the unit —
// and reports its wire cost next to the full-copy mirror resync a
// traditional deployment would pay for the same loss. Feeds
// BENCH_repair.json via `make bench-json`; TestGroupRepairWireCeiling
// holds the rebuild's modelled wire total.
package prins_test

import (
	"math/rand"
	"testing"

	"prins"
)

// The repair cell: a 2-of-4 group of 256 8 KiB blocks that lost unit 1.
const (
	repairK, repairN = 2, 4
	repairBS         = 8 << 10
	repairNB         = 256
	repairLost       = 1
)

// groupRepairCell populates a logical device, serves a blank
// replacement for the lost unit on loopback TCP, and returns the
// device, the replacement's store, and a function that blanks the
// replacement and rebuilds the unit onto it, so every call does the
// whole rebuild again.
func groupRepairCell(tb testing.TB) (local, sink prins.Store, repair func() prins.ResyncStats) {
	tb.Helper()
	var err error
	if local, err = prins.NewMemStore(repairBS, repairNB); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	blk := make([]byte, repairBS)
	for lba := uint64(0); lba < repairNB; lba++ {
		rng.Read(blk)
		if err := local.WriteBlock(lba, blk); err != nil {
			tb.Fatal(err)
		}
	}
	const u = repairBS / repairK
	node := serveGroupNode(tb, blankUnit(tb, u, repairNB), repairLost)
	blank := make([]byte, u)
	return local, node.store, func() prins.ResyncStats {
		for lba := uint64(0); lba < repairNB; lba++ {
			if err := node.store.WriteBlock(lba, blank); err != nil {
				tb.Fatal(err)
			}
		}
		st, err := prins.RepairGroupUnit(local, repairK, repairN, repairLost, node.addr, node.export)
		if err != nil {
			tb.Fatal(err)
		}
		if st.BlocksRepaired != repairNB {
			tb.Fatalf("rebuilt %d blocks, want %d", st.BlocksRepaired, repairNB)
		}
		return st
	}
}

func BenchmarkGroupRepair(b *testing.B) {
	local, _, repair := groupRepairCell(b)

	// Mirror baseline: re-seeding one full-copy replica after the same
	// loss, with the delta resync both sides' wire models share.
	mirrorStore, err := prins.NewMemStore(repairBS, repairNB)
	if err != nil {
		b.Fatal(err)
	}
	mirror := prins.NewReplica(mirrorStore)
	defer mirror.Close()
	maddr, err := mirror.Serve("127.0.0.1:0", "m")
	if err != nil {
		b.Fatal(err)
	}
	mirrorStats, err := prins.Resync(local, maddr.String(), "m", false)
	if err != nil {
		b.Fatal(err)
	}

	b.SetBytes(repairNB * repairBS / repairK)
	b.ResetTimer()
	var last prins.ResyncStats
	for i := 0; i < b.N; i++ {
		last = repair()
	}
	b.StopTimer()
	b.ReportMetric(float64(last.WireBytes), "wireB")
	b.ReportMetric(float64(mirrorStats.WireBytes), "mirrorWireB")
	b.ReportMetric(float64(mirrorStats.WireBytes)/float64(last.WireBytes), "mirror/unit")
}

// TestGroupRepairWireCeiling holds the rebuild's modelled wire total
// for the repair cell to what it was when written, and checks the
// rebuilt unit byte for byte. The total is a count of what the model
// charges for a fixed geometry, the same on every run and every host,
// so it needs a ceiling, not a timed comparison. It was 1129248 when a
// repair was one raw multi-block write per run; a repair span adds its
// framing, 16 spans x (2 B mask + 5 B frame header), so 1129360 (the
// random units do not compress and go raw).
func TestGroupRepairWireCeiling(t *testing.T) {
	local, sink, repair := groupRepairCell(t)
	st := repair()
	if got, ceiling := st.WireBytes, int64(1129360); got > ceiling {
		t.Errorf("unit rebuild models %d wire bytes, ceiling %d", got, ceiling)
	}
	if want := int64(repairNB * (repairBS / repairK)); st.DataBytes != want {
		t.Errorf("unit rebuild shipped %d data bytes, want one unit per block (%d)", st.DataBytes, want)
	}
	assertGroupEncodes(t, local, repairK, repairN, map[int]prins.Store{repairLost: sink})
}
