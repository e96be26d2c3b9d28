// BenchmarkGroupRepair measures the pipelined partial-sum chain that
// rebuilds a lost stripe unit, and reports its wire cost next to the
// full-copy mirror resync a traditional deployment would pay for the
// same loss. Feeds BENCH_repair.json via `make bench-json`;
// TestGroupRepairWireCeiling holds the chain's modelled wire total.
package prins_test

import (
	"math/rand"
	"testing"

	"prins"
	"prins/internal/parity"
)

// The repair cell: a 2-of-4 group of 256 8 KiB blocks that lost unit 1.
const (
	repairK, repairN = 2, 4
	repairBS         = 8 << 10
	repairNB         = 256
	repairLost       = 1
)

// groupRepairCell populates a logical device and its RS encoding over
// repairN unit stores — the state a healthy group would hold — serves
// survivors 0 and 3 and a blank replacement for the lost unit on
// loopback TCP, and returns the device and a function that rebuilds the
// lost unit by chain repair. The chain rewrites the sink in place, so
// every call does the whole rebuild again.
func groupRepairCell(tb testing.TB) (local prins.Store, repair func() prins.RepairStats) {
	tb.Helper()
	rs, err := parity.NewRS(repairK, repairN)
	if err != nil {
		tb.Fatal(err)
	}
	u := rs.UnitSize(repairBS)
	if local, err = prins.NewMemStore(repairBS, repairNB); err != nil {
		tb.Fatal(err)
	}
	units := make([]prins.Store, repairN)
	for i := range units {
		if units[i], err = prins.NewMemStore(u, repairNB); err != nil {
			tb.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(11))
	blk := make([]byte, repairBS)
	enc := make([][]byte, repairN)
	for i := range enc {
		enc[i] = make([]byte, u)
	}
	for lba := uint64(0); lba < repairNB; lba++ {
		rng.Read(blk)
		if err := local.WriteBlock(lba, blk); err != nil {
			tb.Fatal(err)
		}
		if err := rs.EncodeInto(enc, blk); err != nil {
			tb.Fatal(err)
		}
		for i := range units {
			if err := units[i].WriteBlock(lba, enc[i]); err != nil {
				tb.Fatal(err)
			}
		}
	}

	serve := func(store prins.Store, idx int) prins.GroupMember {
		rep := prins.NewReplica(store)
		if err := rep.SetGroupUnit(repairK, repairN, idx); err != nil {
			tb.Fatal(err)
		}
		addr, err := rep.Serve("127.0.0.1:0", "u")
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { rep.Close() })
		return prins.GroupMember{Addr: addr.String(), Export: "u", Unit: idx}
	}
	survivors := []prins.GroupMember{serve(units[0], 0), serve(units[3], 3)}
	sinkStore, err := prins.NewMemStore(u, repairNB)
	if err != nil {
		tb.Fatal(err)
	}
	sink := serve(sinkStore, repairLost)
	return local, func() prins.RepairStats {
		st, err := prins.RepairChain(repairK, repairN, repairLost, repairNB, survivors, sink)
		if err != nil {
			tb.Fatal(err)
		}
		if st.Blocks != repairNB {
			tb.Fatalf("rebuilt %d blocks, want %d", st.Blocks, repairNB)
		}
		return st
	}
}

func BenchmarkGroupRepair(b *testing.B) {
	local, repair := groupRepairCell(b)

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
	var last prins.RepairStats
	for i := 0; i < b.N; i++ {
		last = repair()
	}
	b.StopTimer()
	b.ReportMetric(float64(last.ModelWireBytes), "wireB")
	b.ReportMetric(float64(last.WireBytes), "measuredB")
	b.ReportMetric(float64(mirrorStats.WireBytes), "mirrorWireB")
	b.ReportMetric(float64(mirrorStats.WireBytes)/float64(last.ModelWireBytes), "mirror/chain")
}

// TestGroupRepairWireCeiling holds the chain's modelled wire total for
// the repair cell to what it was when written. The total is a count of
// what the model charges for a fixed geometry, the same on every run
// and every host, so it needs a ceiling, not a timed comparison.
func TestGroupRepairWireCeiling(t *testing.T) {
	_, repair := groupRepairCell(t)
	if got, ceiling := repair().ModelWireBytes, int64(2254428); got > ceiling {
		t.Errorf("chain repair models %d wire bytes, ceiling %d", got, ceiling)
	}
}
