package core

import (
	"bytes"
	"errors"
	"testing"

	"prins/internal/block"
	"prins/internal/parity"
)

// groupRig is a loopback k-of-n replica group: one primary engine and
// n unit-sized replica engines attached in unit order.
type groupRig struct {
	e        *Engine
	primary  block.Store
	replicas []*ReplicaEngine
	units    []block.Store
}

func newGroupRig(t *testing.T, cfg Config, bs int, nb uint64) *groupRig {
	t.Helper()
	primary, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(primary, cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := e.GroupUnitSize()
	if u <= 0 {
		t.Fatalf("GroupUnitSize = %d on a group engine", u)
	}
	rig := &groupRig{e: e, primary: primary}
	for i := 0; i < cfg.Group.N; i++ {
		store, err := block.NewMem(u, nb)
		if err != nil {
			t.Fatal(err)
		}
		r := NewReplicaEngine(store)
		if err := e.AttachReplica(&Loopback{Replica: r}); err != nil {
			t.Fatalf("attach unit %d: %v", i, err)
		}
		rig.replicas = append(rig.replicas, r)
		rig.units = append(rig.units, store)
	}
	return rig
}

// verifyReconstruct checks that every k-subset of the replicas'
// stored units reconstructs every primary block byte-identically.
func (rig *groupRig) verifyReconstruct(t *testing.T) {
	t.Helper()
	cfg := rig.e.Group()
	rs, err := parity.NewRS(cfg.K, cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	bs := rig.primary.BlockSize()
	u := rs.UnitSize(bs)
	want := make([]byte, bs)
	got := make([]byte, bs)
	units := make([][]byte, cfg.K)
	for i := range units {
		units[i] = make([]byte, u)
	}
	survivors := make([]int, cfg.K)
	for lba := uint64(0); lba < rig.primary.NumBlocks(); lba++ {
		if err := rig.primary.ReadBlock(lba, want); err != nil {
			t.Fatal(err)
		}
		// Walk every contiguous k-window of units; combined with the
		// all-subsets coverage in parity's own tests this keeps the
		// device-wide sweep cheap.
		for first := 0; first+cfg.K <= cfg.N; first++ {
			for i := range survivors {
				survivors[i] = first + i
				if err := rig.units[first+i].ReadBlock(lba, units[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := rs.ReconstructInto(got, survivors, units); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("lba %d: reconstruction from units %v diverged", lba, survivors)
			}
		}
	}
}

// TestGroupStripedConvergence writes a workload through a 2-of-4 group
// in every mode and verifies any k survivors reconstruct the primary
// content byte-identically.
func TestGroupStripedConvergence(t *testing.T) {
	for _, mode := range AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			rig := newGroupRig(t, Config{Mode: mode, Group: GroupConfig{K: 2, N: 4}}, 1024, 32)
			writeWorkload(t, rig.e, 42, 150)
			if err := rig.e.Drain(); err != nil {
				t.Fatal(err)
			}
			if err := rig.e.Close(); err != nil {
				t.Fatal(err)
			}
			rig.verifyReconstruct(t)
		})
	}
}

// TestGroupSkipUnchanged: a PRINS group write whose delta is zero is
// elided before striping, exactly like mirror mode.
func TestGroupSkipUnchanged(t *testing.T) {
	rig := newGroupRig(t, Config{
		Mode: ModePRINS, Group: GroupConfig{K: 2, N: 3}, SkipUnchanged: true,
	}, 512, 8)
	defer rig.e.Close()
	buf := make([]byte, 512)
	for i := range buf {
		buf[i] = 0xA5
	}
	if err := rig.e.WriteBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	if err := rig.e.WriteBlock(3, buf); err != nil { // identical rewrite
		t.Fatal(err)
	}
	if err := rig.e.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := rig.replicas[0].StreamLastSeq(0, 0); got != 1 {
		t.Fatalf("replica saw seq %d, want 1 (second write elided)", got)
	}
	rig.verifyReconstruct(t)
}

// groupCfgDown builds a k-of-n group config with fast retries for
// failure-path tests.
func groupCfgDown(k, n int, degraded bool) Config {
	return Config{
		Mode:          ModePRINS,
		Group:         GroupConfig{K: k, N: n},
		AllowDegraded: degraded,
		Retry:         chaosRetry(),
	}
}

// newGroupRigDown builds a group rig with the last `down` replicas
// replaced by always-failing clients.
func newGroupRigDown(t *testing.T, cfg Config, bs int, nb uint64, down int) *groupRig {
	t.Helper()
	primary, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(primary, cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := e.GroupUnitSize()
	rig := &groupRig{e: e, primary: primary}
	for i := 0; i < cfg.Group.N; i++ {
		if i >= cfg.Group.N-down {
			if err := e.AttachReplica(&failClient{err: errors.New("synthetic replica failure")}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		store, err := block.NewMem(u, nb)
		if err != nil {
			t.Fatal(err)
		}
		r := NewReplicaEngine(store)
		if err := e.AttachReplica(&Loopback{Replica: r}); err != nil {
			t.Fatal(err)
		}
		rig.replicas = append(rig.replicas, r)
		rig.units = append(rig.units, store)
	}
	return rig
}

// TestGroupDegradedQuorumCommit: with n-k replicas down and degraded
// writes allowed, a 2-of-4 group keeps committing at quorum — every
// sync write succeeds off the k surviving units, the dead replicas are
// degraded with their gap dirty-mapped, and the survivors' units still
// reconstruct the content.
func TestGroupDegradedQuorumCommit(t *testing.T) {
	const k, n = 2, 4
	rig := newGroupRigDown(t, groupCfgDown(k, n, true), 1024, 16, n-k)
	defer rig.e.Close()
	writeWorkload(t, rig.e, 7, 60)
	if err := rig.e.Drain(); err != nil {
		t.Fatalf("drain after degraded commits: %v", err)
	}
	if !rig.e.Degraded() {
		t.Fatal("dead replicas not marked degraded")
	}
	for i := n - k; i < n; i++ {
		if rig.e.DirtyBlocks(i) == 0 {
			t.Fatalf("dead replica %d has no dirty blocks to repair", i)
		}
	}
	// The k live units alone must reconstruct every block.
	cfg := rig.e.Group()
	rs, err := parity.NewRS(cfg.K, cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	bs := rig.primary.BlockSize()
	want := make([]byte, bs)
	got := make([]byte, bs)
	units := [][]byte{make([]byte, rs.UnitSize(bs)), make([]byte, rs.UnitSize(bs))}
	for lba := uint64(0); lba < rig.primary.NumBlocks(); lba++ {
		if err := rig.primary.ReadBlock(lba, want); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if err := rig.units[i].ReadBlock(lba, units[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := rs.ReconstructInto(got, []int{0, 1}, units); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("lba %d: surviving units diverged from primary", lba)
		}
	}
}

// TestGroupQuorumLost: more than n-k units down means no k-subset can
// ever hold the write — the sync write must fail even with degraded
// writes allowed.
func TestGroupQuorumLost(t *testing.T) {
	const k, n = 3, 4
	rig := newGroupRigDown(t, groupCfgDown(k, n, true), 512, 8, n-k+1)
	defer rig.e.Close()
	buf := make([]byte, 512)
	buf[0] = 1
	if err := rig.e.WriteBlock(0, buf); err == nil {
		t.Fatal("write succeeded with quorum unreachable")
	}
}

// TestGroupMirrorDegeneration: k=n is mirroring with unit-sized
// frames — every unit must land, so a single dead replica fails the
// write, and with all replicas healthy content converges.
func TestGroupMirrorDegeneration(t *testing.T) {
	const n = 3
	t.Run("healthy", func(t *testing.T) {
		rig := newGroupRig(t, Config{Mode: ModePRINS, Group: GroupConfig{K: n, N: n}}, 768, 16)
		writeWorkload(t, rig.e, 11, 80)
		if err := rig.e.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := rig.e.Close(); err != nil {
			t.Fatal(err)
		}
		rig.verifyReconstruct(t)
	})
	t.Run("one dead", func(t *testing.T) {
		rig := newGroupRigDown(t, groupCfgDown(n, n, true), 512, 8, 1)
		defer rig.e.Close()
		buf := make([]byte, 512)
		buf[7] = 9
		if err := rig.e.WriteBlock(1, buf); err == nil {
			t.Fatal("k=n write succeeded with a unit undeliverable")
		}
	})
}

// TestGroupDivergedUnitCountsAgainstQuorum: a unit the replica refuses
// as diverged is not durable redundancy. At k=n that fails the write;
// at k<n the quorum absorbs it and the LBA lands in the dirty map.
func TestGroupDivergedUnitCountsAgainstQuorum(t *testing.T) {
	poison := func(t *testing.T, rig *groupRig, unit int, lba uint64) {
		t.Helper()
		u := rig.units[unit].BlockSize()
		bad := make([]byte, u)
		for i := range bad {
			bad[i] = 0xFF
		}
		if err := rig.units[unit].WriteBlock(lba, bad); err != nil {
			t.Fatal(err)
		}
	}
	write := func(t *testing.T, rig *groupRig, lba uint64, fill byte) error {
		t.Helper()
		buf := make([]byte, rig.primary.BlockSize())
		for i := range buf {
			buf[i] = fill
		}
		return rig.e.WriteBlock(lba, buf)
	}

	t.Run("k=n fails", func(t *testing.T) {
		rig := newGroupRig(t, Config{Mode: ModePRINS, Group: GroupConfig{K: 2, N: 2}, Retry: chaosRetry()}, 512, 8)
		defer rig.e.Close()
		if err := write(t, rig, 2, 0x11); err != nil {
			t.Fatal(err)
		}
		poison(t, rig, 1, 2) // replica 1's pre-image diverges silently
		if err := write(t, rig, 2, 0x22); err == nil {
			t.Fatal("k=n write succeeded over a diverged unit")
		}
	})
	t.Run("k<n absorbs", func(t *testing.T) {
		rig := newGroupRig(t, Config{Mode: ModePRINS, Group: GroupConfig{K: 2, N: 3}, Retry: chaosRetry()}, 512, 8)
		defer rig.e.Close()
		if err := write(t, rig, 2, 0x11); err != nil {
			t.Fatal(err)
		}
		// The write acked at any 2 of 3 units; drain, or its straggling
		// third unit can land on top of the poison and heal it.
		if err := rig.e.Drain(); err != nil {
			t.Fatal(err)
		}
		poison(t, rig, 2, 2)
		if err := write(t, rig, 2, 0x22); err != nil {
			t.Fatalf("quorum write failed over one diverged unit: %v", err)
		}
		if err := rig.e.Drain(); err != nil {
			t.Fatal(err)
		}
		if rig.e.DirtyBlocks(2) == 0 {
			t.Fatal("diverged unit's LBA not dirty-mapped")
		}
	})
}

// TestGroupConfigValidation covers the group-specific config and
// attach gates.
func TestGroupConfigValidation(t *testing.T) {
	bad := []Config{
		{Mode: ModePRINS, Group: GroupConfig{K: 0, N: 2}},
		{Mode: ModePRINS, Group: GroupConfig{K: 3, N: 2}},
		{Mode: ModePRINS, Group: GroupConfig{K: 1, N: 300}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg.Group)
		}
	}

	store, err := block.NewMem(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(store, Config{Mode: ModePRINS, Group: GroupConfig{K: 1, N: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Writes before the group is fully attached are refused.
	buf := make([]byte, 512)
	if err := e.WriteBlock(0, buf); !errors.Is(err, ErrGroupReplicas) {
		t.Fatalf("underpopulated group write: %v", err)
	}
	for i := 0; i < 2; i++ {
		us, err := block.NewMem(e.GroupUnitSize(), 8)
		if err != nil {
			t.Fatal(err)
		}
		r := NewReplicaEngine(us)
		if err := e.AttachReplica(&Loopback{Replica: r}); err != nil {
			t.Fatal(err)
		}
	}
	// A third replica exceeds the group.
	us, err := block.NewMem(e.GroupUnitSize(), 8)
	if err != nil {
		t.Fatal(err)
	}
	extra := NewReplicaEngine(us)
	if err := e.AttachReplica(&Loopback{Replica: extra}); !errors.Is(err, ErrGroupReplicas) {
		t.Fatalf("overpopulated attach: %v", err)
	}
	if err := e.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
}

// TestGroupWireCeiling holds the modelled wire bytes per write a 2-of-4
// PRINS group ships. A sync write with one writer ships each unit alone,
// as a plain replica write, and its ceiling is what it cost when every
// unit push carried the stripe verb's group header and list framing
// (1862.31; it now reads about 1530-1575, varying with how the two
// off-quorum units batch). An async write's backlog ships as batches, here of a
// fixed composition: the first write's four pushes are held at the gate
// until the other 199 writes have queued behind them. Its ceiling is the
// delta-varint entry list's cost, 1362.80 (1419.19 with the stripe verb,
// 1417.91 with fixed 28-byte entry headers). The totals are counts, so
// they need a ceiling, not a timed comparison.
func TestGroupWireCeiling(t *testing.T) {
	const k, n, bs, nb, writes = 2, 4, 4096, 64, 200
	for _, tc := range []struct {
		name    string
		async   bool
		ceiling float64
	}{
		{"sync", false, 1862.31},
		{"async", true, 1362.80},
	} {
		t.Run(tc.name, func(t *testing.T) {
			primary, err := block.NewMem(bs, nb)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(primary, Config{Mode: ModePRINS, Async: tc.async, Group: GroupConfig{K: k, N: n}})
			if err != nil {
				t.Fatal(err)
			}
			rig := &groupRig{e: e, primary: primary}
			var gates []*gatedClient
			for i := 0; i < n; i++ {
				store, err := block.NewMem(e.GroupUnitSize(), nb)
				if err != nil {
					t.Fatal(err)
				}
				r := NewReplicaEngine(store)
				g := newGatedClient(r)
				if err := e.AttachReplica(g); err != nil {
					t.Fatal(err)
				}
				gates = append(gates, g)
				rig.replicas = append(rig.replicas, r)
				rig.units = append(rig.units, store)
			}
			open := func() {
				for _, g := range gates {
					close(g.gate)
				}
			}
			if !tc.async {
				open()
			}
			writeWorkload(t, e, 1, 1)
			if tc.async {
				for _, g := range gates {
					<-g.started
				}
			}
			writeWorkload(t, e, 2, writes-1)
			if tc.async {
				open()
			}
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			s := e.Traffic().Snapshot()
			perWrite := float64(s.WireBytes) / float64(s.Writes)
			t.Logf("%d writes, %d wire bytes, %.2f per write", s.Writes, s.WireBytes, perWrite)
			if perWrite > tc.ceiling {
				t.Errorf("%.2f wire bytes per write, ceiling %.2f", perWrite, tc.ceiling)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			rig.verifyReconstruct(t)
		})
	}
}
