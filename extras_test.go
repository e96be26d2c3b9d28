package prins_test

import (
	"bytes"
	"math/rand"
	"testing"

	"prins"
)

func TestPublicResync(t *testing.T) {
	local, err := prins.NewMemStore(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	replicaDisk, err := prins.NewMemStore(512, 64)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 512)
	for lba := uint64(0); lba < 64; lba++ {
		rng.Read(buf)
		if err := local.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
		if lba%7 != 0 { // leave every 7th block diverged
			if err := replicaDisk.WriteBlock(lba, buf); err != nil {
				t.Fatal(err)
			}
		}
	}

	replica := prins.NewReplica(replicaDisk)
	addr, err := replica.Serve("127.0.0.1:0", "vol0")
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	// Dry run reports divergence without fixing it.
	stats, err := prins.Resync(local, addr.String(), "vol0", true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksRepaired != 10 { // lbas 0,7,...,63
		t.Errorf("dry-run repaired = %d, want 10", stats.BlocksRepaired)
	}

	stats, err = prins.Resync(local, addr.String(), "vol0", false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksRepaired != 10 || stats.DataBytes != 10*512 {
		t.Errorf("stats = %+v", stats)
	}
	eq, err := prins.Equal(local, replicaDisk)
	if err != nil || !eq {
		t.Fatalf("not converged after resync: eq=%v err=%v", eq, err)
	}

	// Errors: wrong export.
	if _, err := prins.Resync(local, addr.String(), "nope", false); err == nil {
		t.Error("bad export accepted")
	}
}

func TestPublicHistory(t *testing.T) {
	disk, err := prins.NewMemStore(256, 16)
	if err != nil {
		t.Fatal(err)
	}
	protected, history, err := prins.Protect(disk)
	if err != nil {
		t.Fatal(err)
	}

	v1 := bytes.Repeat([]byte{1}, 256)
	v2 := bytes.Repeat([]byte{2}, 256)
	v3 := bytes.Repeat([]byte{3}, 256)
	for _, v := range [][]byte{v1, v2, v3} {
		if err := protected.WriteBlock(5, v); err != nil {
			t.Fatal(err)
		}
	}
	if history.Seq() != 3 {
		t.Fatalf("seq = %d", history.Seq())
	}
	if history.Bytes() <= 0 {
		t.Error("history should occupy space")
	}

	// Materialize the state after the second write.
	snapshot, err := prins.NewMemStore(256, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := history.RecoverInto(snapshot, disk, 2); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 256)
	if err := snapshot.ReadBlock(5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Error("snapshot at seq 2 wrong")
	}

	// Live store untouched by RecoverInto.
	if err := disk.ReadBlock(5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v3) {
		t.Error("live store changed")
	}

	// Roll the live store back to the first write.
	if err := history.RecoverTo(disk, 1); err != nil {
		t.Fatal(err)
	}
	if err := disk.ReadBlock(5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1) {
		t.Error("live rollback wrong")
	}

	history.Truncate(history.Seq())
	if history.Bytes() != 0 {
		t.Error("truncate did not drop history")
	}
}

// TestProtectedReplication chains the extensions: a protected primary
// replicating via PRINS, then point-in-time recovery on the replica
// side after an "accidental" overwrite.
func TestProtectedReplication(t *testing.T) {
	primaryDisk, _ := prins.NewMemStore(512, 32)
	protected, history, err := prins.Protect(primaryDisk)
	if err != nil {
		t.Fatal(err)
	}
	primary, err := prins.NewPrimary(protected, prins.Config{Mode: prins.ModePRINS})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replicaDisk, _ := prins.NewMemStore(512, 32)
	primary.AttachReplica(prins.NewReplica(replicaDisk))

	good := bytes.Repeat([]byte{0xAA}, 512)
	if err := primary.WriteBlock(3, good); err != nil {
		t.Fatal(err)
	}
	goodSeq := history.Seq()

	bad := bytes.Repeat([]byte{0xEE}, 512)
	if err := primary.WriteBlock(3, bad); err != nil {
		t.Fatal(err)
	}
	if err := primary.Drain(); err != nil {
		t.Fatal(err)
	}

	// The replica faithfully mirrors the mistake...
	got := make([]byte, 512)
	if err := replicaDisk.ReadBlock(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bad) {
		t.Fatal("replica missed the write")
	}
	// ...and the history undoes it.
	if err := history.RecoverTo(primaryDisk, goodSeq); err != nil {
		t.Fatal(err)
	}
	if err := primaryDisk.ReadBlock(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, good) {
		t.Error("recovery failed")
	}
}

func TestAttachReplicaResilient(t *testing.T) {
	replicaDisk, _ := prins.NewMemStore(512, 32)
	replica := prins.NewReplica(replicaDisk)
	addr, err := replica.Serve("127.0.0.1:0", "vol0")
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	local, _ := prins.NewMemStore(512, 32)
	primary, err := prins.NewPrimary(local, prins.Config{Mode: prins.ModePRINS})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if err := primary.AttachReplicaResilient(addr.String(), "vol0"); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 512)
	for i := 0; i < 40; i++ {
		rng.Read(buf)
		if err := primary.WriteBlock(uint64(rng.Intn(32)), buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Drain(); err != nil {
		t.Fatal(err)
	}
	eq, err := prins.Equal(local, replicaDisk)
	if err != nil || !eq {
		t.Fatalf("diverged: %v %v", eq, err)
	}

	// Bad target name fails fast.
	if err := primary.AttachReplicaResilient(addr.String(), "nope"); err == nil {
		t.Error("bad export accepted")
	}
}

// TestAttachReplicaResilientGroup: a group primary refuses a resilient
// replica of either size. A whole-block device would be counted toward
// the quorum as a unit it does not hold, and the client's heal resyncs
// whole logical blocks, which a unit-sized device cannot take.
func TestAttachReplicaResilientGroup(t *testing.T) {
	local, _ := prins.NewMemStore(512, 32)
	primary, err := prins.NewPrimary(local, prins.Config{Mode: prins.ModePRINS, GroupK: 2, GroupN: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	for _, bs := range []int{512, 256} {
		disk, _ := prins.NewMemStore(bs, 32)
		replica := prins.NewReplica(disk)
		addr, err := replica.Serve("127.0.0.1:0", "vol0")
		if err != nil {
			t.Fatal(err)
		}
		if err := primary.AttachReplicaResilient(addr.String(), "vol0"); err == nil {
			t.Errorf("a 2-of-3 primary attached a resilient %d-byte replica", bs)
		}
		replica.Close()
	}
}
