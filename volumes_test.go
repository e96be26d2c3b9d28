package prins_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"prins"
)

// TestVolumesOverTCP runs a multi-volume primary against a multi-volume
// replica node over one shared TCP session: concurrent application I/O
// on every volume, per-volume convergence, and the per-volume control
// path exports on both nodes.
func TestVolumesOverTCP(t *testing.T) {
	const (
		blockSize = 512
		numBlocks = 32
		volumes   = 3
		perVolume = 80
	)

	// Replica node hosting all volumes behind one export.
	rv := prins.NewReplicaVolumes()
	replicaStores := make(map[uint16]prins.Store)
	for id := uint16(1); id <= volumes; id++ {
		st, err := prins.NewMemStore(blockSize, numBlocks)
		if err != nil {
			t.Fatal(err)
		}
		replicaStores[id] = st
		if err := rv.AddVolume(id, prins.NewReplica(st)); err != nil {
			t.Fatal(err)
		}
	}
	rAddr, err := rv.Serve("127.0.0.1:0", "vols")
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()

	// Primary node multiplexing the same volumes over one session.
	vm, err := prins.NewVolumeManager(prins.Config{Mode: prins.ModePRINS, Async: true, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()
	locals := make(map[uint16]prins.Store)
	for id := uint16(1); id <= volumes; id++ {
		st, err := prins.NewMemStore(blockSize, numBlocks)
		if err != nil {
			t.Fatal(err)
		}
		locals[id] = st
		if _, err := vm.AddVolume(id, st); err != nil {
			t.Fatal(err)
		}
	}
	if err := vm.AttachReplicaAddr(rAddr.String(), "vols"); err != nil {
		t.Fatal(err)
	}

	// Concurrent application writes on every volume at once.
	var wg sync.WaitGroup
	errCh := make(chan error, volumes)
	for id := uint16(1); id <= volumes; id++ {
		wg.Add(1)
		go func(id uint16) {
			defer wg.Done()
			v := vm.Volume(id)
			rng := rand.New(rand.NewSource(int64(id) * 7))
			buf := make([]byte, blockSize)
			for i := 0; i < perVolume; i++ {
				rng.Read(buf)
				if err := v.WriteBlock(uint64(rng.Intn(numBlocks)), buf); err != nil {
					errCh <- fmt.Errorf("vol %d: %w", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := vm.Drain(); err != nil {
		t.Fatal(err)
	}
	for id := uint16(1); id <= volumes; id++ {
		eq, err := prins.Equal(locals[id], replicaStores[id])
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("volume %d diverged across TCP", id)
		}
	}

	// Application mounts one volume from the primary's export set.
	pAddr, err := vm.Serve("127.0.0.1:0", "data")
	if err != nil {
		t.Fatal(err)
	}
	app, err := prins.Dial(pAddr.String(), "data.2")
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	buf := make([]byte, blockSize)
	for i := range buf {
		buf[i] = 0x5C
	}
	if err := app.WriteBlock(7, buf); err != nil {
		t.Fatal(err)
	}
	if err := vm.Drain(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockSize)
	if err := replicaStores[2].ReadBlock(7, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x5C {
		t.Fatalf("replica volume 2 block 7 = %x, want 0x5C", got[0])
	}

	// Per-volume control path on the replica node: each volume is
	// individually mountable as "<export>.<id>" for resync traffic.
	ctl, err := prins.Dial(rAddr.String(), "vols.2")
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.ReadBlock(7, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x5C {
		t.Fatalf("control-path read of volume 2 block 7 = %x, want 0x5C", got[0])
	}
	if _, err := prins.Dial(rAddr.String(), "vols.9"); err == nil {
		t.Error("dial of unknown per-volume export succeeded")
	}
}

// TestVolumesSharedSessionIsolation is the wire-level regression for
// shared-session fate: the replica node drops volume 1 mid-run while
// volume 2 shares the same TCP session. Volume 1 must degrade and
// track its gap; volume 2 must keep replicating on that session and
// stay byte-identical.
func TestVolumesSharedSessionIsolation(t *testing.T) {
	const (
		blockSize = 512
		numBlocks = 32
		writes    = 100
	)
	rv := prins.NewReplicaVolumes()
	replicaStores := make(map[uint16]prins.Store)
	for id := uint16(1); id <= 2; id++ {
		st, _ := prins.NewMemStore(blockSize, numBlocks)
		replicaStores[id] = st
		if err := rv.AddVolume(id, prins.NewReplica(st)); err != nil {
			t.Fatal(err)
		}
	}
	rAddr, err := rv.Serve("127.0.0.1:0", "vols")
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()

	vm, err := prins.NewVolumeManager(prins.Config{
		Mode:          prins.ModePRINS,
		Async:         true,
		Shards:        2,
		RetryAttempts: 2,
		RetryTimeout:  200 * time.Millisecond,
		RetryBackoff:  time.Millisecond,
		AllowDegraded: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()
	locals := make(map[uint16]prins.Store)
	for id := uint16(1); id <= 2; id++ {
		st, _ := prins.NewMemStore(blockSize, numBlocks)
		locals[id] = st
		if _, err := vm.AddVolume(id, st); err != nil {
			t.Fatal(err)
		}
	}
	if err := vm.AttachReplicaAddr(rAddr.String(), "vols"); err != nil {
		t.Fatal(err)
	}

	write := func(id uint16, seed int64) {
		t.Helper()
		v := vm.Volume(id)
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, blockSize)
		for i := 0; i < writes; i++ {
			rng.Read(buf)
			if err := v.WriteBlock(uint64(rng.Intn(numBlocks)), buf); err != nil {
				t.Fatalf("vol %d write: %v", id, err)
			}
		}
	}
	mustConverged := func(id uint16) {
		t.Helper()
		eq, err := prins.Equal(locals[id], replicaStores[id])
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("volume %d diverged", id)
		}
	}

	// Healthy phase.
	write(1, 900)
	write(2, 901)
	if err := vm.Drain(); err != nil {
		t.Fatal(err)
	}
	mustConverged(1)
	mustConverged(2)

	// Replica drops volume 1; the session stays up for volume 2.
	if err := rv.RemoveVolume(1); err != nil {
		t.Fatal(err)
	}
	if err := rv.RemoveVolume(1); err == nil {
		t.Error("double remove should error")
	}
	write(1, 902)
	write(2, 903)
	if err := vm.Drain(); err != nil {
		t.Fatalf("drain with volume 1 dropped: %v", err)
	}

	v1, v2 := vm.Volume(1), vm.Volume(2)
	if !v1.Degraded() {
		t.Fatal("dropped volume should degrade")
	}
	if v2.Degraded() {
		t.Fatal("volume 2 degraded by volume 1's removal on the shared session")
	}
	mustConverged(2)

	// Volume 2 keeps replicating live on the same session.
	write(2, 904)
	if err := vm.Drain(); err != nil {
		t.Fatal(err)
	}
	mustConverged(2)
	if v2.Degraded() {
		t.Fatal("volume 2 degraded during continued traffic")
	}
}

// TestVolumesDedupeOverTCP: a volume manager honours DedupeEntries. The
// same content written to a second LBA of a volume ships by reference
// over the shared session, the replica materializes it from its own
// copy, and the volume's Stats report the hit and the change density
// exactly as a Primary's would.
func TestVolumesDedupeOverTCP(t *testing.T) {
	const (
		blockSize = 512
		numBlocks = 16
	)
	rv := prins.NewReplicaVolumes()
	replicaStore, _ := prins.NewMemStore(blockSize, numBlocks)
	if err := rv.AddVolume(1, prins.NewReplica(replicaStore)); err != nil {
		t.Fatal(err)
	}
	rAddr, err := rv.Serve("127.0.0.1:0", "vols")
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()

	vm, err := prins.NewVolumeManager(prins.Config{
		Mode:          prins.ModePRINS,
		Async:         true,
		RecordDensity: true,
		DedupeEntries: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()
	local, _ := prins.NewMemStore(blockSize, numBlocks)
	v, err := vm.AddVolume(1, local)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.AttachReplicaAddr(rAddr.String(), "vols"); err != nil {
		t.Fatal(err)
	}

	content := make([]byte, blockSize)
	rand.New(rand.NewSource(5)).Read(content)
	for _, lba := range []uint64{3, 9} {
		if err := v.WriteBlock(lba, content); err != nil {
			t.Fatal(err)
		}
		// Drain between the two: the primary indexes the content only
		// once the replica has acknowledged holding it.
		if err := v.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if eq, err := prins.Equal(local, replicaStore); err != nil || !eq {
		t.Fatalf("replica diverged (equal=%v, err=%v)", eq, err)
	}
	s := v.Stats()
	if s.DedupeHits == 0 {
		t.Errorf("DedupeHits = 0, want the second write shipped by reference (stats %+v)", s)
	}
	if s.MeanChangedFraction == 0 {
		t.Error("MeanChangedFraction = 0 with RecordDensity set")
	}
}

// TestVolumeManagerRefusesGroup: volumes mirror, so a group shape in the
// config is an error, not silently dropped.
func TestVolumeManagerRefusesGroup(t *testing.T) {
	if _, err := prins.NewVolumeManager(prins.Config{Mode: prins.ModePRINS, GroupK: 2, GroupN: 3}); err == nil {
		t.Fatal("NewVolumeManager accepted GroupK/GroupN")
	}
}
