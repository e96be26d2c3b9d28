package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"prins/internal/block"
	"prins/internal/iscsi"
	"prins/internal/xcode"
)

// setClient adapts a ReplicaSet into a shared list client, the
// in-process equivalent of one TCP session carrying several volumes'
// push streams to one replica node.
type setClient struct {
	set *ReplicaSet
}

func setStatusErr(st iscsi.Status, lba uint64) error {
	if st == iscsi.StatusOK {
		return nil
	}
	return iscsi.ReplicaStatusErr(lba, st)
}

func (c *setClient) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	return setStatusErr(c.set.HandleReplicaStream(mode, shard, vol, seq, lba, hash, frame), lba)
}

func (c *setClient) ReplicaWriteBatchStream(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) ([]iscsi.Status, error) {
	return c.set.HandleReplicaBatchStream(mode, shard, vol, entries), nil
}

// TestVolumeManagerLifecycle: create volumes, attach a shared replica
// client, run concurrent I/O on all of them at once, detach one, keep
// writing the others. Every volume must converge against its own
// replica copy and never bleed into a neighbour's.
func TestVolumeManagerLifecycle(t *testing.T) {
	const (
		blockSize = 512
		numBlocks = 48
		volumes   = 4
		shards    = 2
		perVolume = 200
	)
	vm, err := NewVolumeManager(Config{Mode: ModePRINS, Async: true, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()

	set := NewReplicaSet()
	primaries := make(map[uint16]*block.MemStore)
	replicas := make(map[uint16]*block.MemStore)
	for id := uint16(1); id <= volumes; id++ {
		primaries[id], err = block.NewMem(blockSize, numBlocks)
		if err != nil {
			t.Fatal(err)
		}
		replicas[id], err = block.NewMem(blockSize, numBlocks)
		if err != nil {
			t.Fatal(err)
		}
		if err := set.AddVolume(id, NewReplicaEngine(replicas[id])); err != nil {
			t.Fatal(err)
		}
		if _, err := vm.AddVolume(id, primaries[id]); err != nil {
			t.Fatal(err)
		}
	}
	if err := vm.AttachReplica(&setClient{set: set}); err != nil {
		t.Fatal(err)
	}

	// Duplicate and reserved ids are refused.
	if _, err := vm.AddVolume(1, primaries[1]); err == nil {
		t.Error("duplicate volume id accepted")
	}
	if _, err := vm.AddVolume(0, primaries[1]); err == nil {
		t.Error("volume id 0 accepted")
	}

	// Concurrent I/O on every volume at once over the one shared client.
	var wg sync.WaitGroup
	errCh := make(chan error, volumes)
	for id := uint16(1); id <= volumes; id++ {
		wg.Add(1)
		go func(id uint16) {
			defer wg.Done()
			eng := vm.Volume(id)
			rng := rand.New(rand.NewSource(int64(id)))
			buf := make([]byte, blockSize)
			for i := 0; i < perVolume; i++ {
				rng.Read(buf)
				if err := eng.WriteBlock(uint64(rng.Intn(numBlocks)), buf); err != nil {
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
		mustEqual(t, fmt.Sprintf("volume %d", id), primaries[id], replicas[id])
	}

	// Detach one volume; the engine stops, the rest keep replicating.
	if err := vm.DetachVolume(2); err != nil {
		t.Fatal(err)
	}
	if vm.Volume(2) != nil {
		t.Error("detached volume still resolvable")
	}
	if err := vm.DetachVolume(2); err == nil {
		t.Error("double detach should error")
	}
	buf := make([]byte, blockSize)
	for i := range buf {
		buf[i] = 0xAB
	}
	if err := vm.Volume(1).WriteBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	if err := vm.Drain(); err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "volume 1 after detach of volume 2", primaries[1], replicas[1])

	if got := vm.Volumes(); len(got) != volumes-1 {
		t.Errorf("Volumes() = %v, want %d entries", got, volumes-1)
	}
}

// volFaultClient is a shared stream client that fails pushes for
// exactly one volume — the in-process model of a replica node that
// lost one volume's disk while the session stays up.
type volFaultClient struct {
	inner   ReplicaClient
	failVol uint16
	failing atomic.Bool
}

var errVolFault = errors.New("injected volume fault")

func (c *volFaultClient) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	if c.failing.Load() && vol == c.failVol {
		return errVolFault
	}
	return c.inner.ReplicaWriteStream(mode, shard, vol, seq, lba, hash, frame)
}

// TestVolumeDegradedIsolation is the regression test for shared-session
// fate: volume 1's pushes start failing mid-run while volume 2 shares
// the same replica client. Volume 1 must degrade (writes keep
// succeeding locally, gap tracked in its dirty maps); volume 2 must
// neither degrade nor stall and must converge as if nothing happened.
func TestVolumeDegradedIsolation(t *testing.T) {
	const (
		blockSize = 512
		numBlocks = 32
		writes    = 150
	)
	vm, err := NewVolumeManager(Config{
		Mode:          ModePRINS,
		Async:         true,
		Shards:        2,
		Retry:         chaosRetry(),
		AllowDegraded: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()

	set := NewReplicaSet()
	prim := make(map[uint16]*block.MemStore)
	repl := make(map[uint16]*block.MemStore)
	for id := uint16(1); id <= 2; id++ {
		prim[id], _ = block.NewMem(blockSize, numBlocks)
		repl[id], _ = block.NewMem(blockSize, numBlocks)
		if err := set.AddVolume(id, NewReplicaEngine(repl[id])); err != nil {
			t.Fatal(err)
		}
		if _, err := vm.AddVolume(id, prim[id]); err != nil {
			t.Fatal(err)
		}
	}
	client := &volFaultClient{inner: &setClient{set: set}, failVol: 1}
	if err := vm.AttachReplica(client); err != nil {
		t.Fatal(err)
	}

	write := func(id uint16, seed int64, n int) {
		t.Helper()
		eng := vm.Volume(id)
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, blockSize)
		for i := 0; i < n; i++ {
			rng.Read(buf)
			if err := eng.WriteBlock(uint64(rng.Intn(numBlocks)), buf); err != nil {
				t.Fatalf("vol %d write: %v", id, err)
			}
		}
	}

	// Healthy phase on both volumes.
	write(1, 500, writes)
	write(2, 600, writes)
	if err := vm.Drain(); err != nil {
		t.Fatal(err)
	}

	// Fault volume 1's pushes; both volumes keep taking writes.
	client.failing.Store(true)
	write(1, 501, writes)
	write(2, 601, writes)
	if err := vm.Drain(); err != nil {
		t.Fatalf("drain with volume 1 faulted: %v", err)
	}

	v1, v2 := vm.Volume(1), vm.Volume(2)
	if !v1.Degraded() {
		t.Fatal("faulted volume should degrade")
	}
	if v1.DirtyBlocks(0) == 0 {
		t.Error("faulted volume should have dirty blocks")
	}
	if v2.Degraded() {
		t.Fatal("healthy volume degraded by its session-mate's fault")
	}
	if v2.DirtyBlocks(0) != 0 {
		t.Errorf("healthy volume has %d dirty blocks", v2.DirtyBlocks(0))
	}
	mustEqual(t, "healthy volume during fault", prim[2], repl[2])

	// Heal volume 1: repair its dirty runs from the primary copy, then
	// reinstate. Both volumes replicate live again.
	client.failing.Store(false)
	buf := make([]byte, blockSize)
	for s := 0; s < v1.Shards(); s++ {
		for _, r := range v1.ShardDirtyRanges(0, s) {
			for lba := r.Start; lba < r.Start+r.Count; lba++ {
				if err := v1.ReadBlock(lba, buf); err != nil {
					t.Fatal(err)
				}
				if err := repl[1].WriteBlock(lba, buf); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	v1.ClearDirty(0)
	v1.ClearDegraded()

	write(1, 502, writes)
	write(2, 602, writes)
	if err := vm.Drain(); err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "healed volume 1", prim[1], repl[1])
	mustEqual(t, "volume 2 at end", prim[2], repl[2])
	if v1.Degraded() || v2.Degraded() {
		t.Error("no volume should be degraded after recovery")
	}
}

// TestReplicaSetRouting checks the replica-side demultiplexer: pushes
// land on their tagged volume, unknown volumes are refused, geometry
// mismatches are rejected at registration.
func TestReplicaSetRouting(t *testing.T) {
	set := NewReplicaSet()
	s1, _ := block.NewMem(512, 16)
	s2, _ := block.NewMem(512, 16)
	if err := set.AddVolume(1, NewReplicaEngine(s1)); err != nil {
		t.Fatal(err)
	}
	if err := set.AddVolume(2, NewReplicaEngine(s2)); err != nil {
		t.Fatal(err)
	}
	if err := set.AddVolume(1, NewReplicaEngine(s1)); err == nil {
		t.Error("duplicate volume accepted")
	}
	odd, _ := block.NewMem(1024, 16)
	if err := set.AddVolume(3, NewReplicaEngine(odd)); err == nil {
		t.Error("geometry mismatch accepted")
	}

	frame := encodeTestFrame(t, blockOf(0x11, 512))
	if st := set.HandleReplicaStream(uint8(ModeTraditional), 0, 1, 1, 5, 0, frame); st != iscsi.StatusOK {
		t.Fatalf("push to volume 1: %v", st)
	}
	if st := set.HandleReplicaStream(uint8(ModeTraditional), 0, 9, 1, 5, 0, frame); st == iscsi.StatusOK {
		t.Fatal("push to unknown volume accepted")
	}
	// The push reached volume 1 only.
	buf := make([]byte, 512)
	if err := s1.ReadBlock(5, buf); err != nil || buf[0] != 0x11 {
		t.Fatalf("volume 1 block 5 = %x (err %v), want 0x11", buf[0], err)
	}
	if err := s2.ReadBlock(5, buf); err != nil || buf[0] != 0x00 {
		t.Fatalf("volume 2 block 5 = %x (err %v), want untouched", buf[0], err)
	}

	// Untagged control ops need a volume 0.
	if st := set.HandleWrite(0, blockOf(0x22, 512)); st == iscsi.StatusOK {
		t.Error("untagged write accepted with no volume 0")
	}
	s0, _ := block.NewMem(512, 16)
	if err := set.AddVolume(0, NewReplicaEngine(s0)); err != nil {
		t.Fatal(err)
	}
	if st := set.HandleWrite(0, blockOf(0x22, 512)); st != iscsi.StatusOK {
		t.Fatalf("untagged write with volume 0: %v", st)
	}
}

func blockOf(b byte, n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

// TestReplicaSetEveryPushShape drives each kind of push through a
// target to a ReplicaSet: an untagged single frame (volume 0's stream
// (0, 0)), a tagged one, a list, a list with a reference, and a
// squeezed list. Every push lands in its own volume's image, and the
// squeezed list reaches its volume's engine, which verifies it, so what
// went on the wire for it is less than the plain list.
func TestReplicaSetEveryPushShape(t *testing.T) {
	const bs, nb, vol = 4096, 128, 3
	mode := uint8(ModePRINS)
	set := NewReplicaSet()
	stores := map[uint16]*block.MemStore{}
	for _, id := range []uint16{0, vol} {
		store, err := block.NewMem(bs, nb)
		if err != nil {
			t.Fatal(err)
		}
		stores[id] = store
		if err := set.AddVolume(id, NewReplicaEngine(store)); err != nil {
			t.Fatal(err)
		}
	}
	target := iscsi.NewTarget()
	target.Export("set", set)
	client, server := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		target.ServeConn(server)
	}()
	init := iscsi.NewInitiator(client)
	t.Cleanup(func() {
		init.Close()
		wg.Wait()
	})
	if err := init.Login("set"); err != nil {
		t.Fatal(err)
	}

	// Every block starts zero, so a block's PRINS parity is the block.
	want := map[uint16]map[uint64][]byte{0: {}, vol: {}}
	entry := func(id uint16, seq, lba uint64, k int) iscsi.BatchEntry {
		t.Helper()
		data := textBlock(bs, 300+40*(k%8), byte(k))
		frame, err := xcode.EncodeBest(data, xcode.CodecZRL)
		if err != nil {
			t.Fatal(err)
		}
		want[id][lba] = data
		return iscsi.BatchEntry{Seq: seq, LBA: lba, Hash: iscsi.HashBlock(data), Frame: frame}
	}
	allOK := func(what string, st []iscsi.Status, err error) {
		t.Helper()
		if err != nil || slices.ContainsFunc(st, func(s iscsi.Status) bool { return s != iscsi.StatusOK }) {
			t.Fatalf("%s: statuses %v, %v", what, st, err)
		}
	}

	e := entry(0, 1, 1, 1)
	if err := init.ReplicaWriteStream(mode, 0, 0, e.Seq, e.LBA, e.Hash, e.Frame); err != nil {
		t.Fatalf("untagged single: %v", err)
	}
	e = entry(vol, 1, 2, 2)
	if err := init.ReplicaWriteStream(mode, 2, vol, e.Seq, e.LBA, e.Hash, e.Frame); err != nil {
		t.Fatalf("tagged single: %v", err)
	}
	var list []iscsi.BatchEntry
	for k := range 4 {
		list = append(list, entry(vol, uint64(k+1), uint64(10+k), 10+k))
	}
	st, err := init.ReplicaWriteBatchStream(mode, 1, vol, list)
	allOK("list", st, err)
	// A reference to the content the list left at lba 10, and a frame.
	ref := iscsi.BatchEntry{Seq: 5, LBA: 20, Hash: list[0].Hash}
	want[vol][20] = want[vol][10]
	st, err = init.ReplicaWriteBatchStream(mode, 1, vol, []iscsi.BatchEntry{ref, entry(vol, 6, 21, 21)})
	allOK("list with a reference", st, err)
	list = list[:0]
	for k := range 32 {
		list = append(list, entry(vol, uint64(7+k), uint64(30+k), 30+k))
	}
	st, sent, err := init.ReplicaWriteSqueezed(mode, 1, vol, list)
	allOK("squeezed list", st, err)
	if plain := iscsi.BatchWireLen(list); sent.Total() >= plain {
		t.Errorf("squeezed list put %d data-segment bytes on the wire, the plain list is %d", sent.Total(), plain)
	}

	cur := make([]byte, bs)
	for id, blocks := range want {
		for lba := range uint64(nb) {
			if err := stores[id].ReadBlock(lba, cur); err != nil {
				t.Fatal(err)
			}
			exp, ok := blocks[lba]
			if !ok {
				exp = make([]byte, bs)
			}
			if !bytes.Equal(cur, exp) {
				t.Errorf("volume %d lba %d does not hold what was pushed", id, lba)
			}
		}
	}
}
