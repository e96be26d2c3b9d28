package resync

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"

	"prins/internal/block"
	"prins/internal/iscsi"
)

// remoteFor serves store over net.Pipe and returns a logged-in
// initiator.
func remoteFor(t *testing.T, store block.Store, name string) *iscsi.Initiator {
	t.Helper()
	target := iscsi.NewTarget()
	target.Export(name, &iscsi.StoreBackend{Store: store})
	client, server := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		target.ServeConn(server)
	}()
	init := iscsi.NewInitiator(client)
	if err := init.Login(name); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		init.Close()
		wg.Wait()
	})
	return init
}

func TestResyncRepairsDivergence(t *testing.T) {
	const (
		blockSize = 512
		numBlocks = 200
	)
	local, err := block.NewMem(blockSize, numBlocks)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := block.NewMem(blockSize, numBlocks)
	if err != nil {
		t.Fatal(err)
	}

	// Identical base state.
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, blockSize)
	for lba := uint64(0); lba < numBlocks; lba++ {
		rng.Read(buf)
		if err := local.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
		if err := replica.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
	}

	// Diverge 13 replica blocks.
	diverged := map[uint64]bool{}
	for len(diverged) < 13 {
		lba := uint64(rng.Intn(numBlocks))
		if diverged[lba] {
			continue
		}
		rng.Read(buf)
		if err := replica.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
		diverged[lba] = true
	}

	remote := remoteFor(t, replica, "r")

	// Dry run counts but repairs nothing.
	stats, err := Run(local, remote, Config{Batch: 64, DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksScanned != numBlocks || stats.BlocksRepaired != 13 {
		t.Fatalf("dry run: scanned=%d repaired=%d", stats.BlocksScanned, stats.BlocksRepaired)
	}
	if stats.DataBytes != 0 {
		t.Error("dry run shipped data")
	}
	if eq, _ := block.Equal(local, replica); eq {
		t.Fatal("dry run repaired the replica")
	}

	// Real run fixes exactly the diverged blocks.
	stats, err = Run(local, remote, Config{Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksRepaired != 13 {
		t.Errorf("repaired = %d, want 13", stats.BlocksRepaired)
	}
	if stats.DataBytes != 13*blockSize {
		t.Errorf("data bytes = %d, want %d", stats.DataBytes, 13*blockSize)
	}
	eq, err := block.Equal(local, replica)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("replica still diverged after resync")
	}

	// Delta cost beats a full copy by a wide margin.
	if stats.WireBytes*4 > stats.FullCopyBytes(blockSize) {
		t.Errorf("resync wire %d not clearly cheaper than full copy %d",
			stats.WireBytes, stats.FullCopyBytes(blockSize))
	}

	// Idempotent: second run repairs nothing.
	stats, err = Run(local, remote, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksRepaired != 0 {
		t.Errorf("second run repaired %d blocks", stats.BlocksRepaired)
	}
}

func TestResyncGeometryMismatch(t *testing.T) {
	local, _ := block.NewMem(512, 64)
	small, _ := block.NewMem(512, 32)
	remote := remoteFor(t, small, "r")
	if _, err := Run(local, remote, Config{}); !errors.Is(err, ErrGeometry) {
		t.Errorf("err = %v, want ErrGeometry", err)
	}
}

func TestHashHelpers(t *testing.T) {
	a := []byte("some block content")
	b := []byte("other block content")
	if iscsi.HashBlock(a) == iscsi.HashBlock(b) {
		t.Error("distinct blocks hashed equal")
	}
	data := append(append([]byte(nil), a[:16]...), b[:16]...)
	payload := binary.BigEndian.AppendUint64(nil, iscsi.HashBlock(data[:16]))
	payload = binary.BigEndian.AppendUint64(payload, iscsi.HashBlock(data[16:]))
	hashes, err := iscsi.DecodeHashes(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(hashes) != 2 {
		t.Fatalf("hashes = %d, want 2", len(hashes))
	}
	if _, err := iscsi.DecodeHashes(make([]byte, iscsi.HashSize+1)); err == nil {
		t.Error("misaligned hash payload accepted")
	}
	if hashes[0] != iscsi.HashBlock(data[:16]) || hashes[1] != iscsi.HashBlock(data[16:]) {
		t.Error("hash round trip wrong")
	}
}

// readHashes fetches the hashes of count blocks at lba in a hash
// command of one unit with digest: nil hashes and match when the
// target's own hashes digest to it.
func readHashes(init *iscsi.Initiator, lba uint64, count uint32, digest uint64) (hashes []uint64, match bool, err error) {
	c := iscsi.HashCmd{Units: []iscsi.HashUnit{{LBA: lba, Count: count, Digest: digest}}}
	if err := init.ReadHashUnits(&c); err != nil {
		return nil, false, err
	}
	return c.Units[0].Hashes, c.Units[0].Hashes == nil, nil
}

func TestReadHashesValidation(t *testing.T) {
	store, _ := block.NewMem(512, 8)
	remote := remoteFor(t, store, "r")
	if _, _, err := readHashes(remote, 0, 0, 0); err == nil {
		t.Error("0-block hash accepted")
	}
	if _, _, err := readHashes(remote, 0, 100000, 0); err == nil {
		t.Error("oversized hash batch accepted")
	}
	hashes, _, err := readHashes(remote, 0, 8, 0)
	if err != nil || len(hashes) != 8 {
		t.Errorf("full-device hash = %d,%v", len(hashes), err)
	}
}

// TestRunAddr covers the dial-login-run-close convenience used to heal
// a degraded replica: a real TCP round trip repairs divergence, and a
// dead address fails cleanly.
func TestRunAddr(t *testing.T) {
	local, err := block.NewMem(512, 16)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := block.NewMem(512, 16)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for lba := uint64(0); lba < 4; lba++ {
		buf[0] = byte(lba + 1)
		if err := local.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
	}

	target := iscsi.NewTarget()
	target.Export("vol", &iscsi.StoreBackend{Store: remote})
	addr, err := target.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()

	stats, err := RunAddr(local, addr.String(), "vol", Config{})
	if err != nil {
		t.Fatalf("RunAddr: %v", err)
	}
	if stats.BlocksRepaired != 4 {
		t.Errorf("BlocksRepaired = %d, want 4", stats.BlocksRepaired)
	}
	eq, err := block.Equal(local, remote)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("RunAddr left replica diverged")
	}

	if _, err := RunAddr(local, "127.0.0.1:1", "vol", Config{}); err == nil {
		t.Error("RunAddr to a dead address should fail")
	}
}
