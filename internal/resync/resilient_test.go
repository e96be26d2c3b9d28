package resync

import (
	"math/rand"
	"net"
	"testing"

	"prins/internal/block"
	"prins/internal/core"
	"prins/internal/iscsi"
)

// TestResilientClientHealsAfterDrop replicates through a resilient
// client, kills the underlying session mid-stream, and verifies that
// the client reconnects, resyncs the missed window, and converges.
func TestResilientClientHealsAfterDrop(t *testing.T) {
	const (
		blockSize = 512
		numBlocks = 64
	)

	replicaStore, err := block.NewMem(blockSize, numBlocks)
	if err != nil {
		t.Fatal(err)
	}
	replicaEngine := core.NewReplicaEngine(replicaStore)
	target := iscsi.NewTarget()
	target.Export("vol", replicaEngine)
	addr, err := target.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()

	primary, err := block.NewMem(blockSize, numBlocks)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewResilientClient(primary, addr.String(), "vol")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	engine, err := core.NewEngine(primary, core.Config{Mode: core.ModePRINS})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	engine.AttachReplica(client)

	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, blockSize)
	write := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			rng.Read(buf)
			if err := engine.WriteBlock(uint64(rng.Intn(numBlocks)), buf); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
	}

	write(50)
	if client.Reconnects() != 0 {
		t.Fatalf("unexpected reconnects: %d", client.Reconnects())
	}

	// Sever the replication session behind the client's back.
	client.mu.Lock()
	client.conn.Close()
	client.mu.Unlock()

	// Writes keep flowing; the first failing push triggers reconnect +
	// resync.
	write(50)
	if client.Reconnects() != 1 {
		t.Errorf("reconnects = %d, want 1", client.Reconnects())
	}

	eq, err := block.Equal(primary, replicaStore)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		lba, _, _ := block.FirstDiff(primary, replicaStore)
		t.Fatalf("replica diverged at lba %d after heal", lba)
	}
}

// TestResilientClientFailsWhenReplicaGone reports an error (rather
// than hanging or silently dropping) when the replica is truly down.
func TestResilientClientFailsWhenReplicaGone(t *testing.T) {
	replicaStore, _ := block.NewMem(512, 8)
	target := iscsi.NewTarget()
	target.Export("vol", core.NewReplicaEngine(replicaStore))
	addr, err := target.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	primary, _ := block.NewMem(512, 8)
	client, err := NewResilientClient(primary, addr.String(), "vol")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Take the whole node down.
	if err := target.Close(); err != nil {
		t.Fatal(err)
	}
	client.mu.Lock()
	client.conn.Close()
	client.conn = nil
	client.mu.Unlock()

	if err := client.ReplicaWriteStream(uint8(core.ModePRINS), 0, 0, 1, 0, 0, []byte{1}); err == nil {
		t.Error("push to dead replica succeeded")
	}
}

func TestResilientClientBadGeometry(t *testing.T) {
	small, _ := block.NewMem(512, 4)
	target := iscsi.NewTarget()
	target.Export("vol", core.NewReplicaEngine(small))
	addr, err := target.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()

	big, _ := block.NewMem(512, 64)
	if _, err := NewResilientClient(big, addr.String(), "vol"); err == nil {
		t.Error("mismatched geometry accepted")
	}
}

// TestResilientClientHealsDivergedUnasked: a push the replica refuses
// as diverged is healed in place, on the live session, by a one-block
// resync of a marked range: the block differs by construction, so the
// heal ships it with no hash command.
func TestResilientClientHealsDivergedUnasked(t *testing.T) {
	const blockSize, numBlocks = 512, 64
	replicaStore, err := block.NewMem(blockSize, numBlocks)
	if err != nil {
		t.Fatal(err)
	}
	var conn *opConn
	remote := session(t, core.NewReplicaEngine(replicaStore), func(c net.Conn) net.Conn {
		conn = &opConn{Conn: c, ops: map[iscsi.Opcode]int{}}
		return conn
	})
	primary, err := block.NewMem(blockSize, numBlocks)
	if err != nil {
		t.Fatal(err)
	}
	client := &ResilientClient{local: primary, conn: remote}
	engine, err := core.NewEngine(primary, core.Config{Mode: core.ModePRINS})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	engine.AttachReplica(client)

	buf := make([]byte, blockSize)
	rng := rand.New(rand.NewSource(2))
	rng.Read(buf)
	if err := engine.WriteBlock(5, buf); err != nil {
		t.Fatal(err)
	}
	rng.Read(buf)
	if err := replicaStore.WriteBlock(5, buf); err != nil { // rot the replica's copy
		t.Fatal(err)
	}
	rng.Read(buf)
	if err := engine.WriteBlock(5, buf); err != nil {
		t.Fatal(err)
	}
	if err := engine.Drain(); err != nil {
		t.Fatal(err)
	}
	if client.Repaired() != 1 || client.Reconnects() != 0 {
		t.Errorf("repaired %d blocks after %d reconnects, want 1 in place", client.Repaired(), client.Reconnects())
	}
	if n := conn.count(iscsi.OpHashCmd); n != 0 {
		t.Errorf("the heal sent %d hash commands, want none", n)
	}
	if eq, err := block.Equal(primary, replicaStore); err != nil || !eq {
		t.Fatalf("replica differs after the heal (err %v)", err)
	}
}
