package prins_test

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"prins/internal/block"
	"prins/internal/iscsi"
	"prins/internal/resync"
)

// meteredConn counts the bytes that cross a connection both ways.
type meteredConn struct {
	net.Conn
	n atomic.Int64
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// TestResyncDigestWire pins what a digest-checked hash fetch costs on
// the wire: every fetch carries the primary's digest of its batch, and
// a replica that agrees answers with a bare header. A whole-device
// resync of an identical 8192-block pair of 8 KiB blocks, 32 batches of
// 256, moves exactly 32 x (48 B request + 48 B response) and no hash,
// yet learns every block. One flipped block brings back exactly its
// batch's 2048 B of hashes and ships one span, request and response
// headers included.
func TestResyncDigestWire(t *testing.T) {
	const (
		bs      = 8 << 10
		nb      = 8192
		batches = nb / 256
		header  = 48
	)
	local, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	buf := make([]byte, bs)
	for lba := uint64(0); lba < nb; lba++ {
		rng.Read(buf)
		if err := local.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
	}
	replica, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	if err := block.Copy(replica, local); err != nil {
		t.Fatal(err)
	}

	target := iscsi.NewTarget()
	target.Export("r", &iscsi.StoreBackend{Store: replica})
	client, server := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		target.ServeConn(server)
	}()
	conn := &meteredConn{Conn: client}
	remote := iscsi.NewInitiator(conn)
	t.Cleanup(func() {
		remote.Close()
		wg.Wait()
	})
	if err := remote.Login("r"); err != nil {
		t.Fatal(err)
	}

	run := func() (resync.Stats, int64, map[uint64]uint64) {
		t.Helper()
		learned := map[uint64]uint64{}
		before := conn.n.Load()
		st, err := resync.Run(local, remote, resync.Config{Learn: func(lba, hash uint64) { learned[lba] = hash }})
		if err != nil {
			t.Fatal(err)
		}
		return st, conn.n.Load() - before, learned
	}

	st, wire, learned := run()
	if want := int64(batches * 2 * header); wire != want || st.HashBytes != 0 || st.HashFetches != batches {
		t.Errorf("identical pair: %d wire bytes, %d hash bytes in %d fetches; want %d, 0 in %d", wire, st.HashBytes, st.HashFetches, want, batches)
	}
	if st.BlocksScanned != nb || st.BlocksRepaired != 0 || len(learned) != nb {
		t.Errorf("identical pair: scanned %d, repaired %d, learned %d; want %d, 0, %d", st.BlocksScanned, st.BlocksRepaired, len(learned), nb, nb)
	}
	for _, lba := range []uint64{0, 4097, nb - 1} {
		if err := local.ReadBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
		if learned[lba] != iscsi.HashBlock(buf) {
			t.Errorf("block %d learned as %x, want its content hash", lba, learned[lba])
		}
	}

	const flipped = 5000
	if err := replica.ReadBlock(flipped, buf); err != nil {
		t.Fatal(err)
	}
	buf[100] ^= 1
	if err := replica.WriteBlock(flipped, buf); err != nil {
		t.Fatal(err)
	}
	st, wire, learned = run()
	if st.HashBytes != 256*iscsi.HashSize || st.BlocksRepaired != 1 || st.RepairWrites != 1 || len(learned) != nb {
		t.Errorf("one flipped block: %d hash bytes, %d repaired in %d spans, %d learned; want 2048, 1 in 1, %d", st.HashBytes, st.BlocksRepaired, st.RepairWrites, len(learned), nb)
	}
	if want := int64(batches*2*header) + st.HashBytes + 2*header + st.SentBytes; wire != want {
		t.Errorf("one flipped block: %d wire bytes, want %d", wire, want)
	}
	if eq, err := block.Equal(local, replica); err != nil || !eq {
		t.Errorf("replica differs after the repair (err %v)", err)
	}
}
