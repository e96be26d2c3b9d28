package prins

import (
	"sync/atomic"
	"testing"

	"prins/internal/block"
	"prins/internal/core"
	"prins/internal/iscsi"
)

// readCounter is a replica backend that counts the blocks the target
// reads from it: a hash command reads every block of its units.
type readCounter struct {
	*core.ReplicaEngine
	reads atomic.Int64
}

func (r *readCounter) HandleRead(lba uint64, dst []byte) iscsi.Status {
	bs, _ := r.Geometry()
	r.reads.Add(int64(len(dst) / bs))
	return r.ReplicaEngine.HandleRead(lba, dst)
}

// TestResyncReplicaDirtyUnasked: the documented way back from a
// degrade, ResyncReplica over DirtyRanges, asks the replica nothing:
// the blocks the dirty map holds ship as repair spans with no hash
// command, and the replica ends byte-identical. A ResyncReplica over
// the whole device ships the same blocks unasked and compares only the
// rest.
func TestResyncReplicaDirtyUnasked(t *testing.T) {
	const bs, nb = 4096, 64
	local, err := NewMemStore(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := NewMemStore(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	backend := &readCounter{ReplicaEngine: core.NewReplicaEngine(replica)}
	target := iscsi.NewTarget()
	target.Export("r", backend)
	addr, err := target.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { target.Close() })
	proxy := newCutProxy(t, addr.String())
	p, err := NewPrimary(local, Config{Mode: ModePRINS, AllowDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.AttachReplicaAddr(proxy.addr(), "r"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, bs)
	write := func(lbas ...uint64) {
		t.Helper()
		for _, lba := range lbas {
			buf[0]++
			buf[lba%bs]++
			if err := p.WriteBlock(lba, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Drain(); err != nil {
			t.Fatal(err)
		}
	}

	write(0, 1, 2, 3, 10, 11)
	proxy.cut()
	write(3, 5, 20, 21, 22, 40)
	if !p.Degraded() {
		t.Fatal("primary not degraded with the replica's link cut")
	}
	dirty := p.DirtyRanges(0)
	var n uint64
	for _, r := range dirty {
		n += r.Count
	}
	if n != 6 {
		t.Fatalf("dirty ranges %v after six writes the replica missed", dirty)
	}

	st, err := p.ResyncReplica(0, addr.String(), "r", dirty...)
	if err != nil {
		t.Fatal(err)
	}
	if st.HashFetches != 0 || st.HashBytes != 0 || backend.reads.Load() != 0 || st.BlocksScanned != n || st.BlocksRepaired != n {
		t.Errorf("resync over DirtyRanges: %+v, the replica read %d blocks; want %d shipped with no hash command",
			st, backend.reads.Load(), n)
	}
	if eq, err := Equal(local, replica); err != nil || !eq {
		t.Fatalf("replica differs after the resync (err %v)", err)
	}

	// Over the whole device the same blocks ship unasked; the replica
	// hashes only the rest.
	st, err = p.ResyncReplica(0, addr.String(), "r")
	if err != nil {
		t.Fatal(err)
	}
	if st.HashFetches == 0 || backend.reads.Load() != int64(nb-n) || st.BlocksScanned != nb || st.BlocksRepaired != n {
		t.Errorf("whole-device resync: %+v, the replica read %d blocks; want %d hashed, %d shipped", st, backend.reads.Load(), nb-n, n)
	}
	if got := block.CountBlocks(p.engine.DirtyRanges(0)); got != n {
		t.Errorf("the resync changed the dirty map: %d blocks, want %d", got, n)
	}
}
