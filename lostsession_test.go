package prins

import (
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// cutProxy is a loopback TCP proxy in front of a replica node that a
// test can cut and restore: cut severs every connection it carries and
// makes it hang up on new ones at once, as a dead WAN link does to a
// session and to every redial; restore lets new connections through
// again.
type cutProxy struct {
	ln      net.Listener
	backend string

	mu    sync.Mutex
	down  bool
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func newCutProxy(tb testing.TB, backend string) *cutProxy {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	p := &cutProxy{ln: ln, backend: backend, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.accept()
	tb.Cleanup(p.close)
	return p
}

func (p *cutProxy) addr() string { return p.ln.Addr().String() }

func (p *cutProxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		down := p.down
		p.mu.Unlock()
		if down {
			_ = c.Close() // the link is cut: the dial lands, the login never does
			continue
		}
		b, err := net.Dial("tcp", p.backend)
		if err != nil {
			_ = c.Close() // the backend is gone; the client sees a hang-up
			continue
		}
		p.mu.Lock()
		p.conns[c], p.conns[b] = struct{}{}, struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pump(c, b)
		go p.pump(b, c)
	}
}

// pump copies src to dst until either side fails, then closes both.
func (p *cutProxy) pump(dst, src net.Conn) {
	defer p.wg.Done()
	_, _ = io.Copy(dst, src) // ends when the link is cut or a side hangs up
	_ = dst.Close()
	_ = src.Close()
	p.mu.Lock()
	delete(p.conns, dst)
	delete(p.conns, src)
	p.mu.Unlock()
}

// cut severs every carried connection and refuses new ones.
func (p *cutProxy) cut() {
	p.mu.Lock()
	p.down = true
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
}

// restore lets new connections through again.
func (p *cutProxy) restore() {
	p.mu.Lock()
	p.down = false
	p.mu.Unlock()
}

func (p *cutProxy) close() {
	_ = p.ln.Close()
	p.cut()
	p.wg.Wait()
}

// TestGroupRidesOutDeadUnit: a synchronous 2-of-3 group without
// AllowDegraded keeps committing writes at its healthy pace when one
// unit's replica node is gone. That unit's session fails each push at
// once, and the quorum of the other two commits the write. A session
// that waited out a reconnect backoff on every push to the dead node
// would instead fill that unit's ship queue and hold the writes behind
// it: 3000 writes then took 13 s, against 0.3 s healthy. The
// bound is relative to the same writes with every node up, so a slow
// or instrumented build moves both sides alike.
func TestGroupRidesOutDeadUnit(t *testing.T) {
	const (
		bs, nb = 4096, 256
		writes = 3000
		dead   = 2
		slack  = 500 * time.Millisecond
	)
	local, err := NewMemStore(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(local, Config{Mode: ModePRINS, GroupK: 2, GroupN: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	reps := make([]*Replica, 3)
	for i := range reps {
		st, err := NewMemStore(p.GroupUnitSize(), nb)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = NewReplica(st)
		addr, err := reps[i].Serve("127.0.0.1:0", "r")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { reps[i].Close() })
		if err := p.AttachReplicaAddr(addr.String(), "r"); err != nil {
			t.Fatalf("attach replica %d: %v", i, err)
		}
	}

	rng := rand.New(rand.NewSource(8))
	buf := make([]byte, bs)
	write := func(lba uint64) {
		t.Helper()
		rng.Read(buf)
		if err := p.WriteBlock(lba, buf); err != nil {
			t.Fatalf("write lba %d: %v", lba, err)
		}
	}
	timed := func() time.Duration {
		start := time.Now()
		for n := 0; n < writes; n++ {
			write(uint64(n % nb))
		}
		_ = p.Drain() // with a node dead, its unit's failed pushes surface here, by design
		return time.Since(start)
	}
	healthy := timed()
	if err := reps[dead].Close(); err != nil {
		t.Fatal(err)
	}
	if took, bound := timed(), 4*healthy+slack; took > bound {
		t.Fatalf("%d writes with one unit's node dead took %v, want under %v (%v with every node up)",
			writes, took, bound, healthy)
	}
}
