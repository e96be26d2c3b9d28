package prins

import (
	"net"
	"sync"
	"testing"

	"prins/internal/core"
	"prins/internal/iscsi"
	"prins/internal/wan"
)

// TestReplicaStatsMirrorSqueeze: a Primary's ReplicaStats carries each
// replica's squeeze counters as the engine books them. Prose-like
// writes go through an async Primary whose replica sits behind a
// T1-shaped net.Pipe, where the gate squeezes.
func TestReplicaStatsMirrorSqueeze(t *testing.T) {
	const bs, nb, writes = 4096, 128, 384
	local, err := NewMemStore(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := NewMemStore(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	target := iscsi.NewTarget()
	target.Export("r", core.NewReplicaEngine(replica))
	client, server := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		target.ServeConn(server)
	}()
	init := iscsi.NewInitiator(wan.Shape(client, wan.T1Link()))
	t.Cleanup(func() {
		init.Close()
		wg.Wait()
	})
	if err := init.Login("r"); err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(local, Config{Mode: ModePRINS, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.engine.AttachReplica(init); err != nil {
		t.Fatal(err)
	}
	const words = "warehouse district customer order line stock item history "
	buf := make([]byte, bs)
	for k := range writes {
		for i := range 600 {
			buf[i] = words[(i*7+k*13)%len(words)]
		}
		buf[0] = byte(k)
		if err := p.WriteBlock(uint64(k%nb), buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	got, m := p.ReplicaStats()[0], p.engine.ReplicaStats()[0].Metrics
	if got.Squeezed == 0 || got.SqueezeSavedWireBytes <= 0 || got.SqueezeSwitches == 0 {
		t.Fatalf("no squeeze behind T1: %+v", got)
	}
	if got.Squeezed != m.Squeezed || got.SqueezeSavedWireBytes != m.SqueezeSavedWire || got.SqueezeSwitches != m.SqueezeSwitches {
		t.Errorf("ReplicaStats squeeze counters %d entries, %d B saved, %d switches; the engine booked %d, %d, %d",
			got.Squeezed, got.SqueezeSavedWireBytes, got.SqueezeSwitches, m.Squeezed, m.SqueezeSavedWire, m.SqueezeSwitches)
	}
}

// TestReplicaStatsReconnects: a Primary's ReplicaStats counts the
// replica session's redials, for both clients that count them: an
// initiator with its redial armed (AttachReplicaAddr arms none, so the
// test attaches it to the engine itself) and AttachReplicaResilient's
// client. The replica sits behind a link that is cut while writes
// degrade it, then restored and healed (ResyncReplica, ClearDirty,
// ClearDegraded). Each counts exactly one: the failed redial while the
// link was down is not one, the next push's is.
func TestReplicaStatsReconnects(t *testing.T) {
	const bs, nb = 4096, 32
	for _, tc := range []struct {
		name   string
		attach func(t *testing.T, p *Primary, addr string) error
	}{
		{"initiator", func(t *testing.T, p *Primary, addr string) error {
			init, err := iscsi.Dial(addr)
			if err != nil {
				return err
			}
			t.Cleanup(func() { init.Close() })
			if err := init.Login("r"); err != nil {
				return err
			}
			init.EnableReconnectTCP(addr, "r")
			return p.engine.AttachReplica(init)
		}},
		{"resilient", func(_ *testing.T, p *Primary, addr string) error {
			return p.AttachReplicaResilient(addr, "r")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			local, err := NewMemStore(bs, nb)
			if err != nil {
				t.Fatal(err)
			}
			replica, err := NewMemStore(bs, nb)
			if err != nil {
				t.Fatal(err)
			}
			rep := NewReplica(replica)
			addr, err := rep.Serve("127.0.0.1:0", "r")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rep.Close() })
			proxy := newCutProxy(t, addr.String())
			p, err := NewPrimary(local, Config{Mode: ModePRINS, AllowDegraded: true})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if err := tc.attach(t, p, proxy.addr()); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, bs)
			write := func(lba uint64) {
				t.Helper()
				buf[0]++
				if err := p.WriteBlock(lba, buf); err != nil {
					t.Fatal(err)
				}
				if err := p.Drain(); err != nil {
					t.Fatal(err)
				}
			}

			write(0)
			if n := p.ReplicaStats()[0].Reconnects; n != 0 {
				t.Fatalf("Reconnects = %d on a healthy session, want 0", n)
			}
			proxy.cut()
			write(1)
			if !p.Degraded() {
				t.Fatal("primary not degraded with the replica's link cut")
			}
			if n := p.ReplicaStats()[0].Reconnects; n != 0 {
				t.Fatalf("Reconnects = %d with the link down, want 0", n)
			}
			proxy.restore()
			dirty := p.DirtyRanges(0)
			if _, err := p.ResyncReplica(0, proxy.addr(), "r", dirty...); err != nil {
				t.Fatal(err)
			}
			p.ClearDirty(0, dirty...)
			p.ClearDegraded()
			write(2)
			got, want := p.ReplicaStats()[0].Reconnects, p.engine.ReplicaStats()[0].Reconnects
			if got != 1 || want != 1 {
				t.Fatalf("Reconnects = %d (engine %d) after one cut and heal, want 1", got, want)
			}
		})
	}
}
