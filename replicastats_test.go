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
