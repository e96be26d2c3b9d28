package core

import (
	"encoding/binary"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"prins/internal/block"
	"prins/internal/faults"
	"prins/internal/iscsi"
	"prins/internal/minidb"
	"prins/internal/resync"
	"prins/internal/wan"
)

// squeezeLink is a replica target reached over net.Pipe sessions shaped
// like a slow WAN link, so an async pipe's queue backs up into full runs
// and its squeezed lists carry a history from push to push. The first
// session dialed may be faulted; later ones are clean, and none can be
// dialed while down is set.
type squeezeLink struct {
	target *iscsi.Target
	first  func(client, server net.Conn) (net.Conn, net.Conn)

	mu    sync.Mutex
	dials int
	down  bool
	tags  [][]uint64  // per session dialed, the history tags of the squeezed lists it carried
	lists [][]listPDU // and every entry list it carried
	wg    sync.WaitGroup
}

// listPDU is an entry-list PDU as a link saw it go out: its history tag
// (0 for a plain list), its entry count and its task tag.
type listPDU struct {
	tag, count uint64
	itt        uint32
}

// tagConn records the history tag of every squeezed list an initiator
// writes, and every entry list (each PDU arrives in one Write: see
// iscsi's writeOnce).
type tagConn struct {
	net.Conn
	link    *squeezeLink
	session int
}

func (c *tagConn) Write(p []byte) (int, error) {
	if len(p) > 48 && (iscsi.Opcode(p[2]) == iscsi.OpReplicaWriteBatch || iscsi.Opcode(p[2]) == iscsi.OpReplicaWriteByRef) {
		tag := binary.BigEndian.Uint64(p[28:])
		count, _ := binary.Uvarint(p[48:]) // both layouts lead with the count
		c.link.mu.Lock()
		if tag != 0 {
			c.link.tags[c.session] = append(c.link.tags[c.session], tag)
		}
		c.link.lists[c.session] = append(c.link.lists[c.session], listPDU{tag, count, binary.BigEndian.Uint32(p[8:])})
		c.link.mu.Unlock()
	}
	return c.Conn.Write(p)
}

// sessionTags returns the tags squeezed lists carried on session n.
func (l *squeezeLink) sessionTags(n int) []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n >= len(l.tags) {
		return nil
	}
	return append([]uint64(nil), l.tags[n]...)
}

// sessionLists returns the entry lists session n carried.
func (l *squeezeLink) sessionLists(n int) []listPDU {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n >= len(l.lists) {
		return nil
	}
	return append([]listPDU(nil), l.lists[n]...)
}

// primedThenFresh reports whether tags holds a push built on a history
// (tag above 1) followed later by a fresh one.
func primedThenFresh(tags []uint64) bool {
	primed := false
	for _, tag := range tags {
		if tag > 1 {
			primed = true
		} else if primed {
			return true
		}
	}
	return false
}

// squeezeLinkShape is the link: a millisecond each way and 2 MB/s, slow
// enough that squeezing pays and a writer's backlog fills its runs.
var squeezeLinkShape = wan.LinkConfig{Latency: time.Millisecond, BytesPerSecond: 2 << 20}

var errLinkDown = errors.New("replica unreachable")

func (l *squeezeLink) dial() (net.Conn, error) {
	l.mu.Lock()
	n, down := l.dials, l.down
	l.dials++
	if !down {
		l.tags, l.lists = append(l.tags, nil), append(l.lists, nil)
	}
	session := len(l.tags) - 1
	l.mu.Unlock()
	if down {
		return nil, errLinkDown
	}
	pipe, server := net.Pipe()
	client := net.Conn(&tagConn{Conn: wan.Shape(pipe, squeezeLinkShape), link: l, session: session})
	if n == 0 && l.first != nil {
		client, server = l.first(client, server)
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.target.ServeConn(server)
	}()
	return client, nil
}

// session dials and logs in a fresh initiator, reconnection armed.
func (l *squeezeLink) session(t *testing.T) *iscsi.Initiator {
	t.Helper()
	conn, err := l.dial()
	if err != nil {
		t.Fatal(err)
	}
	in := iscsi.NewInitiator(conn)
	in.EnableReconnect("replica", l.dial)
	if err := in.Login("replica"); err != nil {
		t.Fatal(err)
	}
	return in
}

// squeezeChaos is one TPC-C replay through an async primary whose pipe
// squeezes every backlog run, its replica behind a squeezeLink.
type squeezeChaos struct {
	e              *Engine
	link           *squeezeLink
	primary, image block.Store
	replica        *block.MemStore
	replicaEngine  *ReplicaEngine
	writes         []blockWrite
}

func newSqueezeChaos(t *testing.T, cfg Config, first func(client, server net.Conn) (net.Conn, net.Conn)) *squeezeChaos {
	t.Helper()
	image, writes := tpccWrites(t, 11, 90)
	if len(writes) > 600 {
		writes = writes[:600]
	}
	c := &squeezeChaos{image: image, primary: cloneStore(t, image), replica: cloneStore(t, image), writes: writes}
	c.replicaEngine = NewReplicaEngine(c.replica)
	c.link = &squeezeLink{target: iscsi.NewTarget(), first: first}
	c.link.target.Export("replica", c.replicaEngine)
	in := c.link.session(t)
	// Runs of 8 fill behind the link even when the writer is slow (under
	// the race detector, say): only a full run is a backlog the gate
	// squeezes.
	cfg.Mode, cfg.Async, cfg.BatchFrames = ModePRINS, true, 8
	cfg.Retry = RetryPolicy{Attempts: 2, Timeout: 300 * time.Millisecond, Backoff: time.Millisecond, Jitter: NoJitter, Sleep: func(time.Duration) {}}
	e, err := NewEngine(c.primary, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AttachReplica(in); err != nil {
		t.Fatal(err)
	}
	// On: every backlog run of the replay squeezes, the one a fault or a
	// refusal lands on too, until a squeezed list comes out no smaller.
	e.replicas[0].pipes[0].sq.gate = squeezeGate{on: true}
	c.e = e
	t.Cleanup(func() {
		e.Close()
		in.Close()
		c.link.target.Close()
		c.link.wg.Wait()
	})
	return c
}

// write replays writes[from:to] through the engine.
func (c *squeezeChaos) write(t *testing.T, from, to int) {
	t.Helper()
	for _, w := range c.writes[from:to] {
		if err := c.e.WriteBlock(w.lba, w.data); err != nil {
			t.Fatal(err)
		}
	}
}

// check drains the engine and holds the replica to the primary byte for
// byte, then opens the database on a copy of it.
func (c *squeezeChaos) check(t *testing.T) ReplicaStat {
	t.Helper()
	if err := c.e.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	mustEqual(t, "replica after the fault", c.replica, c.primary)
	db, err := minidb.Open(cloneStore(t, c.replica), minidb.DBConfig{CacheBytes: 256 << 10, WALPages: 32, CheckpointEvery: 16})
	if err != nil {
		t.Fatalf("minidb.Open on the replica: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("minidb close on the replica: %v", err)
	}
	st := c.e.ReplicaStats()[0]
	if st.Metrics.Squeezed == 0 {
		t.Fatal("no entry shipped squeezed: the fault hit no squeezed push")
	}
	return st
}

// TestChaosSqueezeHistoryResponseDropped: the target's answer to a
// squeezed push is lost after it applied the push. The push times out,
// the session redials, and the push re-ships fresh on the new session's
// empty history; the replica dedupes what it already applied.
func TestChaosSqueezeHistoryResponseDropped(t *testing.T) {
	plan := faults.NewPlan(1)
	c := newSqueezeChaos(t, Config{}, func(client, server net.Conn) (net.Conn, net.Conn) {
		// The login answer and a few push answers go through; a later
		// squeezed push's answer is swallowed whole.
		return client, plan.WrapConn(server, faults.ConnFaults{Fault: faults.FaultDrop, AfterBytes: 700})
	})
	c.write(t, 0, len(c.writes))
	c.check(t)
	c.redialedFresh(t)
}

// redialedFresh checks that the first session carried squeezed lists
// built on its history before the fault, and that the session redialed
// after it started its history over: its first squeezed list is fresh.
func (c *squeezeChaos) redialedFresh(t *testing.T) {
	t.Helper()
	first, second := c.link.sessionTags(0), c.link.sessionTags(1)
	if len(second) == 0 || second[0] != 1 || !slices.ContainsFunc(first, func(tag uint64) bool { return tag > 1 }) {
		t.Fatalf("squeezed lists' tags: %v before the fault, %v on the redialed session; want primed pushes, then a fresh one", first, second)
	}
}

// TestChaosSqueezeHistoryConnReset: the connection is reset in the
// middle of a squeezed push. The session redials and the push re-ships
// fresh.
func TestChaosSqueezeHistoryConnReset(t *testing.T) {
	plan := faults.NewPlan(2)
	c := newSqueezeChaos(t, Config{}, func(client, server net.Conn) (net.Conn, net.Conn) {
		return plan.WrapConn(client, faults.ConnFaults{Fault: faults.FaultReset, AfterBytes: 24 << 10}), server
	})
	c.write(t, 0, len(c.writes))
	c.check(t)
	c.redialedFresh(t)
}

// TestChaosSqueezeHistoryRefMiss: a squeezed by-ref push meets a
// replica that can resolve none of its references; the refused suffix
// re-ships by value, squeezed on a fresh history.
func TestChaosSqueezeHistoryRefMiss(t *testing.T) {
	c := newSqueezeChaos(t, Config{DedupeEntries: 4096}, nil)
	half := len(c.writes) / 2
	c.write(t, 0, half)
	if err := c.e.Drain(); err != nil {
		t.Fatal(err)
	}
	// Copy pages the replica acknowledged to blocks past the database,
	// all at once: the primary's index ships them by reference, in a
	// squeezed backlog run beside the rest of the workload, and the
	// replica, its index off, refuses every one.
	c.replicaEngine.SetDedupe(0)
	spare := c.primary.NumBlocks() - 64
	for k, w := range c.writes[:48] {
		if err := c.e.WriteBlock(spare+uint64(k), w.data); err != nil {
			t.Fatal(err)
		}
	}
	c.write(t, half, len(c.writes))
	st := c.check(t)
	if st.Metrics.DedupeMisses == 0 {
		t.Fatal("no reference was refused")
	}
	if tags := c.link.sessionTags(0); !primedThenFresh(tags) {
		t.Errorf("squeezed lists' tags %v: the refused suffix did not re-ship on a fresh history", tags)
	}
}

// TestChaosSqueezeHistoryDegradeHeal: the replica drops off the link
// mid-workload and cannot be redialed. The primary degrades and keeps
// writing; the replica is healed by resync, and replication resumes,
// squeezed, on a fresh session whose history starts empty.
func TestChaosSqueezeHistoryDegradeHeal(t *testing.T) {
	plan := faults.NewPlan(3)
	c := newSqueezeChaos(t, Config{AllowDegraded: true}, func(client, server net.Conn) (net.Conn, net.Conn) {
		return plan.WrapConn(client, faults.ConnFaults{Fault: faults.FaultReset, AfterBytes: 24 << 10}), server
	})
	c.link.mu.Lock()
	c.link.down = true
	c.link.mu.Unlock()
	half := len(c.writes) / 2
	c.write(t, 0, half)
	if err := c.e.Drain(); err != nil {
		t.Fatal(err)
	}
	if !c.e.Degraded() {
		t.Fatal("the replica never degraded")
	}
	c.link.mu.Lock()
	c.link.down = false
	c.link.mu.Unlock()
	remote := c.link.session(t)
	defer remote.Close()
	if _, err := resync.Run(c.e, remote, resync.Config{}); err != nil {
		t.Fatalf("resync: %v", err)
	}
	c.e.ClearDegraded()
	squeezedBefore := c.e.ReplicaStats()[0].Metrics.Squeezed
	c.write(t, half, len(c.writes))
	st := c.check(t)
	if st.Metrics.Squeezed == squeezedBefore {
		t.Error("nothing shipped squeezed after the heal")
	}
	// Session 1 is the resync's; the primary's pushes resumed on 2.
	first, healed := c.link.sessionTags(0), c.link.sessionTags(2)
	if len(healed) == 0 || healed[0] != 1 || !slices.ContainsFunc(first, func(tag uint64) bool { return tag > 1 }) {
		t.Errorf("squeezed lists' tags: %v before the fault, %v after the heal; want primed pushes, then a fresh one", first, healed)
	}
}
