package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"prins/internal/block"
	"prins/internal/core"
	"prins/internal/iscsi"
	"prins/internal/journal"
	"prins/internal/wan"
)

// exportName is the name the replica engine is exported under.
const exportName = "replica"

// connStats counts what crosses the replica session's connection, the
// one seam every workload ships through. The byte counters
// are always on (wire_bytes_per_write is an end-to-end metric); the
// timings only run while a tracer is recording.
type connStats struct {
	wBytes atomic.Int64
	rBytes atomic.Int64

	tr *tracer
}

// meterConn sits between the initiator and the (shaped or raw) socket.
// It must stay the outermost wrapper: anything between wan.ShapedConn
// and the TCP socket would turn the vectored writev of a batch PDU
// into one write per buffer, and anything above ShapedConn without
// WriteBuffers would charge the link latency once per buffer.
type meterConn struct {
	net.Conn
	st *connStats
}

type buffersWriter interface {
	WriteBuffers(bufs net.Buffers) (int64, error)
}

func (c *meterConn) Write(p []byte) (int, error) {
	start := c.st.tr.connWriteStart()
	n, err := c.Conn.Write(p)
	c.st.wBytes.Add(int64(n))
	c.st.tr.connWriteEnd(start, int64(n))
	return n, err
}

// WriteBuffers keeps a batch PDU one operation end to end: one latency
// charge on a shaped link, one writev on a raw socket.
func (c *meterConn) WriteBuffers(bufs net.Buffers) (int64, error) {
	start := c.st.tr.connWriteStart()
	var n int64
	var err error
	if bw, ok := c.Conn.(buffersWriter); ok {
		n, err = bw.WriteBuffers(bufs)
	} else {
		n, err = bufs.WriteTo(c.Conn)
	}
	c.st.wBytes.Add(n)
	c.st.tr.connWriteEnd(start, n)
	return n, err
}

func (c *meterConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.st.rBytes.Add(int64(n))
	c.st.tr.connRead()
	return n, err
}

// errLinkDown is what the dial func answers during an outage window.
var errLinkDown = errors.New("bench: link is down")

// link dials the replica session's connections and can take the path
// away: sever closes the live connection and makes every redial fail
// until restore, which is how the outage workload degrades its replica
// without touching the engine.
type link struct {
	addr string
	cfg  wan.LinkConfig
	st   *connStats

	mu   sync.Mutex
	down bool
	cur  net.Conn
}

func (l *link) dial() (net.Conn, error) {
	l.mu.Lock()
	down := l.down
	l.mu.Unlock()
	if down {
		return nil, errLinkDown
	}
	raw, err := net.Dial("tcp", l.addr)
	if err != nil {
		return nil, fmt.Errorf("bench: dial replica: %w", err)
	}
	var c net.Conn = raw
	if l.cfg != (wan.LinkConfig{}) {
		c = wan.Shape(raw, l.cfg)
	}
	mc := &meterConn{Conn: c, st: l.st}
	l.mu.Lock()
	l.cur = mc
	l.mu.Unlock()
	return mc, nil
}

func (l *link) sever() {
	l.mu.Lock()
	l.down = true
	cur := l.cur
	l.mu.Unlock()
	if cur != nil {
		_ = cur.Close() // the session is being cut on purpose
	}
}

func (l *link) restore() {
	l.mu.Lock()
	l.down = false
	l.mu.Unlock()
}

// cell is one replicated volume: primary engine -> initiator -> link ->
// target -> replica engine, assembled from the exported constructors
// the daemons use. primary and replica are the raw stores, kept for
// the byte-identity check.
type cell struct {
	spec    spec
	primary block.Store
	replica block.Store
	engine  *core.Engine
	client  *iscsi.Initiator
	target  *iscsi.Target
	link    *link
	conn    *connStats
	tr      *tracer
}

// buildCell is the set-up every run pays: device fill (or database
// load, or mkfs plus tree), initial sync, listen, dial, login, engine,
// attach. With a tracer, the tracer's wrappers go on the public seams;
// without one only the connection is metered.
func buildCell(sp spec, seed int64, tr *tracer) (*cell, error) {
	primary, err := block.NewMem(sp.blockSize, sp.numBlocks)
	if err != nil {
		return nil, err
	}
	replica, err := block.NewMem(sp.blockSize, sp.numBlocks)
	if err != nil {
		return nil, err
	}
	if err := sp.populate(primary, seed); err != nil {
		return nil, fmt.Errorf("bench: populate %s: %w", sp.name, err)
	}
	if err := block.Copy(replica, primary); err != nil {
		return nil, fmt.Errorf("bench: initial sync: %w", err)
	}

	c := &cell{spec: sp, primary: primary, replica: replica, tr: tr, conn: &connStats{tr: tr}}

	replicaStore := tr.wrapReplicaStore(replica)
	var repl *core.ReplicaEngine
	if sp.journaled {
		repl, err = core.NewReplicaEngineJournaled(replicaStore, journal.New(tr.wrapJournal(&journal.Mem{})))
		if err != nil {
			return nil, err
		}
	} else {
		repl = core.NewReplicaEngine(replicaStore)
	}
	if sp.engine.DedupeEntries != 0 {
		repl.SetDedupe(sp.engine.DedupeEntries)
		if err := repl.WarmDedupe(); err != nil {
			return nil, err
		}
	}

	c.target = iscsi.NewTarget()
	c.target.Export(exportName, tr.wrapBackend(repl))
	addr, err := c.target.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.link = &link{addr: addr.String(), cfg: sp.link, st: c.conn}
	conn, err := c.link.dial()
	if err != nil {
		c.close()
		return nil, err
	}
	c.client = iscsi.NewInitiator(conn)
	if err := c.client.Login(exportName); err != nil {
		c.close()
		return nil, fmt.Errorf("bench: login: %w", err)
	}
	if sp.outageRounds > 0 {
		c.client.EnableReconnect(exportName, c.link.dial)
	}

	c.engine, err = core.NewEngine(tr.wrapPrimaryStore(primary), sp.engine)
	if err != nil {
		c.close()
		return nil, err
	}
	if err := c.engine.AttachReplica(tr.wrapClient(c.client)); err != nil {
		c.close()
		return nil, err
	}
	if sp.engine.DedupeEntries != 0 {
		// The primary's per-replica index starts empty; a hash exchange
		// with Learn is the documented way to warm it.
		if _, err := c.resync(block.Range{Start: 0, Count: sp.numBlocks}); err != nil {
			c.close()
			return nil, fmt.Errorf("bench: warm dedupe index: %w", err)
		}
	}
	return c, nil
}

// close stops the engine's shippers, the session and the target's
// goroutines, in that order, and waits for each.
func (c *cell) close() {
	if c.engine != nil {
		_ = c.engine.Close() // Close only drains; delivery errors were reported by Drain
	}
	if c.client != nil {
		_ = c.client.Close() // no logout handshake wanted
	}
	if c.target != nil {
		_ = c.target.Close() // always nil
	}
}

// converged is the correctness check every workload ends on.
func (c *cell) converged() (bool, error) {
	return block.Equal(c.primary, c.replica)
}
