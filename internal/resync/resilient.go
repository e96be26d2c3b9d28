package resync

import (
	"errors"
	"fmt"
	"sync"

	"prins/internal/block"
	"prins/internal/iscsi"
)

// ResilientClient is a replication client that survives connection
// loss: when a push fails it re-dials the replica, logs in again, and
// — because pushes were lost while the session was down — runs a
// hash-based delta resync from the authoritative local store before
// resuming. This turns the engine's fail-stop replication into
// self-healing replication while preserving PRINS's precondition that
// the replica holds the correct A_old.
type ResilientClient struct {
	addr   string
	export string
	local  block.Store

	mu        sync.Mutex
	conn      *iscsi.Initiator
	reconnect int64
	repaired  int64
}

// NewResilientClient dials the replica and returns a client that will
// transparently reconnect and resync on failure. local is the
// authoritative device replicated from.
func NewResilientClient(local block.Store, addr, export string) (*ResilientClient, error) {
	c := &ResilientClient{addr: addr, export: export, local: local}
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.conn = conn
	return c, nil
}

func (c *ResilientClient) dial() (*iscsi.Initiator, error) {
	conn, err := iscsi.Dial(c.addr)
	if err != nil {
		return nil, err
	}
	if err := conn.Login(c.export); err != nil {
		_ = conn.Close()
		return nil, err
	}
	if conn.BlockSize() != c.local.BlockSize() || conn.NumBlocks() < c.local.NumBlocks() {
		_ = conn.Close()
		return nil, fmt.Errorf("%w: replica %s", ErrGeometry, c.addr)
	}
	return conn, nil
}

// ReplicaWriteStream implements the engine's ReplicaClient contract.
// On transport failure it reconnects, resyncs, and retries the push
// once. A diverged refusal is healed in place: the replica verified the
// frame and found its own block wrong, so the session is fine — the
// block is repaired with a one-block ranged resync on the live
// connection (the local store already holds the new content, making
// the refused push redundant; it must NOT be re-applied on top of the
// repair in PRINS mode, where the extra XOR would corrupt the block).
// The post-reconnect resync covers the whole local device, which heals
// every stream's gap at once, so sharded and multi-volume engines can
// attach a resilient session too; the per-stream dedupe cursors on the
// replica make the subsequent redeliveries no-ops.
func (c *ResilientClient) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	return c.push(lba, func(conn *iscsi.Initiator) error {
		return conn.ReplicaWriteStream(mode, shard, vol, seq, lba, hash, frame)
	})
}

// push runs one delivery attempt through the live session, healing a
// diverged refusal in place and a transport failure by
// reconnect + full resync (after which the push is redundant — see
// ReplicaWriteStream).
func (c *ResilientClient) push(lba uint64, send func(*iscsi.Initiator) error) error {
	// Closing an initiator joins its reader goroutine, so the sessions
	// this push gives up on are closed after c.mu is released (deferred
	// first, run last).
	var dead []*iscsi.Initiator
	defer func() {
		for _, conn := range dead {
			_ = conn.Close()
		}
	}()
	c.mu.Lock()
	defer c.mu.Unlock()

	if c.conn != nil {
		err := send(c.conn)
		if err == nil {
			return nil
		}
		if errors.Is(err, iscsi.ErrDiverged) {
			//lint:ignore hold-blocking c.mu serializes push and heal on one session; repair I/O under it is the design
			stats, rerr := RunRanges(c.local, c.conn, Config{}, block.Range{Start: lba, Count: 1})
			if rerr == nil {
				c.repaired += int64(stats.BlocksRepaired)
				return nil
			}
			// Repair failed; fall through to reconnect + full resync.
		}
		dead = append(dead, c.conn)
		c.conn = nil
	}

	// Reconnect and heal the gap. The resync covers this push's write
	// too (the local store already holds it), so after a successful
	// repair the push itself is redundant — but it must not be applied
	// on top of the repaired state in PRINS mode, where re-XORing a
	// parity would corrupt the block. Resync-then-skip is the correct
	// sequence.
	//lint:ignore hold-blocking reconnect is serialized under the session lock so pushes cannot interleave with the heal
	conn, err := c.dial()
	if err != nil {
		return fmt.Errorf("resync: reconnect %s: %w", c.addr, err)
	}
	c.reconnect++
	//lint:ignore hold-blocking the full resync runs under the session lock for the same reason
	stats, err := Run(c.local, conn, Config{})
	if err != nil {
		dead = append(dead, conn)
		return fmt.Errorf("resync: heal after reconnect: %w", err)
	}
	c.repaired += int64(stats.BlocksRepaired)
	c.conn = conn
	return nil
}

// Reconnects returns how many times the session was re-established.
func (c *ResilientClient) Reconnects() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnect
}

// Repaired returns the total blocks healed by post-reconnect resyncs.
func (c *ResilientClient) Repaired() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.repaired
}

// Close severs the session.
func (c *ResilientClient) Close() error {
	c.mu.Lock()
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if conn == nil {
		return nil
	}
	return conn.Close()
}
