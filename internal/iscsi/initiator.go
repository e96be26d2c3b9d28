package iscsi

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"prins/internal/block"
)

// Initiator is the client side of a session: it logs in to a named
// target and issues block commands. One command is outstanding at a
// time per initiator (requests are serialized under a mutex, matching
// the paper's conservative one-write-in-flight model); open multiple
// initiators for parallelism.
//
// After a successful Login, an Initiator satisfies block.Store, so a
// filesystem or database pager can run directly on a remote device —
// the paper's architecture of FS/DBMS over an iSCSI initiator.
type Initiator struct {
	mu  sync.Mutex
	itt uint32

	// connMu guards the live connection separately from mu so Close can
	// sever a session (unblocking a stuck round trip) without waiting
	// for the request lock.
	//
	//lint:lockorder iscsi.Initiator.mu < iscsi.Initiator.connMu Close takes connMu alone; the session path takes connMu inside mu
	connMu sync.Mutex
	conn   net.Conn
	closed bool

	loggedIn  bool
	blockSize int
	numBlocks uint64

	// timeout bounds each request round trip; zero means no deadline.
	timeout time.Duration

	// redial, when set, re-establishes the session after a transport
	// failure: dial a fresh conn, re-login to redialTarget, retry the
	// failed request once. See EnableReconnect.
	redial       func() (net.Conn, error)
	redialTarget string
	reconnects   int64

	// Reconnect backoff: the first reconnect after a healthy period is
	// immediate, but CONSECUTIVE failed reconnect cycles back off
	// exponentially (base << fails, capped, jittered) before redialing,
	// so a dead peer is probed at a decaying rate instead of a tight
	// dial loop. A successful reconnect resets the streak. rbJitter and
	// rbSleep are test hooks (deterministic schedules); zero rbBase
	// applies the defaults.
	rbFails  int
	rbBase   time.Duration
	rbCap    time.Duration
	rbJitter func(time.Duration) time.Duration
	rbSleep  func(time.Duration)

	// wireSent accumulates bytes written to the connection, for
	// measuring real (not modelled) protocol overhead.
	wireSent int64
}

var _ block.Store = (*Initiator)(nil)

// Dial connects to a target over TCP. Call Login before issuing I/O.
func Dial(addr string) (*Initiator, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("iscsi: dial %s: %w", addr, err)
	}
	return NewInitiator(conn), nil
}

// NewInitiator wraps an established connection (TCP, net.Pipe, or a
// wan.ShapedConn) as an initiator.
func NewInitiator(conn net.Conn) *Initiator {
	return &Initiator{conn: conn}
}

// Login authenticates against the named exported backend and learns
// the device geometry.
func (i *Initiator) Login(targetName string) error {
	resp, err := i.roundTrip(&PDU{Op: OpLoginReq, Data: encodeLoginReq(targetName)})
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("%w: login %s: %v", ErrStatus, targetName, resp.Status)
	}
	bs, nb, err := decodeLoginResp(resp.Data)
	if err != nil {
		return err
	}
	i.mu.Lock()
	i.loggedIn = true
	i.blockSize = bs
	i.numBlocks = nb
	i.mu.Unlock()
	return nil
}

// SetRequestTimeout bounds every subsequent request's full round trip;
// zero (the default) disables deadlines. A timed-out request leaves
// the session unusable (the stream may be mid-PDU), so callers should
// close and re-dial after a timeout, as iSCSI initiators re-login
// after task-management aborts.
func (i *Initiator) SetRequestTimeout(d time.Duration) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.timeout = d
}

// EnableReconnect arms transparent session recovery: after a transport
// failure (broken conn, timeout, short read) the initiator dials a
// fresh connection with dial, re-logs-in to targetName, and retries
// the failed request once. Retried block writes are idempotent and
// retried replication pushes are deduplicated by sequence number at
// the replica, so the recovery is safe for every request type.
func (i *Initiator) EnableReconnect(targetName string, dial func() (net.Conn, error)) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.redial = dial
	i.redialTarget = targetName
}

// EnableReconnectTCP arms reconnection by re-dialing addr over TCP —
// the common case for a session created with Dial.
func (i *Initiator) EnableReconnectTCP(addr, targetName string) {
	i.EnableReconnect(targetName, func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, 10*time.Second)
	})
}

// Reconnect backoff defaults: the delay before the second consecutive
// reconnect attempt, and the cap the exponential growth saturates at.
const (
	defaultReconnectBackoff = 25 * time.Millisecond
	defaultReconnectCap     = 2 * time.Second
)

// SetReconnectBackoff tunes the delay schedule between CONSECUTIVE
// failed reconnect cycles: the first reconnect of a streak is
// immediate, the next waits ~base, then ~2·base, doubling up to cap,
// each delay equal-jittered (half fixed, half uniformly random) so
// concurrent sessions do not redial a recovering peer in lockstep. A
// successful reconnect resets the streak. Zero values keep the
// defaults (25ms base, 2s cap).
func (i *Initiator) SetReconnectBackoff(base, cap time.Duration) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rbBase = base
	i.rbCap = cap
}

// reconnectDelay returns the pause owed before the next redial, given
// the current streak of consecutive reconnect failures. Called with
// i.mu held.
func (i *Initiator) reconnectDelay() time.Duration {
	if i.rbFails == 0 {
		return 0
	}
	base := i.rbBase
	if base <= 0 {
		base = defaultReconnectBackoff
	}
	max := i.rbCap
	if max <= 0 {
		max = defaultReconnectCap
	}
	d := base
	for f := 1; f < i.rbFails && d < max; f++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if i.rbJitter != nil {
		return i.rbJitter(d)
	}
	return equalJitter(d)
}

// equalJitter perturbs a backoff delay: half fixed, half uniformly
// random, never more than halving the pause.
func equalJitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)))
}

// Reconnects reports how many times the session was re-established.
func (i *Initiator) Reconnects() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.reconnects
}

// roundTrip sends one request and reads its response, serialized.
func (i *Initiator) roundTrip(req *PDU) (*PDU, error) {
	return i.roundTripInto(req, nil)
}

// roundTripInto is roundTrip with a caller-supplied destination buffer
// for the response data segment (see ReadPDUInto).
func (i *Initiator) roundTripInto(req *PDU, dst []byte) (*PDU, error) {
	return i.exchange(dst, req.writeTagged)
}

// writeTagged stamps the task tag and writes the PDU: the send step of
// a request that is one contiguously built PDU.
func (p *PDU) writeTagged(conn net.Conn, itt uint32) (int64, error) {
	p.ITT = itt
	return p.WriteTo(conn)
}

// exchange is the one request/response round trip every command takes:
// send writes the request under a fresh task tag, and the response is
// read into dst when its data segment is exactly len(dst) bytes. The
// session lock is held throughout, so one command is outstanding at a
// time. With reconnection armed, a transport failure triggers one
// redial + re-login + resend before giving up; send runs again with a
// new tag, so it must re-stamp whatever it derived from the old one.
func (i *Initiator) exchange(dst []byte, send func(conn net.Conn, itt uint32) (int64, error)) (*PDU, error) {
	i.mu.Lock()
	defer i.mu.Unlock()

	//lint:ignore hold-blocking i.mu serializes the session to one in-flight command; wire I/O under it is the session model
	resp, err := i.do(dst, send)
	if err == nil || i.redial == nil {
		return resp, err
	}
	//lint:ignore hold-blocking reconnect reuses the same single-command session lock
	if rerr := i.reconnectLocked(); rerr != nil {
		return nil, fmt.Errorf("iscsi: reconnect after %v: %w", err, rerr)
	}
	//lint:ignore hold-blocking retry of the serialized command after reconnect
	return i.do(dst, send)
}

// currentConn returns the live connection, or nil after Close.
func (i *Initiator) currentConn() net.Conn {
	i.connMu.Lock()
	defer i.connMu.Unlock()
	if i.closed {
		return nil
	}
	return i.conn
}

// do performs one tagged request/response on the current connection
// (see exchange). Called with i.mu held.
func (i *Initiator) do(dst []byte, send func(conn net.Conn, itt uint32) (int64, error)) (*PDU, error) {
	conn := i.currentConn()
	if conn == nil {
		return nil, net.ErrClosed
	}
	i.itt++
	itt := i.itt

	if i.timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(i.timeout)); err != nil {
			return nil, fmt.Errorf("iscsi: set deadline: %w", err)
		}
		defer conn.SetDeadline(time.Time{}) //nolint:errcheck // best-effort clear
	}

	n, err := send(conn, itt)
	i.wireSent += n
	if err != nil {
		return nil, err
	}
	resp, err := ReadPDUInto(conn, dst)
	if err != nil {
		return nil, err
	}
	if resp.ITT != itt {
		return nil, fmt.Errorf("iscsi: response tag %d for request %d", resp.ITT, itt)
	}
	return resp, nil
}

// reconnectLocked rebuilds the session: fresh conn, then a login on it
// so the target binding and geometry are restored. Called with i.mu
// held. Consecutive failed cycles back off exponentially with jitter
// before the redial (see SetReconnectBackoff); success resets the
// streak.
func (i *Initiator) reconnectLocked() error {
	err := i.reconnectOnceLocked()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		i.rbFails++
	}
	return err
}

func (i *Initiator) reconnectOnceLocked() error {
	i.connMu.Lock()
	closed, old := i.closed, i.conn
	i.connMu.Unlock()
	if closed {
		return net.ErrClosed
	}

	if d := i.reconnectDelay(); d > 0 {
		sleep := i.rbSleep
		if sleep == nil {
			sleep = time.Sleep
		}
		//lint:ignore hold-blocking the backoff pause is the point: the session is down and serialized behind i.mu anyway
		sleep(d)
	}

	conn, err := i.redial()
	if err != nil {
		return err
	}
	if old != nil {
		_ = old.Close()
	}
	i.connMu.Lock()
	if i.closed { // raced with Close: stay closed
		i.connMu.Unlock()
		_ = conn.Close()
		return net.ErrClosed
	}
	i.conn = conn
	i.connMu.Unlock()

	login := PDU{Op: OpLoginReq, Data: encodeLoginReq(i.redialTarget)}
	resp, err := i.do(nil, login.writeTagged)
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("%w: relogin %s: %v", ErrStatus, i.redialTarget, resp.Status)
	}
	bs, nb, err := decodeLoginResp(resp.Data)
	if err != nil {
		return err
	}
	if i.loggedIn && (bs != i.blockSize || nb != i.numBlocks) {
		return fmt.Errorf("iscsi: reconnect geometry changed: %dx%d -> %dx%d",
			i.numBlocks, i.blockSize, nb, bs)
	}
	i.blockSize, i.numBlocks, i.loggedIn = bs, nb, true
	i.reconnects++
	i.rbFails = 0
	return nil
}

// ReadBlock implements block.Store. The response data segment is read
// directly into buf (no staging allocation + copy); on error buf's
// contents are unspecified.
func (i *Initiator) ReadBlock(lba uint64, buf []byte) error {
	if len(buf) != i.BlockSize() {
		return block.ErrBadBufSize
	}
	resp, err := i.roundTripInto(&PDU{Op: OpReadCmd, LBA: lba, Blocks: 1}, buf)
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return statusErr("read", lba, resp.Status)
	}
	if len(resp.Data) != len(buf) {
		return fmt.Errorf("%w: read response carries %d bytes, want %d", ErrShortFrame, len(resp.Data), len(buf))
	}
	if len(buf) > 0 && &resp.Data[0] != &buf[0] {
		// Defensive: a response whose length didn't match dst was read
		// into a fresh slice (only possible if geometry changed mid-read).
		copy(buf, resp.Data)
	}
	return nil
}

// ReadBlocks reads count consecutive blocks starting at lba. The
// response payload is length-checked against the session geometry: a
// short or oversized frame is an ErrShortFrame protocol error, never a
// partial result.
func (i *Initiator) ReadBlocks(lba uint64, count uint32) ([]byte, error) {
	resp, err := i.roundTrip(&PDU{Op: OpReadCmd, LBA: lba, Blocks: count})
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, statusErr("read", lba, resp.Status)
	}
	if bs := i.BlockSize(); bs > 0 {
		if got, want := len(resp.Data), int(count)*bs; got != want {
			return nil, fmt.Errorf("%w: read response carries %d bytes, want %d", ErrShortFrame, got, want)
		}
	}
	return resp.Data, nil
}

// WriteBlock implements block.Store.
func (i *Initiator) WriteBlock(lba uint64, data []byte) error {
	if len(data) != i.BlockSize() {
		return block.ErrBadBufSize
	}
	resp, err := i.roundTrip(&PDU{Op: OpWriteCmd, LBA: lba, Data: data})
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return statusErr("write", lba, resp.Status)
	}
	return nil
}

// ReplicaWrite pushes an encoded replication frame for the block at
// lba; used engine-to-engine. hash is the content hash of the block
// the replica must hold after the apply (HashBlock of A_new); zero
// disables replica-side verification. Apply failures come back as
// typed errors: ErrDiverged when the replica's recovered block failed
// the hash check, ErrReplicaDecode and ErrReplicaStore for decode and
// device failures — all of them still matching ErrStatus.
func (i *Initiator) ReplicaWrite(mode uint8, seq, lba, hash uint64, frame []byte) error {
	return i.ReplicaWriteStream(mode, 0, 0, seq, lba, hash, frame)
}

// ReplicaWriteStream is ReplicaWrite tagged with a (vol, shard)
// replication stream: seq is assigned within that stream's own
// sequence space and the replica dedupes per stream, so a sharded
// primary can interleave independent seq streams over one session. A
// zero tag is byte-identical to ReplicaWrite.
func (i *Initiator) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	resp, err := i.roundTrip(&PDU{Op: OpReplicaWrite, Mode: mode, Shard: shard, Vol: vol, Seq: seq, LBA: lba, Hash: hash, Data: frame})
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return statusErr("replica-write", lba, resp.Status)
	}
	return nil
}

// ReplicaWriteFramed is ReplicaWriteStream for a pre-assembled PDU:
// pdu is FrameHeadroom reserved header bytes followed by the encoded
// frame, built in place by the caller so nothing is staged or copied
// here. The header — fresh ITT and digest included — is stamped into
// pdu per attempt (see StampReplicaHeader), and the whole PDU goes out
// as one write. The bytes on the wire are identical to
// ReplicaWriteStream with the same tuple; a zero (shard, vol) tag
// produces the v3 framing ReplicaWrite would have sent. pdu is
// modified (its first FrameHeadroom bytes are overwritten), so the
// caller must hold exclusive ownership of the buffer for the call.
func (i *Initiator) ReplicaWriteFramed(mode, shard uint8, vol uint16, seq, lba, hash uint64, pdu []byte) error {
	resp, err := i.exchange(nil, func(conn net.Conn, itt uint32) (int64, error) {
		if err := StampReplicaHeader(pdu, mode, shard, vol, itt, seq, lba, hash); err != nil {
			return 0, err
		}
		n, err := conn.Write(pdu)
		return int64(n), err
	})
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return statusErr("replica-write", lba, resp.Status)
	}
	return nil
}

// Ping sends a NOP and returns the round-trip time.
func (i *Initiator) Ping() (time.Duration, error) {
	start := time.Now()
	resp, err := i.roundTrip(&PDU{Op: OpNop})
	if err != nil {
		return 0, err
	}
	if resp.Status != StatusOK {
		return 0, fmt.Errorf("%w: nop: %v", ErrStatus, resp.Status)
	}
	return time.Since(start), nil
}

// Logout ends the session politely.
func (i *Initiator) Logout() error {
	resp, err := i.roundTrip(&PDU{Op: OpLogout})
	if err != nil {
		return err
	}
	if resp.Op != OpLogoutResp {
		return fmt.Errorf("iscsi: unexpected logout response %v", resp.Op)
	}
	return nil
}

// BlockSize implements block.Store; zero before login.
func (i *Initiator) BlockSize() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.blockSize
}

// NumBlocks implements block.Store; zero before login.
func (i *Initiator) NumBlocks() uint64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.numBlocks
}

// WireSent returns the total bytes this initiator has written to its
// connection, headers included.
func (i *Initiator) WireSent() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.wireSent
}

// Close implements block.Store; it severs the connection without a
// logout handshake and disarms reconnection.
func (i *Initiator) Close() error {
	i.connMu.Lock()
	i.closed = true
	conn := i.conn
	i.connMu.Unlock()
	if conn == nil {
		return nil
	}
	return conn.Close()
}

func statusErr(op string, lba uint64, st Status) error {
	if sent := st.sentinel(); sent != nil {
		return fmt.Errorf("%w: %s lba %d: %w", ErrStatus, op, lba, sent)
	}
	return fmt.Errorf("%w: %s lba %d: %v", ErrStatus, op, lba, st)
}
