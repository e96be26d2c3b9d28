package iscsi

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"prins/internal/block"
)

// Initiator is the client side of a session: it logs in to a named
// target and issues block commands. The session is multiplexed: any
// number of goroutines may have a command in flight at once. Each
// command is registered under a fresh initiator task tag (ITT), leaves
// whole in one conn call with no session lock held (see writeOnce; a
// redial's login shares its call with the commands that ride it), and
// parks its caller; one reader goroutine per live connection
// matches responses to parked callers by tag, in whatever order the
// target answers. So a link's propagation delay is a delay centre that
// concurrent commands overlap, not a server they queue behind — one
// initiator is all the parallelism a peer needs. The session orders
// nothing across commands: a caller that needs two commands applied in
// order waits for the first response before sending the second. An
// async (replica, shard) ship pipeline does that for every push, since
// its stream's seq order is all the ordering its writes have; a sync
// one only for pushes that touch the same block, and overlaps the rest
// (core's pipe, and DESIGN.md "Ordering on a stream"). The connection
// must keep concurrent Write calls whole
// (every net.Conn in this repo does) and, if it offers WriteBuffers,
// vectored calls too (wan.ShapedConn does over a TCP socket).
//
// A session fails as a unit: a read error, a digest, magic or version
// error, a response whose tag matches no command in flight, or a
// command outliving the request timeout tears it down once — the conn
// is closed and every command in flight fails with that causing error.
// See EnableReconnect for what happens next: with a redial armed, one
// shared attempt replaces the session, and a streak of failed attempts
// is spaced out from the end of the last one (SetReconnectBackoff), so
// the first command after a quiet outage redials at once.
//
// After a successful Login, an Initiator satisfies block.Store, so a
// filesystem or database pager can run directly on a remote device —
// the paper's architecture of FS/DBMS over an iSCSI initiator.
type Initiator struct {
	itt      atomic.Uint32
	wireSent atomic.Int64 // bytes written to the connection, headers included

	// mu is a short state lock over everything below and over every
	// session's command table. It is never held across conn I/O, a
	// sleep, or a channel operation.
	mu     sync.Mutex
	sess   *session // where commands go; down once sess.err is set
	closed bool

	loggedIn  bool
	blockSize int
	numBlocks uint64

	// timeout bounds each command's round trip; zero means no deadline.
	timeout time.Duration

	// redial, when set, re-establishes the session after it fails: dial
	// a fresh conn, re-login to redialTarget, resend. See
	// EnableReconnect. attempt is the reconnect in progress, if any.
	redial       func() (net.Conn, error)
	redialTarget string
	reconnects   int64
	attempt      *reconnectAttempt

	// Reconnect backoff, a spacing rule: the first reconnect after a
	// healthy period is immediate, and after a streak of rbFails failed
	// attempts the next one starts no sooner than a delay (base <<
	// fails, capped, jittered) after rbLast, when the last of them
	// ended. So a dead peer is probed at a decaying rate instead of in a
	// tight dial loop, and a caller that comes after a quiet period at
	// least that long redials at once. A successful reconnect resets the
	// streak. rbJitter, rbSleep and rbNow are test hooks (deterministic
	// schedules, no wall clock); zero rbBase applies the defaults.
	rbFails  int
	rbLast   time.Time
	rbBase   time.Duration
	rbCap    time.Duration
	rbJitter func(time.Duration) time.Duration
	rbSleep  func(time.Duration)
	rbNow    func() time.Time
}

var _ block.Store = (*Initiator)(nil)

// session is one live connection: the commands in flight on it and the
// reader goroutine that completes them. Its fields other than conn and
// done are guarded by Initiator.mu.
type session struct {
	conn    net.Conn
	pending map[uint32]*call
	// reading is the command whose response data segment the reader is
	// filling right now. A teardown leaves it to the reader to complete,
	// so a caller never regains its dst while the reader can still write
	// into it.
	reading *call
	err     error         // why the session is down; set once, by fail
	done    chan struct{} // closed when the reader has exited
	// squeeze holds the session's per-stream squeeze histories (see
	// squeeze.go), keyed by streamID, at most maxSqueezeStreams of them.
	squeeze  map[uint32]*squeezeStream
	squeezed uint64 // squeeze claims the session made: squeeze's clock
}

// call is one command in flight: the slot its caller parks on and the
// reader fills. Slots are pooled with their channel and timer, so a
// round trip costs no per-call channel or timer garbage.
type call struct {
	i    *Initiator
	sess *session
	itt  uint32
	dst  []byte
	resp PDU
	err  error
	// done has room for the one completion a registered call gets
	// (whoever removes it from the session's table completes it), so
	// completing never blocks the reader.
	done    chan struct{}
	timer   *time.Timer   // runs expire; created on first use
	timeout time.Duration // the timer is armed when positive
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// reconnectAttempt is one redial + re-login, shared by every caller
// that found the same session down: one performs it, the rest wait on
// done and take its outcome. Until the login is written, a read-only
// caller boards it as a rider (see redialOnce); once boarded is set,
// callers only wait, and resend the old way.
type reconnectAttempt struct {
	sess    *session // the session being logged in, once dialed; guarded by Initiator.mu
	riders  []*rider // guarded by Initiator.mu
	boarded bool     // riders taken for the login's write; guarded by Initiator.mu
	err     error    // written before done is closed
	done    chan struct{}
}

// rider is a read-only command parked on a reconnect attempt: the
// attempt frames it on the new session and sends it in the login's conn
// write. c is its call there, set before the attempt's done is closed
// and nil if it never left; its answer stands only if the attempt
// succeeded.
type rider struct {
	dst   []byte
	frame framer
	c     *call
}

// framer builds one request for the wire on session s under the task
// tag it is given: the PDU's pieces in wire order, digest stamped. A
// resend calls it again on the new session with a new tag.
type framer func(s *session, itt uint32) (net.Buffers, error)

// Dial connects to a target over TCP. Call Login before issuing I/O.
func Dial(addr string) (*Initiator, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("iscsi: dial %s: %w", addr, err)
	}
	return NewInitiator(conn), nil
}

// NewInitiator wraps an established connection (TCP, net.Pipe, or a
// wan.ShapedConn) as an initiator and starts the session's reader; it
// owns conn from here on. Close releases both.
func NewInitiator(conn net.Conn) *Initiator {
	i := &Initiator{}
	i.sess = i.startSession(conn)
	return i
}

// startSession starts a session's reader goroutine on conn. The reader
// exits when the session fails (fail closes the conn under it).
func (i *Initiator) startSession(conn net.Conn) *session {
	s := &session{conn: conn, pending: make(map[uint32]*call), done: make(chan struct{})}
	go i.readLoop(s)
	return s
}

// Login authenticates against the named exported backend and learns
// the device geometry.
func (i *Initiator) Login(targetName string) error {
	resp, err := i.roundTrip(&PDU{Op: OpLoginReq, Data: encodeLoginReq(targetName)})
	if err != nil {
		return err
	}
	bs, nb, err := loginGeometry("login", targetName, &resp)
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

// loginGeometry checks a login response and decodes the device shape.
func loginGeometry(what, targetName string, resp *PDU) (blockSize int, numBlocks uint64, err error) {
	if resp.Status != StatusOK {
		return 0, 0, fmt.Errorf("%w: %s %s: %v", ErrStatus, what, targetName, resp.Status)
	}
	return decodeLoginResp(resp.Data)
}

// SetRequestTimeout bounds every subsequent command's full round trip,
// send included; zero (the default) disables deadlines. The stream
// cannot be resynchronized around a command that never completed, so
// the first command to outlive the bound fails the whole session:
// every command in flight returns the same error, which satisfies
// net.Error's Timeout. Callers without reconnection armed should close
// and re-dial, as iSCSI initiators re-login after task-management
// aborts.
func (i *Initiator) SetRequestTimeout(d time.Duration) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.timeout = d
}

// EnableReconnect arms transparent session recovery: after the session
// fails (broken conn, timeout, short read, protocol error) the first
// caller to notice dials a fresh connection with dial and re-logs-in to
// targetName, while every other caller whose command failed with the
// session waits for that one attempt and shares its outcome; then each
// resends its command once, under a new task tag. A command that
// changes nothing on the target (a read, a hash fetch, a NOP) and
// arrives before the login is written rides it: it goes out in the
// login's conn write, so the first commands after an outage pay one
// flight, not two, and it keeps its answer only if the login succeeds
// with the device's geometry unchanged. Every other command waits for
// that check before it is resent, so no write reaches a refused or
// reshaped device. Retried block writes are idempotent and retried
// replication pushes are deduplicated by sequence number at the
// replica, so the recovery is safe for every request type and for any
// number of commands in flight.
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

// SetReconnectBackoff tunes the spacing between CONSECUTIVE failed
// reconnect cycles: the first reconnect of a streak is immediate, the
// next starts ~base after the first failed, then ~2·base after the
// second, doubling up to cap, each delay equal-jittered (half fixed,
// half uniformly random) so concurrent sessions do not redial a
// recovering peer in lockstep. A delay is counted from the end of the
// failed attempt, not from the next caller's arrival: a caller that
// comes after a quiet period at least that long redials at once, one
// that comes sooner waits only the rest. A successful reconnect resets
// the streak. Zero values keep the defaults (25ms base, 2s cap).
func (i *Initiator) SetReconnectBackoff(base, cap time.Duration) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rbBase = base
	i.rbCap = cap
}

// reconnectDelay returns the spacing owed between the last failed
// redial and the next, given the current streak of consecutive
// reconnect failures. Called with i.mu held.
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

// now reads the reconnect clock: rbNow under test, the wall clock
// otherwise. Called with i.mu held.
func (i *Initiator) now() time.Time {
	if i.rbNow != nil {
		return i.rbNow()
	}
	return time.Now()
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

// roundTrip sends one request built as a PDU and returns its response.
func (i *Initiator) roundTrip(req *PDU) (PDU, error) {
	return i.exchange(nil, false, req.frame)
}

// query is roundTrip for a request that changes nothing on the target,
// with a caller-supplied destination buffer for the response data
// segment (see ReadPDUInto); it may ride a redial's login.
func (i *Initiator) query(req *PDU, dst []byte) (PDU, error) {
	return i.exchange(dst, true, req.frame)
}

// frame is the framer of a request built as a PDU.
func (p *PDU) frame(_ *session, itt uint32) (net.Buffers, error) {
	p.ITT = itt
	return p.buffers()
}

// exchange is the one round trip every command takes: frame builds the
// request under a fresh task tag, do sends it and parks until the
// reader delivers the response — read into dst when its data segment is
// exactly len(dst) bytes. If the session is down afterwards and
// reconnection is armed, the command waits for one shared redial +
// re-login (see reconnect) and is resent once; frame runs again with a
// new tag, so it must re-stamp whatever it derived from the old one. A
// readOnly command, one that changes nothing on the target, rides the
// re-login when it can (see redialOnce) instead of following it.
func (i *Initiator) exchange(dst []byte, readOnly bool, frame framer) (PDU, error) {
	i.mu.Lock()
	s := i.sess
	i.mu.Unlock()
	resp, err := i.do(s, dst, frame)
	if err == nil {
		return resp, nil
	}
	i.mu.Lock()
	resend := s.err != nil && i.redial != nil // else: the request never framed, or nothing is armed
	i.mu.Unlock()
	if !resend {
		return PDU{}, err
	}
	var r *rider
	if readOnly {
		r = &rider{dst: dst, frame: frame}
	}
	s, rerr := i.reconnect(s, r)
	if r != nil && r.c != nil {
		resp, cerr := r.c.wait() // completed already if the attempt failed
		if rerr == nil {
			return resp, cerr
		}
	}
	if rerr != nil {
		return PDU{}, fmt.Errorf("iscsi: reconnect after %v: %w", err, rerr)
	}
	return i.do(s, dst, frame)
}

// do performs one command on session s: register under a fresh tag,
// write the PDU in one conn call with no lock held, park until the
// reader (or a teardown) completes the call.
func (i *Initiator) do(s *session, dst []byte, frame framer) (PDU, error) {
	c, bufs, err := i.start(s, dst, frame)
	if err != nil {
		return PDU{}, err
	}
	i.send(s, bufs)
	return c.wait()
}

// start frames one command on session s under a fresh tag and registers
// its call, timer armed, returning the pieces the caller must send.
func (i *Initiator) start(s *session, dst []byte, frame framer) (*call, net.Buffers, error) {
	itt := i.itt.Add(1)
	bufs, err := frame(s, itt)
	if err != nil {
		return nil, nil, err
	}

	c := callPool.Get().(*call) // the pool's New makes nothing else
	c.i, c.sess, c.itt, c.dst = i, s, itt, dst
	i.mu.Lock()
	if s.err != nil {
		err := s.err
		i.mu.Unlock()
		c.release()
		return nil, nil, err
	}
	s.pending[itt] = c
	c.timeout = i.timeout
	i.mu.Unlock()
	if c.timeout > 0 {
		if c.timer == nil {
			c.timer = time.AfterFunc(c.timeout, c.expire)
		} else {
			c.timer.Reset(c.timeout)
		}
	}
	return c, bufs, nil
}

// send writes the pieces of one or more registered commands to session
// s in one conn call, with no lock held. A failed write fails the
// session, which completes every call still registered on it.
func (i *Initiator) send(s *session, bufs net.Buffers) {
	n, err := writeOnce(s.conn, bufs)
	i.wireSent.Add(n)
	if err != nil {
		i.fail(s, fmt.Errorf("iscsi: write pdu: %w", err))
	}
}

// wait parks until the reader (or a teardown) completes c, and returns
// its outcome.
func (c *call) wait() (PDU, error) {
	<-c.done
	resp, err := c.resp, c.err
	// A timer that already fired may still be running expire against
	// this slot: leave that slot to the collector.
	if c.timeout <= 0 || c.timer.Stop() {
		c.release()
	}
	return resp, err
}

// release returns an idle slot to the pool.
func (c *call) release() {
	c.i, c.sess, c.dst, c.resp, c.err = nil, nil, nil, PDU{}, nil
	callPool.Put(c)
}

// expire runs when a command outlives the request timeout: if the call
// is still in flight, the session fails with a timeout error. That
// closes the conn, which is also what unblocks a send stalled in Write.
func (c *call) expire() {
	i, s := c.i, c.sess
	i.mu.Lock()
	inFlight := s.pending[c.itt] == c
	d := i.timeout
	i.mu.Unlock()
	if inFlight {
		i.fail(s, fmt.Errorf("iscsi: no response within %v: %w", d, os.ErrDeadlineExceeded))
	}
}

// readLoop is session s's reader: it reads response headers, finds the
// parked call by task tag, reads the data segment straight into that
// call's dst, and wakes it. Any read or protocol error, or a tag no
// call is parked under, fails the session and ends the loop.
func (i *Initiator) readLoop(s *session) {
	defer close(s.done)
	hdr := make([]byte, headerLen)
	for {
		var resp PDU
		err := resp.readHeader(s.conn, hdr)
		var c *call
		if err == nil {
			i.mu.Lock()
			c = s.pending[resp.ITT]
			s.reading = c
			i.mu.Unlock()
			if c == nil {
				err = fmt.Errorf("iscsi: response tag %d matches no command in flight", resp.ITT)
			}
		}
		if err != nil {
			i.fail(s, err)
			return
		}

		err = resp.readData(s.conn, hdr, c.dst)
		i.mu.Lock()
		delete(s.pending, resp.ITT)
		s.reading = nil
		if err != nil && s.err != nil {
			err = s.err // the conn was closed under the read: report why
		}
		i.mu.Unlock()
		c.resp, c.err = resp, err
		c.done <- struct{}{}
		if err != nil {
			i.fail(s, err)
			return
		}
	}
}

// fail tears session s down, once: the first cause wins, the conn is
// closed (ending the reader and any send blocked in Write), and every
// parked call fails with the cause. The call the reader is filling is
// the reader's to complete.
func (i *Initiator) fail(s *session, cause error) {
	i.mu.Lock()
	if s.err != nil {
		i.mu.Unlock()
		return
	}
	s.err = cause
	var parked []*call
	for itt, c := range s.pending {
		if c != s.reading {
			delete(s.pending, itt)
			parked = append(parked, c)
		}
	}
	i.mu.Unlock()

	_ = s.conn.Close() // the session is already failing with cause
	for _, c := range parked {
		c.err = cause
		c.done <- struct{}{}
	}
}

// reconnect replaces the failed session down with a fresh, logged-in
// one and returns it. Exactly one caller — the first to arrive — runs
// the attempt (see redialOnce); callers arriving while it runs wait and
// share its outcome, and callers arriving after it succeeded just pick
// up the new session. A caller with a read-only command r boards it on
// the attempt while its login is not yet written (the runner boards its
// own first), and finds r.c set if it rode. Consecutive failed attempts
// are spaced exponentially with jitter (see SetReconnectBackoff): the
// attempt sleeps only what is left of its delay since the last failure
// ended, so the first command after a quiet outage redials without a
// stale pause; riders sleep with it; success resets the streak.
func (i *Initiator) reconnect(down *session, r *rider) (*session, error) {
	i.mu.Lock()
	if i.closed {
		i.mu.Unlock()
		return nil, net.ErrClosed
	}
	if i.sess != down {
		s := i.sess
		i.mu.Unlock()
		return s, nil
	}
	if a := i.attempt; a != nil {
		if r != nil && !a.boarded {
			a.riders = append(a.riders, r)
		}
		i.mu.Unlock()
		<-a.done
		return a.sess, a.err
	}
	a := &reconnectAttempt{done: make(chan struct{})}
	if r != nil {
		a.riders = append(a.riders, r)
	}
	i.attempt = a
	wait := i.reconnectDelay()
	if wait > 0 {
		wait -= i.now().Sub(i.rbLast) // the quiet time since the last failure counts
	}
	sleep := i.rbSleep
	dial, target := i.redial, i.redialTarget // armed, or exchange would not be here
	i.mu.Unlock()

	<-down.done // its conn is closed; the reader is on its way out
	if wait > 0 {
		if sleep == nil {
			sleep = time.Sleep
		}
		sleep(wait)
	}
	bs, nb, err := i.redialOnce(a, dial, target)

	i.mu.Lock()
	i.attempt = nil
	switch {
	case err != nil:
	case i.closed: // raced with Close, which failed a.sess: stay closed
		err = net.ErrClosed
	case i.loggedIn && (bs != i.blockSize || nb != i.numBlocks):
		err = fmt.Errorf("iscsi: reconnect geometry changed: %dx%d -> %dx%d", i.numBlocks, i.blockSize, nb, bs)
	}
	if err == nil {
		i.sess = a.sess
		i.blockSize, i.numBlocks, i.loggedIn = bs, nb, true
		i.reconnects++
		i.rbFails = 0
	} else if !errors.Is(err, net.ErrClosed) {
		i.rbFails++
		i.rbLast = i.now()
	}
	i.mu.Unlock()
	if err != nil && a.sess != nil {
		i.fail(a.sess, err) // completes every rider's call with it
		<-a.sess.done
	}
	a.err = err
	close(a.done)
	return a.sess, err
}

// redialOnce dials a fresh conn, starts a session on it — published in
// a.sess, so Close can sever it mid-login — and logs in, returning the
// geometry the target reports. The login and every rider boarded so far
// leave in one conn write, login first: the target serves a session's
// commands in order, so the riders run on the session the login opens,
// in the flight the login pays. A rider that does not register resends
// after the attempt, the old way.
func (i *Initiator) redialOnce(a *reconnectAttempt, dial func() (net.Conn, error), target string) (blockSize int, numBlocks uint64, err error) {
	conn, err := dial()
	if err != nil {
		return 0, 0, err
	}
	s := i.startSession(conn)
	i.mu.Lock()
	a.sess = s
	a.boarded = true
	riders := a.riders
	closed := i.closed
	i.mu.Unlock()
	if closed {
		return 0, 0, net.ErrClosed
	}

	login := PDU{Op: OpLoginReq, Data: encodeLoginReq(target)}
	lc, bufs, err := i.start(s, nil, login.frame)
	if err != nil {
		return 0, 0, err
	}
	for _, r := range riders {
		c, rb, err := i.start(s, r.dst, r.frame)
		if err != nil {
			continue
		}
		r.c = c
		bufs = append(bufs, rb...)
	}
	i.send(s, bufs)
	resp, err := lc.wait()
	if err != nil {
		return 0, 0, err
	}
	return loginGeometry("relogin", target, &resp)
}

// ReadBlock implements block.Store. The response data segment is read
// directly into buf (no staging allocation + copy); on error buf's
// contents are unspecified.
func (i *Initiator) ReadBlock(lba uint64, buf []byte) error {
	if len(buf) != i.BlockSize() {
		return block.ErrBadBufSize
	}
	resp, err := i.query(&PDU{Op: OpReadCmd, LBA: lba, Blocks: 1}, buf)
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
	resp, err := i.query(&PDU{Op: OpReadCmd, LBA: lba, Blocks: count}, nil)
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

// ReplicaWrite is ReplicaWriteStream on stream (0, 0). Nothing in this
// module calls it; it stays for the benchmark module only.
func (i *Initiator) ReplicaWrite(mode uint8, seq, lba, hash uint64, frame []byte) error {
	return i.ReplicaWriteStream(mode, 0, 0, seq, lba, hash, frame)
}

// ReplicaWriteStream pushes an encoded replication frame for the block
// at lba on the (vol, shard) replication stream; used engine-to-engine.
// seq is assigned within that stream's own sequence space and the
// replica dedupes per stream, so a sharded primary can interleave
// independent seq streams over one session; the zero tag goes out
// untagged, in v3 framing. hash is the content hash of the block the
// replica must hold after the apply (HashBlock of A_new); zero disables
// replica-side verification. Apply failures come back as typed errors:
// ErrDiverged when the replica's recovered block failed the hash check,
// ErrReplicaDecode and ErrReplicaStore for decode and device failures
// — all of them still matching ErrStatus.
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
// produces the v3 framing. pdu is
// modified (its first FrameHeadroom bytes are overwritten), so the
// caller must hold exclusive ownership of the buffer for the call.
func (i *Initiator) ReplicaWriteFramed(mode, shard uint8, vol uint16, seq, lba, hash uint64, pdu []byte) error {
	resp, err := i.exchange(nil, false, func(_ *session, itt uint32) (net.Buffers, error) {
		if err := StampReplicaHeader(pdu, mode, shard, vol, itt, seq, lba, hash); err != nil {
			return nil, err
		}
		return net.Buffers{pdu}, nil
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
	resp, err := i.query(&PDU{Op: OpNop}, nil)
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
func (i *Initiator) WireSent() int64 { return i.wireSent.Load() }

// Close implements block.Store; it severs the connection without a
// logout handshake and disarms reconnection. Every command in flight
// returns net.ErrClosed, and Close returns once the session's reader
// has exited.
func (i *Initiator) Close() error {
	i.mu.Lock()
	i.closed = true
	i.redial = nil
	s := i.sess
	var dialing *session
	if i.attempt != nil {
		dialing = i.attempt.sess
	}
	i.mu.Unlock()
	if dialing != nil {
		i.fail(dialing, net.ErrClosed) // its reconnect attempt joins the reader
	}
	i.fail(s, net.ErrClosed)
	<-s.done
	return nil
}

func statusErr(op string, lba uint64, st Status) error {
	if sent := st.sentinel(); sent != nil {
		return fmt.Errorf("%w: %s lba %d: %w", ErrStatus, op, lba, sent)
	}
	return fmt.Errorf("%w: %s lba %d: %v", ErrStatus, op, lba, st)
}
