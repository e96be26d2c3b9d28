package iscsi

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prins/internal/block"
)

// writeLogConn records every conn write whole, with how many bytes the
// session had read off the conn when the write began.
type writeLogConn struct {
	net.Conn
	mu     sync.Mutex
	read   int64
	writes []loggedWrite
}

type loggedWrite struct {
	data       []byte
	readBefore int64
}

func (c *writeLogConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read += int64(n)
	c.mu.Unlock()
	return n, err
}

func (c *writeLogConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, loggedWrite{data: slices.Clone(p), readBefore: c.read})
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *writeLogConn) log() []loggedWrite {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.writes)
}

// ops decodes one logged write into the opcodes of the PDUs it carried.
func (w loggedWrite) ops(t *testing.T) []Opcode {
	t.Helper()
	r := bytes.NewReader(w.data)
	var ops []Opcode
	for r.Len() > 0 {
		p, err := ReadPDU(r)
		if err != nil {
			t.Fatalf("logged write does not split into whole PDUs: %v", err)
		}
		ops = append(ops, p.Op)
	}
	return ops
}

// redialRig is a logged-in initiator over an in-memory 512 x 64 device
// whose block lba holds byte(lba+1) throughout, with a redial armed
// that parks in its dial hook until release is closed. serve picks the
// target a redialed conn is served by; each redialed conn is logged.
type redialRig struct {
	init    *Initiator
	target  *Target
	store   block.Store
	dialed  chan struct{}
	release chan struct{}
	serve   func(net.Conn)
	logs    chan *writeLogConn
}

const rigBS, rigNB = 512, 64

func newRedialRig(t *testing.T) *redialRig {
	t.Helper()
	store, err := block.NewMem(rigBS, rigNB)
	if err != nil {
		t.Fatal(err)
	}
	for lba := uint64(0); lba < rigNB; lba++ {
		if err := store.WriteBlock(lba, rigBlock(lba)); err != nil {
			t.Fatal(err)
		}
	}
	target := NewTarget()
	target.Export("vol", &StoreBackend{Store: store})
	t.Cleanup(func() { target.Close() })
	r := &redialRig{
		target: target, store: store,
		dialed: make(chan struct{}, 1), release: make(chan struct{}),
		logs: make(chan *writeLogConn, 1),
	}
	r.serve = func(c net.Conn) { target.ServeConn(c) }
	c1, c2 := net.Pipe()
	go target.ServeConn(c2)
	r.init = NewInitiator(c1)
	t.Cleanup(func() { r.init.Close() })
	if err := r.init.Login("vol"); err != nil {
		t.Fatal(err)
	}
	r.init.EnableReconnect("vol", func() (net.Conn, error) {
		r.dialed <- struct{}{}
		<-r.release
		a, b := net.Pipe()
		go r.serve(b)
		lc := &writeLogConn{Conn: a}
		r.logs <- lc
		return lc, nil
	})
	return r
}

func rigBlock(lba uint64) []byte { return bytes.Repeat([]byte{byte(lba + 1)}, rigBS) }

// down fails the live session, as a cut link would.
func (r *redialRig) down() {
	r.init.fail(r.init.sess, errors.New("synthetic session failure"))
}

// waitRiders blocks until n commands have boarded the redial in
// progress.
func (r *redialRig) waitRiders(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.init.mu.Lock()
		got := 0
		if a := r.init.attempt; a != nil {
			got = len(a.riders)
		}
		r.init.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d riders boarded the redial, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// result is one parked command's outcome; check, run on success, says
// what is wrong with its answer.
type result struct {
	name  string
	err   error
	check func() string
}

// readOnlyCommands starts, each on its own goroutine, three hash
// fetches, one block read and one ping, and returns where their
// outcomes arrive.
func (r *redialRig) readOnlyCommands() (n int, out chan result) {
	out = make(chan result, 5)
	for k, lba := range []uint64{0, 16, 40} {
		go func() {
			c := &HashCmd{Units: []HashUnit{{LBA: lba, Count: uint32(8 + k)}}}
			err := r.init.ReadHashUnits(c)
			out <- result{"hash", err, func() string {
				for j, h := range c.Units[0].Hashes {
					if h != HashBlock(rigBlock(lba+uint64(j))) {
						return "wrong hash"
					}
				}
				if len(c.Units[0].Hashes) != 8+k {
					return "wrong hash count"
				}
				return ""
			}}
		}()
	}
	go func() {
		buf := make([]byte, rigBS)
		err := r.init.ReadBlock(9, buf)
		out <- result{"read", err, func() string {
			if !bytes.Equal(buf, rigBlock(9)) {
				return "wrong block"
			}
			return ""
		}}
	}()
	go func() {
		_, err := r.init.Ping()
		out <- result{"ping", err, func() string { return "" }}
	}()
	return 5, out
}

// TestRedialCarriesReadOnlyRiders: hash fetches, a block read and a
// ping parked on one redial leave in exactly one conn write, behind the
// login, and each gets its own answer; a block write parked on the same
// redial leaves in a later write, once the login's answer is in. It
// holds whether the redial's runner is the write or one of the riders.
func TestRedialCarriesReadOnlyRiders(t *testing.T) {
	for _, writerRuns := range []bool{true, false} {
		name := "reader-runs"
		if writerRuns {
			name = "writer-runs"
		}
		t.Run(name, func(t *testing.T) {
			r := newRedialRig(t)
			r.down()
			newData := bytes.Repeat([]byte{0xee}, rigBS)
			wrote := make(chan error, 1)
			write := func() { wrote <- r.init.WriteBlock(7, newData) }
			var riders int
			var out chan result
			if writerRuns {
				go write()
				<-r.dialed
				riders, out = r.readOnlyCommands()
			} else {
				riders, out = r.readOnlyCommands()
				<-r.dialed
				go write()
			}
			r.waitRiders(t, riders)
			close(r.release)

			for n := 0; n < riders; n++ {
				res := <-out
				if res.err != nil {
					t.Errorf("%s: %v", res.name, res.err)
				} else if msg := res.check(); msg != "" {
					t.Errorf("%s: %s", res.name, msg)
				}
			}
			if err := <-wrote; err != nil {
				t.Fatalf("write: %v", err)
			}
			got := make([]byte, rigBS)
			if err := r.store.ReadBlock(7, got); err != nil || !bytes.Equal(got, newData) {
				t.Errorf("block 7 after the write: %v, %x...", err, got[:4])
			}
			if n := r.init.Reconnects(); n != 1 {
				t.Errorf("Reconnects = %d, want 1", n)
			}

			writes := (<-r.logs).log()
			if len(writes) != 2 {
				t.Fatalf("redialed session made %d conn writes, want 2", len(writes))
			}
			first := writes[0].ops(t)
			if len(first) != 1+riders || first[0] != OpLoginReq {
				t.Fatalf("first write carried %v, want the login and %d riders", first, riders)
			}
			rest := slices.Clone(first[1:])
			slices.Sort(rest)
			want := []Opcode{OpNop, OpReadCmd, OpHashCmd, OpHashCmd, OpHashCmd}
			slices.Sort(want)
			if !slices.Equal(rest, want) {
				t.Errorf("riders %v, want %v", rest, want)
			}
			if ops := writes[1].ops(t); !slices.Equal(ops, []Opcode{OpWriteCmd}) {
				t.Errorf("second write carried %v, want the block write", ops)
			}
			loginAnswer := int64(headerLen + len(encodeLoginResp(rigBS, rigNB)))
			if writes[1].readBefore < loginAnswer {
				t.Errorf("the write left with %d bytes read, before the %d-byte login answer", writes[1].readBefore, loginAnswer)
			}
		})
	}
}

// writeCounter is a backend that counts the writes that reach it.
type writeCounter struct {
	StoreBackend
	writes atomic.Int32
}

func (b *writeCounter) HandleWrite(lba uint64, data []byte) Status {
	b.writes.Add(1)
	return b.StoreBackend.HandleWrite(lba, data)
}

// TestRedialRefusalsReachEveryRider: when the redial's login is
// refused, finds the device reshaped, or is cut short by Close, every
// rider and every parked writer returns the attempt's error, never an
// answer of the session the login opened; no write reaches a reshaped
// device, and no goroutine outlives Close.
func TestRedialRefusalsReachEveryRider(t *testing.T) {
	// parked takes the rig's session down, parks a block write (the
	// redial's runner, held in its dial) and the read-only commands on
	// it, and returns their outcomes' channels.
	parked := func(t *testing.T, r *redialRig) (riders int, out chan result, wrote chan error) {
		t.Helper()
		r.down()
		wrote = make(chan error, 1)
		go func() { wrote <- r.init.WriteBlock(7, make([]byte, rigBS)) }()
		<-r.dialed
		riders, out = r.readOnlyCommands()
		r.waitRiders(t, riders)
		return riders, out, wrote
	}
	// expect checks that every parked command failed with an error that
	// satisfies want.
	expect := func(t *testing.T, riders int, out chan result, wrote chan error, want func(error) bool) {
		t.Helper()
		for n := 0; n < riders; n++ {
			select {
			case res := <-out:
				if res.err == nil || !want(res.err) {
					t.Errorf("%s: err = %v, want the attempt's error", res.name, res.err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a rider never returned")
			}
		}
		select {
		case err := <-wrote:
			if err == nil || !want(err) {
				t.Errorf("write: err = %v, want the attempt's error", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the parked write never returned")
		}
	}

	t.Run("geometry-changed", func(t *testing.T) {
		r := newRedialRig(t)
		riders, out, wrote := parked(t, r)
		small, err := block.NewMem(rigBS, rigNB/2)
		if err != nil {
			t.Fatal(err)
		}
		reshaped := &writeCounter{StoreBackend: StoreBackend{Store: small}}
		r.target.Export("vol", reshaped)
		close(r.release)
		expect(t, riders, out, wrote, func(err error) bool {
			return strings.Contains(err.Error(), "reconnect geometry changed")
		})
		if n := reshaped.writes.Load(); n != 0 {
			t.Errorf("the reshaped device received %d writes", n)
		}
	})

	t.Run("name-not-exported", func(t *testing.T) {
		r := newRedialRig(t)
		bare := NewTarget() // exports nothing: the relogin is refused
		defer bare.Close()
		r.serve = func(c net.Conn) { bare.ServeConn(c) }
		riders, out, wrote := parked(t, r)
		close(r.release)
		expect(t, riders, out, wrote, func(err error) bool {
			return errors.Is(err, ErrStatus) && strings.Contains(err.Error(), "relogin vol: "+StatusBadTarget.String())
		})
	})

	// Close while the riders wait for the dial, and while they are on
	// the wire with the login to a peer that never answers.
	for _, onWire := range []bool{false, true} {
		name := "close-before-the-write"
		if onWire {
			name = "close-with-riders-on-the-wire"
		}
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			r := newRedialRig(t)
			r.serve = func(c net.Conn) { _, _ = io.Copy(io.Discard, c) }
			riders, out, wrote := parked(t, r)
			if onWire {
				close(r.release)
				lc := <-r.logs
				for deadline := time.Now().Add(5 * time.Second); len(lc.log()) == 0; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("the login never left")
					}
				}
			}
			if err := r.init.Close(); err != nil {
				t.Fatal(err)
			}
			if !onWire {
				close(r.release)
			}
			expect(t, riders, out, wrote, func(err error) bool { return errors.Is(err, net.ErrClosed) })
			r.target.Close()
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines outlive Close, %d before the rig:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				}
			}
		})
	}
}
