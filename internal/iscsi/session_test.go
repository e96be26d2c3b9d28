package iscsi

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"prins/internal/faults"
)

// streamKey names one (vol, shard) replication stream.
type streamKey struct {
	vol   uint16
	shard uint8
}

// cursorSink is a replica stand-in for the multiplexed-session tests:
// it keeps one seq cursor per (vol, shard) stream and, like the real
// replica, acknowledges a push at or below the cursor without applying
// it. applies counts real applies per (stream, seq); disorder counts
// pushes that skipped ahead of cursor+1; corrupt counts frames whose
// bytes are not what streamFrame builds for their tuple. gate, when
// non-nil, holds every push inside the handler until it is closed.
type cursorSink struct {
	replicaSink
	gate chan struct{}

	mu       sync.Mutex
	cursor   map[streamKey]uint64
	applies  map[string]int
	disorder int
	corrupt  int
}

func newCursorSink() *cursorSink {
	return &cursorSink{cursor: make(map[streamKey]uint64), applies: make(map[string]int)}
}

func (s *cursorSink) apply(shard uint8, vol uint16, e BatchEntry) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := streamKey{vol, shard}
	if e.Seq <= s.cursor[k] {
		return StatusOK
	}
	if e.Seq != s.cursor[k]+1 {
		s.disorder++
	}
	if !bytes.Equal(e.Frame, streamFrame(shard, vol, e.Seq)) {
		s.corrupt++
	}
	s.cursor[k] = e.Seq
	s.applies[fmt.Sprintf("%d/%d/%d", vol, shard, e.Seq)]++
	return StatusOK
}

func (s *cursorSink) HandleReplicaStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) Status {
	if s.gate != nil {
		<-s.gate
	}
	return s.apply(shard, vol, BatchEntry{Seq: seq, LBA: lba, Hash: hash, Frame: frame})
}

func (s *cursorSink) HandleReplicaBatchStream(mode, shard uint8, vol uint16, entries []BatchEntry) []Status {
	if s.gate != nil {
		<-s.gate
	}
	statuses := make([]Status, len(entries))
	for k, e := range entries {
		statuses[k] = s.apply(shard, vol, e)
	}
	return statuses
}

// streamFrame is the payload a test stream ships under seq: its bytes
// name the stream and the seq, so a frame that reached the wrong
// handler call — or was spliced with another PDU — cannot match.
func streamFrame(shard uint8, vol uint16, seq uint64) []byte {
	frame := make([]byte, 40+int(seq%7)*33)
	for j := range frame {
		frame[j] = byte(int(shard)*31 + int(vol)*17 + int(seq)*7 + j)
	}
	return frame
}

// waitInFlight blocks until n commands are registered on the
// initiator's current session.
func waitInFlight(t *testing.T, init *Initiator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		init.mu.Lock()
		got := len(init.sess.pending)
		init.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d commands in flight, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSessionOutOfOrderResponses: a target that answers N parked
// commands in reverse order. Every caller must get its own response,
// read straight into its own dst.
func TestSessionOutOfOrderResponses(t *testing.T) {
	const n, bs = 8, 512
	client, server := net.Pipe()
	served := make(chan error, 1)
	go func() {
		served <- func() error {
			req, err := ReadPDU(server)
			if err != nil {
				return err
			}
			login := PDU{Op: OpLoginResp, ITT: req.ITT, Data: encodeLoginResp(bs, 64)}
			if _, err := login.WriteTo(server); err != nil {
				return err
			}
			reqs := make([]*PDU, n)
			for k := range reqs {
				if reqs[k], err = ReadPDU(server); err != nil {
					return err
				}
			}
			for k := n - 1; k >= 0; k-- {
				resp := PDU{Op: OpResp, ITT: reqs[k].ITT, Data: bytes.Repeat([]byte{byte(reqs[k].LBA)}, bs)}
				if _, err := resp.WriteTo(server); err != nil {
					return err
				}
			}
			return nil
		}()
	}()
	init := NewInitiator(client)
	defer init.Close()
	if err := init.Login("any"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lba := uint64(k + 1)
			buf := make([]byte, bs)
			if err := init.ReadBlock(lba, buf); err != nil {
				t.Errorf("read lba %d: %v", lba, err)
				return
			}
			if !bytes.Equal(buf, bytes.Repeat([]byte{byte(lba)}, bs)) {
				t.Errorf("read lba %d returned another command's data (first byte %d)", lba, buf[0])
			}
		}()
	}
	wg.Wait()
	if err := <-served; err != nil {
		t.Errorf("fake target: %v", err)
	}
}

// TestSessionStreamsStayWhole: 8 goroutines, each its own (vol, shard)
// stream, push through one session to a real Target with every send
// shape — a two-piece PDU, a pre-framed one, a vectored batch. Over
// net.Pipe and faults.Conn a vectored send would degrade to one Write
// per piece, so this fails with ErrBadDigest/ErrBadMagic (or a torn
// frame at the sink) unless each PDU leaves in one conn call; every
// stream's seqs must also arrive in order.
func TestSessionStreamsStayWhole(t *testing.T) {
	const streams, rounds = 8, 60
	transports := map[string]func(net.Conn) net.Conn{
		"pipe":   func(c net.Conn) net.Conn { return c },
		"faults": func(c net.Conn) net.Conn { return faults.NewPlan(1).WrapConn(c, faults.ConnFaults{}) },
	}
	for name, wrap := range transports {
		t.Run(name, func(t *testing.T) {
			sink := newCursorSink()
			target := NewTarget()
			target.Export("r", sink)
			defer target.Close()
			client, server := net.Pipe()
			go target.ServeConn(server)
			init := NewInitiator(wrap(client))
			defer init.Close()
			if err := init.Login("r"); err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for g := 0; g < streams; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					shard, vol := uint8(g+1), uint16(100+g)
					seq := uint64(0)
					next := func() BatchEntry {
						seq++
						return BatchEntry{Seq: seq, LBA: seq, Frame: streamFrame(shard, vol, seq)}
					}
					for r := 0; r < rounds; r++ {
						var err error
						switch r % 3 {
						case 0:
							e := next()
							err = init.ReplicaWriteStream(1, shard, vol, e.Seq, e.LBA, 0, e.Frame)
						case 1:
							e := next()
							pdu := append(make([]byte, FrameHeadroom), e.Frame...)
							err = init.ReplicaWriteFramed(1, shard, vol, e.Seq, e.LBA, 0, pdu)
						default:
							_, err = init.ReplicaWriteBatchStream(1, shard, vol, []BatchEntry{next(), next(), next()})
						}
						if err != nil {
							t.Errorf("stream %d round %d: %v", g, r, err)
							return
						}
					}
				}()
			}
			wg.Wait()

			sink.mu.Lock()
			defer sink.mu.Unlock()
			if sink.disorder != 0 || sink.corrupt != 0 {
				t.Errorf("%d pushes out of seq order, %d torn frames", sink.disorder, sink.corrupt)
			}
			if want := streams * rounds / 3 * 5; len(sink.applies) != want {
				t.Errorf("sink applied %d entries, want %d", len(sink.applies), want)
			}
		})
	}
}

// TestSessionResetInFlightReconnectsOnce: the conn is reset with 4
// pushes in flight and reconnection armed. Exactly one caller redials;
// all 4 resend and complete; the push the replica had already applied
// is absorbed by its seq cursor, not applied twice.
func TestSessionResetInFlightReconnectsOnce(t *testing.T) {
	const inFlight = 4
	sink := newCursorSink()
	sink.gate = make(chan struct{})
	target := NewTarget()
	target.Export("r", sink)
	defer target.Close()

	var dials int
	dial := func() (net.Conn, error) {
		dials++ // first call before any concurrency, later ones from the single redialer
		client, server := net.Pipe()
		go target.ServeConn(server)
		return client, nil
	}
	first, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	init := NewInitiator(first)
	defer init.Close()
	if err := init.Login("r"); err != nil {
		t.Fatal(err)
	}
	init.EnableReconnect("r", dial)

	errs := make(chan error, inFlight)
	for g := 0; g < inFlight; g++ {
		go func() {
			shard := uint8(g + 1)
			errs <- init.ReplicaWriteStream(1, shard, 0, 1, 1, 0, streamFrame(shard, 0, 1))
		}()
	}
	// One push is inside the gated handler (the target is serial), the
	// rest are registered behind it. Reset, then let the handler finish:
	// its apply lands, its response has nowhere to go.
	waitInFlight(t, init, inFlight)
	first.Close()
	close(sink.gate)

	for g := 0; g < inFlight; g++ {
		if err := <-errs; err != nil {
			t.Errorf("push after reset: %v", err)
		}
	}
	if n := init.Reconnects(); n != 1 {
		t.Errorf("Reconnects = %d, want 1", n)
	}
	if dials != 2 {
		t.Errorf("dialed %d times, want 2 (the first session and one redial)", dials)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.applies) != inFlight {
		t.Errorf("replica applied %d streams' pushes, want %d", len(sink.applies), inFlight)
	}
	for k, n := range sink.applies {
		if n != 1 {
			t.Errorf("push %s applied %d times", k, n)
		}
	}
}

// TestSessionTimeoutFailsEveryCommand: three pushes are parked behind a
// target that does not answer and a fourth is stalled inside its conn
// write. The first to outlive the request timeout fails the session:
// all four return promptly — the stalled send included — with an error
// that satisfies net.Error's Timeout.
func TestSessionTimeoutFailsEveryCommand(t *testing.T) {
	const inFlight = 4
	sink := newCursorSink()
	sink.gate = make(chan struct{})
	target := NewTarget()
	target.Export("r", sink)
	defer target.Close()
	defer close(sink.gate)

	client, server := net.Pipe()
	go target.ServeConn(server)
	frame := streamFrame(1, 0, 1)
	pduLen := int64(headerLen + len(frame))
	loginLen := int64(headerLen + len(encodeLoginReq("r")))
	// Every write after the third push stalls until the conn is closed.
	stalling := faults.NewPlan(1).WrapConn(client, faults.ConnFaults{
		Fault: faults.FaultStall, AfterBytes: loginLen + (inFlight-1)*pduLen,
	})
	init := NewInitiator(stalling)
	defer init.Close()
	if err := init.Login("r"); err != nil {
		t.Fatal(err)
	}
	init.SetRequestTimeout(100 * time.Millisecond)

	start := time.Now()
	errs := make(chan error, inFlight)
	for g := 0; g < inFlight; g++ {
		go func() {
			errs <- init.ReplicaWriteStream(1, uint8(g+1), 0, 1, 1, 0, frame)
		}()
	}
	for g := 0; g < inFlight; g++ {
		select {
		case err := <-errs:
			var nerr net.Error
			if !errors.As(err, &nerr) || !nerr.Timeout() {
				t.Errorf("err = %v, want a net timeout", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("command %d still hung %v after the timeout", g, time.Since(start))
		}
	}
	if !stalling.Tripped() {
		t.Error("no send ever stalled: the test did not exercise a blocked Write")
	}
}

// TestSessionCloseUnblocksCallers: Close with commands parked returns,
// every caller gets net.ErrClosed, and the reader goroutine is gone by
// the time Close returns.
func TestSessionCloseUnblocksCallers(t *testing.T) {
	const inFlight = 4
	sink := newCursorSink()
	sink.gate = make(chan struct{})
	target := NewTarget()
	target.Export("r", sink)
	defer target.Close()
	defer close(sink.gate)

	client, server := net.Pipe()
	go target.ServeConn(server)
	init := NewInitiator(client)
	if err := init.Login("r"); err != nil {
		t.Fatal(err)
	}
	// Armed reconnection must not resurrect a closed session.
	init.EnableReconnect("r", func() (net.Conn, error) {
		return nil, errors.New("dialed after Close")
	})

	errs := make(chan error, inFlight)
	for g := 0; g < inFlight; g++ {
		go func() {
			errs <- init.ReplicaWriteStream(1, uint8(g+1), 0, 1, 1, 0, streamFrame(uint8(g+1), 0, 1))
		}()
	}
	waitInFlight(t, init, inFlight)
	sess := init.sess
	if err := init.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sess.done:
	default:
		t.Error("Close returned with the reader goroutine still running")
	}
	for g := 0; g < inFlight; g++ {
		select {
		case err := <-errs:
			if !errors.Is(err, net.ErrClosed) {
				t.Errorf("err = %v, want net.ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a parked caller was not released by Close")
		}
	}
	if _, err := init.Ping(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("ping after Close: err = %v, want net.ErrClosed", err)
	}
}
