package iscsi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"prins/internal/block"
)

func TestPDURoundTrip(t *testing.T) {
	tests := []struct {
		name string
		pdu  PDU
	}{
		{name: "empty nop", pdu: PDU{Op: OpNop}},
		{name: "read cmd", pdu: PDU{Op: OpReadCmd, ITT: 7, LBA: 123456, Blocks: 4}},
		{name: "write with data", pdu: PDU{Op: OpWriteCmd, ITT: 8, LBA: 9, Data: []byte("payload")}},
		{name: "replica", pdu: PDU{Op: OpReplicaWrite, Mode: 3, Seq: 1 << 40, LBA: 42, Data: []byte{1, 2, 3}}},
		{name: "status resp", pdu: PDU{Op: OpResp, Status: StatusOutOfRange, ITT: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			n, err := tt.pdu.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if int(n) != tt.pdu.WireSize() || buf.Len() != tt.pdu.WireSize() {
				t.Errorf("wire size %d, WriteTo %d, buffered %d", tt.pdu.WireSize(), n, buf.Len())
			}
			got, err := ReadPDU(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Op != tt.pdu.Op || got.Status != tt.pdu.Status || got.Mode != tt.pdu.Mode ||
				got.ITT != tt.pdu.ITT || got.LBA != tt.pdu.LBA || got.Blocks != tt.pdu.Blocks ||
				got.Seq != tt.pdu.Seq || !bytes.Equal(got.Data, tt.pdu.Data) {
				t.Errorf("round trip mismatch: got %+v, want %+v", got, tt.pdu)
			}
		})
	}
}

func TestPDURoundTripQuick(t *testing.T) {
	f := func(op, mode uint8, itt uint32, lba, seq uint64, blocks uint32, data []byte) bool {
		in := PDU{
			Op: Opcode(op), Mode: mode, ITT: itt, LBA: lba,
			Seq: seq, Blocks: blocks, Data: data,
		}
		var buf bytes.Buffer
		if _, err := in.WriteTo(&buf); err != nil {
			return false
		}
		out, err := ReadPDU(&buf)
		if err != nil {
			return false
		}
		return out.Op == in.Op && out.Mode == in.Mode && out.ITT == in.ITT &&
			out.LBA == in.LBA && out.Seq == in.Seq && out.Blocks == in.Blocks &&
			bytes.Equal(out.Data, in.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReadPDUErrors(t *testing.T) {
	t.Run("clean EOF", func(t *testing.T) {
		if _, err := ReadPDU(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
			t.Errorf("err = %v, want io.EOF", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, err := ReadPDU(bytes.NewReader([]byte{protoMagic, entryListVersion, 1})); err == nil {
			t.Error("want error")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		buf := make([]byte, headerLen)
		buf[0] = 0xFF
		if _, err := ReadPDU(bytes.NewReader(buf)); !errors.Is(err, ErrBadMagic) {
			t.Errorf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		buf := make([]byte, headerLen)
		buf[0] = protoMagic
		buf[1] = 99
		if _, err := ReadPDU(bytes.NewReader(buf)); !errors.Is(err, ErrBadVersion) {
			t.Errorf("err = %v, want ErrBadVersion", err)
		}
	})
	t.Run("oversized segment", func(t *testing.T) {
		var p PDU
		var buf bytes.Buffer
		p.Op = OpNop
		if _, err := p.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		raw[24] = 0xFF // length = ~4GB
		raw[25] = 0xFF
		raw[26] = 0xFF
		raw[27] = 0xFF
		if _, err := ReadPDU(bytes.NewReader(raw)); !errors.Is(err, ErrTooLarge) {
			t.Errorf("err = %v, want ErrTooLarge", err)
		}
	})
	t.Run("truncated data", func(t *testing.T) {
		var buf bytes.Buffer
		p := PDU{Op: OpWriteCmd, Data: []byte("hello")}
		if _, err := p.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()[:buf.Len()-2]
		if _, err := ReadPDU(bytes.NewReader(raw)); err == nil {
			t.Error("want error for truncated data segment")
		}
	})
}

// TestDigestDetectsCorruption flips single bits anywhere in a PDU and
// requires the CRC-32C digest to reject the frame (the iSCSI
// header+data digest role).
func TestDigestDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	p := PDU{Op: OpReplicaWrite, Mode: 3, Seq: 7, LBA: 42, ITT: 1, Data: []byte("payload bytes")}
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for i := 2; i < len(raw); i++ { // skip magic/version: different errors
		corrupted := append([]byte(nil), raw...)
		corrupted[i] ^= 0x40
		_, err := ReadPDU(bytes.NewReader(corrupted))
		if err == nil {
			t.Fatalf("bit flip at offset %d went undetected", i)
		}
	}
	// And the pristine frame still parses.
	if _, err := ReadPDU(bytes.NewReader(raw)); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
}

func TestWriteRejectsOversizedData(t *testing.T) {
	p := PDU{Op: OpWriteCmd, Data: make([]byte, MaxDataSegment+1)}
	if _, err := p.WriteTo(io.Discard); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

// startPair wires an initiator to a target over net.Pipe and logs in.
func startPair(t *testing.T, name string, backend Backend) *Initiator {
	t.Helper()
	target := NewTarget()
	target.Export(name, backend)
	client, server := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		target.ServeConn(server)
	}()
	init := NewInitiator(client)
	t.Cleanup(func() {
		init.Close()
		wg.Wait()
	})
	return init
}

func TestSessionLifecycle(t *testing.T) {
	store, err := block.NewMem(512, 32)
	if err != nil {
		t.Fatal(err)
	}
	init := startPair(t, "disk0", &StoreBackend{Store: store})

	// I/O before login is rejected.
	if _, err := init.ReadBlocks(0, 1); !errors.Is(err, ErrStatus) {
		t.Errorf("read before login: err = %v, want ErrStatus", err)
	}

	// Wrong target name.
	if err := init.Login("nope"); !errors.Is(err, ErrStatus) {
		t.Errorf("bad target login: err = %v, want ErrStatus", err)
	}

	if err := init.Login("disk0"); err != nil {
		t.Fatalf("login: %v", err)
	}
	if init.BlockSize() != 512 || init.NumBlocks() != 32 {
		t.Errorf("geometry = %d x %d, want 512 x 32", init.BlockSize(), init.NumBlocks())
	}

	// Write then read back through the wire.
	data := bytes.Repeat([]byte{0xCD}, 512)
	if err := init.WriteBlock(7, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := init.ReadBlock(7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("remote round trip mismatch")
	}

	// Verify it actually hit the backing store.
	direct := make([]byte, 512)
	if err := store.ReadBlock(7, direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, data) {
		t.Error("write did not reach backing store")
	}

	// Multi-block read.
	multi, err := init.ReadBlocks(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != 3*512 || !bytes.Equal(multi[512:1024], data) {
		t.Error("multi-block read wrong")
	}

	// Out-of-range surfaces as a status error.
	if _, err := init.ReadBlocks(32, 1); !errors.Is(err, ErrStatus) {
		t.Errorf("OOB read: err = %v, want ErrStatus", err)
	}
	if err := init.WriteBlock(99, data); !errors.Is(err, ErrStatus) {
		t.Errorf("OOB write: err = %v, want ErrStatus", err)
	}

	// Bad buffer sizes are caught client-side.
	if err := init.ReadBlock(0, make([]byte, 10)); !errors.Is(err, block.ErrBadBufSize) {
		t.Errorf("short read buf: %v", err)
	}
	if err := init.WriteBlock(0, make([]byte, 10)); !errors.Is(err, block.ErrBadBufSize) {
		t.Errorf("short write buf: %v", err)
	}

	// Ping and logout.
	if _, err := init.Ping(); err != nil {
		t.Errorf("ping: %v", err)
	}
	if err := init.Logout(); err != nil {
		t.Errorf("logout: %v", err)
	}
}

func TestReplicaWriteAgainstPlainStore(t *testing.T) {
	store, _ := block.NewMem(512, 8)
	init := startPair(t, "disk0", &StoreBackend{Store: store})
	if err := init.Login("disk0"); err != nil {
		t.Fatal(err)
	}
	// A plain store backend rejects replica pushes.
	if err := init.ReplicaWriteStream(1, 0, 0, 1, 0, 0, []byte{1}); !errors.Is(err, ErrStatus) {
		t.Errorf("replica write: err = %v, want ErrStatus", err)
	}
}

func TestZeroBlockReadRejected(t *testing.T) {
	store, _ := block.NewMem(512, 8)
	init := startPair(t, "d", &StoreBackend{Store: store})
	if err := init.Login("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := init.ReadBlocks(0, 0); !errors.Is(err, ErrStatus) {
		t.Errorf("0-block read: err = %v, want ErrStatus", err)
	}
}

func TestTargetOverTCP(t *testing.T) {
	store, err := block.NewMem(4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	target := NewTarget()
	target.Export("tcp0", &StoreBackend{Store: store})
	addr, err := target.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()

	// Several concurrent initiators hammer disjoint LBA ranges.
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			init, err := Dial(addr.String())
			if err != nil {
				errCh <- err
				return
			}
			defer init.Close()
			if err := init.Login("tcp0"); err != nil {
				errCh <- err
				return
			}
			rng := rand.New(rand.NewSource(int64(g)))
			base := uint64(g * 16)
			buf := make([]byte, 4096)
			for i := 0; i < 50; i++ {
				lba := base + uint64(rng.Intn(16))
				rng.Read(buf)
				if err := init.WriteBlock(lba, buf); err != nil {
					errCh <- err
					return
				}
				got := make([]byte, 4096)
				if err := init.ReadBlock(lba, got); err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(got, buf) {
					errCh <- errors.New("read-after-write mismatch")
					return
				}
			}
			if err := init.Logout(); err != nil {
				errCh <- err
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

func TestTargetCloseStopsAccepting(t *testing.T) {
	target := NewTarget()
	store, _ := block.NewMem(512, 4)
	target.Export("x", &StoreBackend{Store: store})
	addr, err := target.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := target.Close(); err != nil {
		t.Fatal(err)
	}
	// New connections should fail (or be immediately closed).
	if conn, err := net.Dial("tcp", addr.String()); err == nil {
		conn.Close()
		// Accept loop is gone; at minimum a second Serve must refuse.
		if err := target.Serve(nil); !errors.Is(err, net.ErrClosed) {
			t.Errorf("Serve after close: %v, want net.ErrClosed", err)
		}
	}
	// Double close is fine.
	if err := target.Close(); err != nil {
		t.Error(err)
	}
}

func TestGarbageStreamDropsSession(t *testing.T) {
	target := NewTarget()
	store, _ := block.NewMem(512, 4)
	target.Export("x", &StoreBackend{Store: store})

	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		target.ServeConn(server)
	}()
	if _, err := client.Write(bytes.Repeat([]byte{0xEE}, headerLen)); err != nil {
		t.Fatal(err)
	}
	<-done // session must terminate on garbage
	client.Close()
}

func TestOpcodeAndStatusStrings(t *testing.T) {
	if OpReadCmd.String() != "READ" || Opcode(200).String() != "OP(200)" {
		t.Error("opcode strings wrong")
	}
	if StatusOK.String() != "OK" || Status(200).String() != "STATUS(200)" {
		t.Error("status strings wrong")
	}
}

func TestRequestTimeout(t *testing.T) {
	// A server that accepts but never responds.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done, release := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		<-release // hold the connection open, silent
	}()

	init, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer init.Close()
	init.SetRequestTimeout(50 * time.Millisecond)

	start := time.Now()
	_, err = init.Ping()
	if err == nil {
		t.Fatal("ping against silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v, want ~50ms", elapsed)
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("err = %v, want a net timeout", err)
	}
	close(release)
	<-done
}

// TestInitiatorReconnect: with reconnection armed, a severed transport
// is transparently replaced — redial, re-login, retry — and the failed
// request still succeeds against the same target state.
func TestInitiatorReconnect(t *testing.T) {
	store, err := block.NewMem(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	target := NewTarget()
	target.Export("x", &StoreBackend{Store: store})
	t.Cleanup(func() { target.Close() })

	serve := func() net.Conn {
		client, server := net.Pipe()
		go target.ServeConn(server)
		return client
	}
	first := serve()
	init := NewInitiator(first)
	defer init.Close()
	if err := init.Login("x"); err != nil {
		t.Fatal(err)
	}
	init.EnableReconnect("x", func() (net.Conn, error) { return serve(), nil })

	buf := make([]byte, 512)
	buf[0] = 1
	if err := init.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}

	// Sever the transport out from under the session.
	first.Close()

	buf[0] = 2
	if err := init.WriteBlock(1, buf); err != nil {
		t.Fatalf("write after severed conn: %v", err)
	}
	if n := init.Reconnects(); n != 1 {
		t.Errorf("Reconnects = %d, want 1", n)
	}

	// Both the pre- and post-reconnect writes are on the device, and
	// the new session serves reads.
	got := make([]byte, 512)
	if err := init.ReadBlock(0, got); err != nil || got[0] != 1 {
		t.Errorf("block 0 = %d, %v; want 1, nil", got[0], err)
	}
	if err := init.ReadBlock(1, got); err != nil || got[0] != 2 {
		t.Errorf("block 1 = %d, %v; want 2, nil", got[0], err)
	}

	// Close disarms recovery: the session must stay dead.
	init.Close()
	if err := init.WriteBlock(2, buf); err == nil {
		t.Error("write after Close should fail, not resurrect the session")
	}
	if n := init.Reconnects(); n != 1 {
		t.Errorf("Close must not reconnect; Reconnects = %d", n)
	}
}

// TestReconnectBackoffSchedule drives reconnect on a failed session
// with a failing dialer under injected clock hooks: the first reconnect
// of a streak is immediate, consecutive failures back off exponentially
// to the cap, and a successful cycle resets the streak. Deterministic —
// the jitter hook is the identity and the sleeper only records.
func TestReconnectBackoffSchedule(t *testing.T) {
	store, err := block.NewMem(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	target := NewTarget()
	target.Export("vol", &StoreBackend{Store: store})
	defer target.Close()

	c1, c2 := net.Pipe()
	go target.ServeConn(c2)
	init := NewInitiator(c1)
	if err := init.Login("vol"); err != nil {
		t.Fatal(err)
	}
	defer init.Close()

	var slept []time.Duration
	fail := true
	init.EnableReconnect("vol", func() (net.Conn, error) {
		if fail {
			return nil, errors.New("synthetic dial failure")
		}
		a, b := net.Pipe()
		go target.ServeConn(b)
		return a, nil
	})
	init.SetReconnectBackoff(10*time.Millisecond, 80*time.Millisecond)
	init.rbJitter = func(d time.Duration) time.Duration { return d }
	init.rbSleep = func(d time.Duration) { slept = append(slept, d) }

	down := init.sess
	init.fail(down, errors.New("synthetic session failure"))
	for n := 0; n < 6; n++ {
		if _, err := init.reconnect(down); err == nil {
			t.Fatal("reconnect unexpectedly succeeded")
		}
	}

	// First attempt immediate, then 10, 20, 40, 80 (cap), 80 (cap).
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond,
	}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("sleep %d was %v, want %v (full schedule %v)", i, slept[i], want[i], slept)
		}
	}

	// A successful reconnect resets the streak: the next failure's first
	// attempt is immediate again.
	fail = false
	down, err = init.reconnect(down)
	if err != nil {
		t.Fatalf("healing reconnect: %v", err)
	}
	fail = true
	slept = nil
	init.fail(down, errors.New("synthetic session failure"))
	for n := 0; n < 2; n++ {
		if _, err := init.reconnect(down); err == nil {
			t.Fatal("reconnect unexpectedly succeeded")
		}
	}
	// Note the post-reset sleep before the cap-but-one attempt: the
	// first retry after success slept 0 (recorded nothing), the second
	// slept base again.
	if len(slept) != 1 || slept[0] != 10*time.Millisecond {
		t.Fatalf("post-reset schedule %v, want [10ms]", slept)
	}
}

// TestRetiredOpcode14, named for the first of them: opcodes 13 (the
// proto-v6 stripe push) and 14 (the v6 repair-chain hop) are retired
// but keep their slots — later opcodes do not move — and a target
// answers each like any unknown opcode: StatusBadRequest, with the
// session still serving the next command. Version 6 itself is retired
// too, so the probes are framed as v3.
func TestRetiredOpcode14(t *testing.T) {
	if OpReplicaWriteByRef != 15 {
		t.Fatalf("OpReplicaWriteByRef = %d, want 15: opcodes 13 and 14 must stay reserved", OpReplicaWriteByRef)
	}
	store, err := block.NewMem(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	target := NewTarget()
	target.Export("r", &StoreBackend{Store: store})
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		target.ServeConn(server)
	}()
	defer func() {
		client.Close()
		<-done
	}()
	roundTrip := func(p *PDU) *PDU {
		t.Helper()
		if _, err := p.WriteTo(client); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadPDU(client)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := roundTrip(&PDU{Op: OpLoginReq, ITT: 1, Data: encodeLoginReq("r")}); resp.Status != StatusOK {
		t.Fatalf("login: %v", resp.Status)
	}

	itt := uint32(1)
	for _, op := range []Opcode{13, 14} {
		t.Run(op.String(), func(t *testing.T) {
			// An opaque payload, as the retired verb's sender framed one.
			itt++
			if resp := roundTrip(&PDU{Op: op, ITT: itt, Data: bytes.Repeat([]byte{0xaa}, 22)}); resp.ITT != itt || resp.Status != StatusBadRequest {
				t.Fatalf("opcode %d: ITT %d status %v, want %d BAD-REQUEST", op, resp.ITT, resp.Status, itt)
			}
			itt++
			resp := roundTrip(&PDU{Op: OpHashCmd, ITT: itt, LBA: 0, Blocks: 2})
			if resp.ITT != itt || resp.Status != StatusOK || len(resp.Data) != 2*HashSize {
				t.Fatalf("HASH after opcode %d: ITT %d status %v, %d bytes", op, resp.ITT, resp.Status, len(resp.Data))
			}
		})
	}
}

// TestHeaderVersions: the header check accepts exactly versions 3, 5
// and 8 — 4 and 7 (the entry lists with fixed 28-byte entry headers)
// and 6 (the stripe verb) are retired and refused with ErrBadVersion —
// and both entry-list opcodes go out as v8, tagged or not, while a
// single write keeps v3, or v5 when tagged.
func TestHeaderVersions(t *testing.T) {
	for v := 0; v < 256; v++ {
		hdr := make([]byte, headerLen)
		(&PDU{Op: OpNop}).putHeader(hdr, 0)
		hdr[1] = byte(v)
		binary.BigEndian.PutUint32(hdr[44:], digest(hdr, nil))
		_, err := ReadPDU(bytes.NewReader(hdr))
		switch v {
		case 3, 5, 8:
			if err != nil {
				t.Errorf("version %d refused: %v", v, err)
			}
		default:
			if !errors.Is(err, ErrBadVersion) {
				t.Errorf("version %d: err = %v, want ErrBadVersion", v, err)
			}
		}
	}

	init, rec := startRecordedPair(t, &goldenSink{})
	entries := goldenEntries(3, false)
	refs := goldenEntries(3, true)
	for _, tc := range []struct {
		name string
		want byte
		send func() error
	}{
		{"write", baseVersion, func() error { return init.ReplicaWriteStream(1, 0, 0, 1, 1, 1, []byte{1}) }},
		{"write tagged", streamVersion, func() error { return init.ReplicaWriteStream(1, 1, 0, 2, 1, 1, []byte{1}) }},
		{"batch", entryListVersion, func() error { _, err := init.ReplicaWriteBatchStream(1, 0, 0, entries); return err }},
		{"batch tagged", entryListVersion, func() error { _, err := init.ReplicaWriteBatchStream(1, 0, 4, entries); return err }},
		{"by-ref", entryListVersion, func() error { _, err := init.ReplicaWriteBatchStream(1, 0, 0, refs); return err }},
		{"by-ref tagged", entryListVersion, func() error { _, err := init.ReplicaWriteBatchStream(1, 2, 4, refs); return err }},
	} {
		if err := tc.send(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wire := rec.take()
		if len(wire) < headerLen {
			t.Fatalf("%s: captured %d wire bytes", tc.name, len(wire))
		}
		if wire[1] != tc.want {
			t.Errorf("%s stamped version %d, want %d", tc.name, wire[1], tc.want)
		}
	}
}

// TestShortResponseRejected: a peer answering with a data segment that
// does not match the length the request implies is a protocol error
// (ErrShortFrame), never a partial result handed to the caller.
func TestShortResponseRejected(t *testing.T) {
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			req, err := ReadPDU(server)
			if err != nil {
				return
			}
			resp := &PDU{ITT: req.ITT, Status: StatusOK, Op: OpResp}
			switch req.Op {
			case OpLoginReq:
				resp.Op = OpLoginResp
				resp.Data = encodeLoginResp(512, 8)
			case OpReadCmd:
				resp.Data = make([]byte, int(req.Blocks)*512-7) // truncated block data
			case OpHashCmd:
				resp.Data = make([]byte, int(req.Blocks)*HashSize+3) // misaligned hashes
			}
			if _, err := resp.WriteTo(server); err != nil {
				return
			}
		}
	}()
	init := NewInitiator(client)
	t.Cleanup(func() {
		init.Close()
		<-done
	})
	if err := init.Login("disk0"); err != nil {
		t.Fatal(err)
	}

	if _, err := init.ReadBlocks(0, 2); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short read response: err = %v, want ErrShortFrame", err)
	}
	if _, _, err := init.ReadHashes(0, 4, 0); !errors.Is(err, ErrShortFrame) {
		t.Errorf("misaligned hash response: err = %v, want ErrShortFrame", err)
	}
	if err := init.ReadBlock(0, make([]byte, 512)); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short single-block read: err = %v, want ErrShortFrame", err)
	}
}
