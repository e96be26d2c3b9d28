package iscsi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"prins/internal/block"
)

// stripeSink records stripe pushes and answers a fixed status vector.
type stripeSink struct {
	StoreBackend
	hdr     StripeHeader
	entries [][]BatchEntry
	status  Status
}

func (s *stripeSink) HandleReplicaStripe(mode, shard uint8, vol uint16, hdr StripeHeader, entries []BatchEntry) []Status {
	s.hdr = hdr
	cp := make([]BatchEntry, len(entries))
	for i, e := range entries {
		cp[i] = BatchEntry{Seq: e.Seq, LBA: e.LBA, Hash: e.Hash, Frame: append([]byte(nil), e.Frame...)}
	}
	s.entries = append(s.entries, cp)
	out := make([]Status, len(entries))
	for i := range out {
		out[i] = s.status
	}
	return out
}

func stripeTestSession(t *testing.T, backend Backend) *Initiator {
	t.Helper()
	target := NewTarget()
	target.Export("vol", backend)
	c1, c2 := net.Pipe()
	go target.ServeConn(c2)
	t.Cleanup(func() { target.Close() })
	init := NewInitiator(c1)
	if err := init.Login("vol"); err != nil {
		t.Fatalf("login: %v", err)
	}
	t.Cleanup(func() { init.Close() })
	return init
}

func TestStripeEncodeDecodeRoundTrip(t *testing.T) {
	hdr := StripeHeader{K: 2, N: 4, Idx: 1}
	entries := []BatchEntry{
		{Seq: 5, LBA: 9, Hash: 0xfeed, Frame: []byte("alpha")},
		{Seq: 6, LBA: 10, Hash: 0, Frame: nil},
	}
	seg, err := EncodeStripe(hdr, entries)
	if err != nil {
		t.Fatal(err)
	}
	gotHdr, gotEntries, err := DecodeStripe(seg)
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr != hdr {
		t.Fatalf("header %+v != %+v", gotHdr, hdr)
	}
	if len(gotEntries) != len(entries) {
		t.Fatalf("entries %d != %d", len(gotEntries), len(entries))
	}
	for i := range entries {
		if gotEntries[i].Seq != entries[i].Seq || gotEntries[i].LBA != entries[i].LBA ||
			gotEntries[i].Hash != entries[i].Hash || !bytes.Equal(gotEntries[i].Frame, entries[i].Frame) {
			t.Fatalf("entry %d mismatch: %+v != %+v", i, gotEntries[i], entries[i])
		}
	}
}

func TestStripeDecodeStrict(t *testing.T) {
	hdr := StripeHeader{K: 2, N: 3, Idx: 2}
	seg, err := EncodeStripe(hdr, []BatchEntry{{Seq: 1, LBA: 2, Frame: []byte("xy")}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrShortFrame},
		{"truncated prefix", seg[:2], ErrShortFrame},
		{"truncated entry", seg[:len(seg)-1], ErrShortFrame},
		{"trailing byte", append(append([]byte(nil), seg...), 0), ErrBadFrame},
		{"reserved set", func() []byte { b := append([]byte(nil), seg...); b[3] = 1; return b }(), ErrBadFrame},
		{"k zero", func() []byte { b := append([]byte(nil), seg...); b[0] = 0; return b }(), ErrBadFrame},
		{"k above n", func() []byte { b := append([]byte(nil), seg...); b[0] = 9; return b }(), ErrBadFrame},
		{"idx out of group", func() []byte { b := append([]byte(nil), seg...); b[2] = 3; return b }(), ErrBadFrame},
	}
	for _, tc := range cases {
		if _, _, err := DecodeStripe(tc.data); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := EncodeStripe(StripeHeader{K: 3, N: 2, Idx: 0}, []BatchEntry{{Frame: nil}}); err == nil {
		t.Fatal("encode accepted k > n")
	}
}

func TestStripeWireRoundTrip(t *testing.T) {
	store, err := block.NewMem(512, 16)
	if err != nil {
		t.Fatal(err)
	}
	sink := &stripeSink{StoreBackend: StoreBackend{Store: store}}
	init := stripeTestSession(t, sink)

	hdr := StripeHeader{K: 2, N: 4, Idx: 3}
	entries := []BatchEntry{
		{Seq: 1, LBA: 3, Hash: 0xabc, Frame: []byte("unit-frame-a")},
		{Seq: 2, LBA: 4, Hash: 0xdef, Frame: []byte("b")},
	}
	statuses, err := init.ReplicaWriteStripe(3, 1, 7, hdr, entries)
	if err != nil {
		t.Fatalf("stripe push: %v", err)
	}
	for i, st := range statuses {
		if st != StatusOK {
			t.Fatalf("entry %d status %v", i, st)
		}
	}
	if sink.hdr != hdr {
		t.Fatalf("backend saw group %+v, want %+v", sink.hdr, hdr)
	}
	if len(sink.entries) != 1 || len(sink.entries[0]) != 2 {
		t.Fatalf("backend saw %v", sink.entries)
	}
	if !bytes.Equal(sink.entries[0][0].Frame, entries[0].Frame) {
		t.Fatal("frame bytes did not survive the wire")
	}

	// Per-entry refusals ride the status vector, not the error.
	sink.status = StatusDiverged
	statuses, err = init.ReplicaWriteStripe(3, 0, 0, hdr, entries[:1])
	if err != nil {
		t.Fatalf("stripe push: %v", err)
	}
	if statuses[0] != StatusDiverged {
		t.Fatalf("status %v, want DIVERGED", statuses[0])
	}
}

// A stripe pushed at a backend without stripe support must be refused,
// not misapplied.
func TestStripeRefusedByPlainBackend(t *testing.T) {
	store, err := block.NewMem(512, 16)
	if err != nil {
		t.Fatal(err)
	}
	init := stripeTestSession(t, &StoreBackend{Store: store})
	_, err = init.ReplicaWriteStripe(3, 0, 0, StripeHeader{K: 1, N: 2, Idx: 0},
		[]BatchEntry{{Seq: 1, LBA: 0, Frame: []byte("x")}})
	if err == nil {
		t.Fatal("plain backend accepted a stripe push")
	}
}

// Opcode 14, the retired v6 repair-chain hop, keeps its slot — later
// opcodes do not move — and a target answers it like any unknown
// opcode: StatusBadRequest, with the session still serving the next
// command.
func TestRetiredOpcode14(t *testing.T) {
	if OpReplicaWriteByRef != 15 {
		t.Fatalf("OpReplicaWriteByRef = %d, want 15: opcode 14's slot must stay reserved", OpReplicaWriteByRef)
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
	roundTrip := func(bufs net.Buffers) *PDU {
		t.Helper()
		if _, err := writeOnce(client, bufs); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadPDU(client)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	frame := func(p *PDU) net.Buffers {
		t.Helper()
		bufs, err := p.buffers()
		if err != nil {
			t.Fatal(err)
		}
		return bufs
	}
	if resp := roundTrip(frame(&PDU{Op: OpLoginReq, ITT: 1, Data: encodeLoginReq("r")})); resp.Status != StatusOK {
		t.Fatalf("login: %v", resp.Status)
	}

	// A v6 PDU with opcode 14 and an opaque payload, as a chain
	// coordinator framed it.
	chain := &PDU{Op: Opcode(14), ITT: 2, Data: bytes.Repeat([]byte{0xaa}, 22)}
	bufs := frame(chain)
	hdr := bufs[0]
	hdr[1] = stripeVersion
	binary.BigEndian.PutUint32(hdr[44:], 0)
	binary.BigEndian.PutUint32(hdr[44:], digest(hdr, chain.Data))
	if resp := roundTrip(bufs); resp.ITT != 2 || resp.Status != StatusBadRequest {
		t.Fatalf("opcode 14: ITT %d status %v, want 2 BAD-REQUEST", resp.ITT, resp.Status)
	}

	resp := roundTrip(frame(&PDU{Op: OpHashCmd, ITT: 3, LBA: 0, Blocks: 2}))
	if resp.ITT != 3 || resp.Status != StatusOK || len(resp.Data) != 2*HashSize {
		t.Fatalf("HASH after opcode 14: ITT %d status %v, %d bytes", resp.ITT, resp.Status, len(resp.Data))
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
