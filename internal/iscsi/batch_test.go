package iscsi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"prins/internal/wan"
)

// testEntries builds a small batch with varied frame sizes, including
// an empty frame (a legal xcode frame can be tiny, and frameLen == 0
// must round-trip).
func testEntries() []BatchEntry {
	return []BatchEntry{
		{Seq: 1, LBA: 10, Hash: 0xAAAA, Frame: []byte{1, 2, 3, 4}},
		{Seq: 2, LBA: 11, Hash: 0xBBBB, Frame: nil},
		{Seq: 3, LBA: 10, Hash: 0xCCCC, Frame: bytes.Repeat([]byte{7}, 300)},
	}
}

func TestBatchSegmentRoundTrip(t *testing.T) {
	entries := testEntries()
	data, err := EncodeBatch(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != BatchWireLen(entries) {
		t.Errorf("encoded %d bytes, BatchWireLen says %d", len(data), BatchWireLen(entries))
	}
	got, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i, e := range entries {
		g := got[i]
		if g.Seq != e.Seq || g.LBA != e.LBA || g.Hash != e.Hash || !bytes.Equal(g.Frame, e.Frame) {
			t.Errorf("entry %d: got %+v, want %+v", i, g, e)
		}
	}
}

func TestEncodeBatchBounds(t *testing.T) {
	if _, err := EncodeBatch(nil); err == nil {
		t.Error("empty batch encoded")
	}
	if _, err := EncodeBatch(make([]BatchEntry, MaxBatchFrames+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized batch: err = %v, want ErrTooLarge", err)
	}
	// Payload over MaxDataSegment is rejected even with a legal count.
	big := []BatchEntry{{Frame: make([]byte, MaxDataSegment)}}
	if _, err := EncodeBatch(big); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized payload: err = %v, want ErrTooLarge", err)
	}
}

// countOf is the data segment of an entry list that declares n entries
// and holds nothing else.
func countOf(n uint64) []byte { return binary.AppendUvarint(nil, n) }

// overlong is a 10-byte encoding of 1: a uvarint binary.Uvarint reads,
// in no shortest form.
var overlong = []byte{0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}

// decodeCase is a malformed segment and the sentinel its decoder must
// report.
type decodeCase struct {
	name string
	data []byte
	want error
}

// entryListErrorCases are the malformed segments both entry-list
// decoders refuse.
func entryListErrorCases(valid []byte) []decodeCase {
	// One entry whose seq delta takes three bytes and whose frame length
	// is missing: it passes the count's fit check and is cut short.
	noFrameLen := append(countOf(1), 0x80, 0x80, 0x01, 0x02)
	noFrameLen = append(noFrameLen, make([]byte, HashSize)...)
	nonMinimalSeq := append(countOf(1), 0x82, 0x00, 0x02)
	nonMinimalSeq = append(nonMinimalSeq, make([]byte, HashSize+1)...)
	return []decodeCase{
		{"nil", nil, ErrShortFrame},
		{"short count", []byte{0x80}, ErrShortFrame},
		{"zero count", countOf(0), ErrBadFrame},
		{"count over cap", countOf(MaxBatchFrames + 1), ErrBadFrame},
		{"huge count", countOf(0xFFFFFFFF), ErrBadFrame},
		{"overlong count", overlong, ErrBadFrame},
		{"overflowing count", bytes.Repeat([]byte{0xFF}, 11), ErrBadFrame},
		{"count without entries", countOf(2), ErrShortFrame},
		{"count whose minimal body cannot fit", append(countOf(2), make([]byte, 2*minEntryLen-1)...), ErrShortFrame},
		{"truncated entry header", noFrameLen, ErrShortFrame},
		{"non-minimal seq delta", nonMinimalSeq, ErrBadFrame},
		{"truncated frame", valid[:len(valid)-1], ErrShortFrame},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xEE), ErrBadFrame},
	}
}

func TestDecodeBatchErrors(t *testing.T) {
	valid, err := EncodeBatch(testEntries())
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range entryListErrorCases(valid) {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeBatch(tt.data); !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

// TestEntryListDeltaCoding: seq and LBA ride as signed deltas from the
// previous entry, so a seq that wraps and LBAs that descend round-trip,
// a run of consecutive seqs at nearby LBAs costs minEntryLen per
// reference, and EntryHeaderLen is what the encoder spends.
func TestEntryListDeltaCoding(t *testing.T) {
	entries := []BatchEntry{
		{Seq: ^uint64(0), LBA: 1 << 40, Hash: 1, Frame: []byte{9, 9}},
		{Seq: 0, LBA: 1<<40 - 3, Hash: 2},
		{Seq: 1, LBA: 7, Hash: 3},
		{Seq: 2, LBA: 8, Hash: 4},
	}
	data, err := EncodeBatch(entries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if g := got[i]; g.Seq != e.Seq || g.LBA != e.LBA || g.Hash != e.Hash || !bytes.Equal(g.Frame, e.Frame) {
			t.Errorf("entry %d: got %+v, want %+v", i, g, e)
		}
	}
	want := uvarintLen(uint64(len(entries)))
	for k := range entries {
		var prev *BatchEntry
		if k > 0 {
			prev = &entries[k-1]
		}
		want += EntryHeaderLen(prev, &entries[k]) + len(entries[k].Frame)
	}
	if len(data) != want || len(data) != BatchWireLen(entries) {
		t.Errorf("encoded %d bytes; EntryHeaderLen sums to %d, BatchWireLen says %d", len(data), want, BatchWireLen(entries))
	}
	// The wrap (2^64-1 -> 0) and the next seq each cost a one-byte delta.
	if n := EntryHeaderLen(&entries[0], &entries[1]); n != minEntryLen {
		t.Errorf("wrapping seq, LBA 3 back: %d header bytes, want %d", n, minEntryLen)
	}
	if n := EntryHeaderLen(&entries[2], &entries[3]); n != minEntryLen {
		t.Errorf("next seq, next LBA: %d header bytes, want %d", n, minEntryLen)
	}
}

func TestBatchStatusVector(t *testing.T) {
	in := []Status{StatusOK, StatusDiverged, StatusOK, StatusStoreError}
	out, err := DecodeBatchStatuses(EncodeBatchStatuses(in), len(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("status %d: got %v, want %v", i, out[i], in[i])
		}
	}
	if _, err := DecodeBatchStatuses(EncodeBatchStatuses(in), 5); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short vector: err = %v, want ErrShortFrame", err)
	}
}

func TestReplicaStatusErr(t *testing.T) {
	err := ReplicaStatusErr(42, StatusDiverged)
	if !errors.Is(err, ErrStatus) || !errors.Is(err, ErrDiverged) {
		t.Errorf("diverged entry error %v must wrap ErrStatus and ErrDiverged", err)
	}
	if err := ReplicaStatusErr(1, StatusStoreError); !errors.Is(err, ErrReplicaStore) {
		t.Errorf("store entry error %v must wrap ErrReplicaStore", err)
	}
}

// replicaSink is a Backend that handles single replica pushes only and
// does not implement StreamBatchBackend.
type replicaSink struct {
	mu      sync.Mutex
	applied []BatchEntry
	modes   []uint8
	status  map[uint64]Status // per-LBA status override; default OK
}

func (s *replicaSink) Geometry() (int, uint64)           { return 512, 1024 }
func (s *replicaSink) HandleRead(uint64, []byte) Status  { return StatusBadRequest }
func (s *replicaSink) HandleWrite(uint64, []byte) Status { return StatusBadRequest }

func (s *replicaSink) HandleReplicaStream(mode, _ uint8, _ uint16, seq, lba, hash uint64, frame []byte) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied = append(s.applied, BatchEntry{Seq: seq, LBA: lba, Hash: hash, Frame: append([]byte(nil), frame...)})
	s.modes = append(s.modes, mode)
	if st, ok := s.status[lba]; ok {
		return st
	}
	return StatusOK
}

// batchSink additionally implements StreamBatchBackend and records
// whole batches.
type batchSink struct {
	replicaSink
	batches [][]BatchEntry
}

func (s *batchSink) HandleReplicaBatchStream(mode, _ uint8, _ uint16, entries []BatchEntry) []Status {
	s.mu.Lock()
	copied := make([]BatchEntry, len(entries))
	for i, e := range entries {
		copied[i] = e
		copied[i].Frame = append([]byte(nil), e.Frame...)
	}
	s.batches = append(s.batches, copied)
	s.mu.Unlock()
	statuses := make([]Status, len(entries))
	for i, e := range entries {
		s.mu.Lock()
		if st, ok := s.status[e.LBA]; ok {
			statuses[i] = st
		}
		s.mu.Unlock()
	}
	return statuses
}

// recordingConn tees everything written through it into a buffer so
// tests can compare wire bytes.
type recordingConn struct {
	net.Conn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.buf.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recordingConn) take() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]byte(nil), c.buf.Bytes()...)
	c.buf.Reset()
	return out
}

// startRecordedPair wires an initiator to a backend over net.Pipe with
// a wire recorder in between, logs in, and clears the recorder.
func startRecordedPair(t *testing.T, backend Backend) (*Initiator, *recordingConn) {
	t.Helper()
	target := NewTarget()
	target.Export("r", backend)
	client, server := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		target.ServeConn(server)
	}()
	rec := &recordingConn{Conn: client}
	init := NewInitiator(rec)
	t.Cleanup(func() {
		init.Close()
		wg.Wait()
	})
	if err := init.Login("r"); err != nil {
		t.Fatal(err)
	}
	rec.take()
	return init, rec
}

// TestBatchOfOneByteIdenticalToV3: a degenerate batch must leave the
// wire byte-for-byte identical to an unbatched v3 push, so a primary
// with batching on still interoperates with v3-only peers as long as
// no multi-frame batch forms.
func TestBatchOfOneByteIdenticalToV3(t *testing.T) {
	entry := BatchEntry{Seq: 9, LBA: 77, Hash: 0xFEED, Frame: []byte{5, 6, 7, 8, 9}}

	sinkA := &replicaSink{}
	initA, recA := startRecordedPair(t, sinkA)
	if err := initA.ReplicaWriteStream(2, 0, 0, entry.Seq, entry.LBA, entry.Hash, entry.Frame); err != nil {
		t.Fatal(err)
	}
	single := recA.take()

	sinkB := &replicaSink{}
	initB, recB := startRecordedPair(t, sinkB)
	statuses, err := initB.ReplicaWriteBatchStream(2, 0, 0, []BatchEntry{entry})
	if err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 1 || statuses[0] != StatusOK {
		t.Fatalf("statuses = %v, want [OK]", statuses)
	}
	batched := recB.take()

	if !bytes.Equal(single, batched) {
		t.Errorf("batch of one differs from v3 push on the wire:\n  v3:    %x\n  batch: %x", single, batched)
	}
	if len(batched) == 0 || batched[1] != baseVersion {
		t.Errorf("batch of one must be stamped baseVersion, header = %x", batched[:headerLen])
	}
}

// TestBatchBackendDispatch: a batch-aware backend receives the whole
// batch in one HandleReplicaBatchStream call.
func TestBatchBackendDispatch(t *testing.T) {
	sink := &batchSink{}
	init, _ := startRecordedPair(t, sink)

	entries := testEntries()
	statuses, err := init.ReplicaWriteBatchStream(3, 0, 0, entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(statuses) != len(entries) {
		t.Fatalf("%d statuses, want %d", len(statuses), len(entries))
	}
	if len(sink.batches) != 1 || len(sink.batches[0]) != len(entries) {
		t.Fatalf("backend saw %d batches, want 1 x %d entries", len(sink.batches), len(entries))
	}
	if len(sink.applied) != 0 {
		t.Errorf("batch-aware backend got %d per-entry fallback applies", len(sink.applied))
	}
}

// TestBatchMalformedSegmentRejected: a hand-corrupted batch segment is
// refused at the target with StatusBadRequest, surfaced to the caller
// as ErrStatus.
func TestBatchMalformedSegmentRejected(t *testing.T) {
	sink := &replicaSink{}
	target := NewTarget()
	target.Export("r", sink)
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

	login := &PDU{Op: OpLoginReq, ITT: 1, Data: encodeLoginReq("r")}
	if _, err := login.WriteTo(client); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPDU(client); err != nil {
		t.Fatal(err)
	}

	bad := &PDU{Op: OpReplicaWriteBatch, ITT: 2, Data: countOf(0)}
	if _, err := bad.WriteTo(client); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadPDU(client)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBadRequest {
		t.Errorf("status = %v, want BAD-REQUEST", resp.Status)
	}
	if len(sink.applied) != 0 {
		t.Errorf("malformed batch reached the backend (%d applies)", len(sink.applied))
	}
}

// TestBatchChargesLatencyOnce is the mechanism behind the batching
// speedup: over a shaped WAN conn, one batched push pays the one-way
// latency once, where the same frames shipped singly pay it once per
// push (header and data go out as one vectored send).
func TestBatchChargesLatencyOnce(t *testing.T) {
	sink := &batchSink{}
	target := NewTarget()
	target.Export("r", sink)
	client, server := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		target.ServeConn(server)
	}()

	shaped := wan.Shape(client, wan.LinkConfig{Latency: 20 * time.Millisecond})
	var mu sync.Mutex
	sleeps := 0
	shaped.SetSleep(func(time.Duration) {
		mu.Lock()
		sleeps++
		mu.Unlock()
	})
	init := NewInitiator(shaped)
	t.Cleanup(func() {
		init.Close()
		wg.Wait()
	})
	if err := init.Login("r"); err != nil {
		t.Fatal(err)
	}

	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return sleeps
	}

	const frames = 16
	entries := make([]BatchEntry, frames)
	for i := range entries {
		entries[i] = BatchEntry{Seq: uint64(i + 1), LBA: uint64(i), Frame: []byte{byte(i)}}
	}

	before := count()
	if _, err := init.ReplicaWriteBatchStream(1, 0, 0, entries); err != nil {
		t.Fatal(err)
	}
	if got := count() - before; got != 1 {
		t.Errorf("batched push slept %d times, want 1", got)
	}

	before = count()
	for _, e := range entries {
		if err := init.ReplicaWriteStream(1, 0, 0, e.Seq, e.LBA, e.Hash, e.Frame); err != nil {
			t.Fatal(err)
		}
	}
	if got := count() - before; got != frames {
		t.Errorf("%d single pushes slept %d times, want %d", frames, got, frames)
	}
}
