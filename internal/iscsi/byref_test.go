package iscsi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// mixedEntries builds a by-ref batch interleaving by-value frames and
// pure references, the shape one by-ref PDU carries when only some queued
// frames hit the primary's dedupe index.
func mixedEntries() []BatchEntry {
	return []BatchEntry{
		{Seq: 1, LBA: 10, Hash: 0xAAAA, Frame: []byte{1, 2, 3, 4}},
		{Seq: 2, LBA: 11, Hash: 0xBBBB, Frame: nil}, // by-ref
		{Seq: 3, LBA: 12, Hash: 0xCCCC, Frame: bytes.Repeat([]byte{7}, 300)},
		{Seq: 4, LBA: 13, Hash: 0xDDDD, Frame: nil}, // by-ref
	}
}

func TestByRefSegmentRoundTrip(t *testing.T) {
	entries := mixedEntries()
	data, err := EncodeByRef(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != BatchWireLen(entries) {
		t.Errorf("encoded %d bytes, BatchWireLen says %d", len(data), BatchWireLen(entries))
	}
	got, err := DecodeByRef(data)
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
		if g.ByRef() != (len(e.Frame) == 0) {
			t.Errorf("entry %d: ByRef() = %v", i, g.ByRef())
		}
	}
}

func TestEncodeByRefRejectsHashlessRef(t *testing.T) {
	// A by-ref entry with no content hash is unmaterializable.
	if _, err := EncodeByRef([]BatchEntry{{Seq: 1, LBA: 2, Hash: 0, Frame: nil}}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("hashless by-ref entry: err = %v, want ErrBadFrame", err)
	}
	// A by-value entry with hash 0 (unverified push) stays legal.
	if _, err := EncodeByRef([]BatchEntry{{Seq: 1, LBA: 2, Hash: 0, Frame: []byte{9}}}); err != nil {
		t.Errorf("hashless by-value entry: err = %v", err)
	}
}

// hashlessRef is an entry list of one by-ref entry (no frame) whose
// content hash is zero: nothing a replica could materialize.
func hashlessRef() []byte {
	return appendEntryHeader(countOf(1), &BatchEntry{}, &BatchEntry{Seq: 5, LBA: 2})
}

func TestDecodeByRefErrors(t *testing.T) {
	valid, err := EncodeByRef(mixedEntries())
	if err != nil {
		t.Fatal(err)
	}
	tests := append(entryListErrorCases(valid), decodeCase{"hashless by-ref entry", hashlessRef(), ErrBadFrame})
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeByRef(tt.data); !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}
	// The same segment is a legal batch: there a frameless entry is an
	// empty frame, not a reference.
	if _, err := DecodeBatch(hashlessRef()); err != nil {
		t.Errorf("DecodeBatch refused an empty-frame entry: %v", err)
	}
}

func TestRefMissStatusErr(t *testing.T) {
	err := ReplicaStatusErr(3, StatusRefMiss)
	if !errors.Is(err, ErrStatus) || !errors.Is(err, ErrRefMiss) {
		t.Errorf("ref-miss entry error %v must wrap ErrStatus and ErrRefMiss", err)
	}
	if StatusRefMiss.String() != "REF-MISS" {
		t.Errorf("StatusRefMiss.String() = %q", StatusRefMiss.String())
	}
}

// byRefSink implements ByRefBackend and records the by-ref batches it
// is handed, with optional per-LBA status overrides.
type byRefSink struct {
	replicaSink
	byref  [][]BatchEntry
	shards []uint8
	vols   []uint16
}

func (s *byRefSink) HandleReplicaByRef(mode, shard uint8, vol uint16, entries []BatchEntry) []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	copied := make([]BatchEntry, len(entries))
	for i, e := range entries {
		copied[i] = e
		copied[i].Frame = append([]byte(nil), e.Frame...)
	}
	s.byref = append(s.byref, copied)
	s.shards = append(s.shards, shard)
	s.vols = append(s.vols, vol)
	statuses := make([]Status, len(entries))
	for i, e := range entries {
		if st, ok := s.status[e.LBA]; ok {
			statuses[i] = st
		}
	}
	return statuses
}

// TestByRefDispatch: a by-ref-aware backend receives the whole mixed
// batch in one HandleReplicaByRef call with the stream tag intact, and
// the per-entry status vector comes back in entry order.
func TestByRefDispatch(t *testing.T) {
	sink := &byRefSink{replicaSink: replicaSink{status: map[uint64]Status{11: StatusRefMiss}}}
	init, _ := startRecordedPair(t, sink)

	entries := mixedEntries()
	statuses, err := init.ReplicaWriteByRef(2, 3, 7, entries)
	if err != nil {
		t.Fatal(err)
	}
	want := []Status{StatusOK, StatusRefMiss, StatusOK, StatusOK}
	for i := range want {
		if statuses[i] != want[i] {
			t.Errorf("status %d = %v, want %v", i, statuses[i], want[i])
		}
	}
	if len(sink.byref) != 1 || len(sink.byref[0]) != len(entries) {
		t.Fatalf("backend saw %d by-ref batches, want 1 x %d entries", len(sink.byref), len(entries))
	}
	if sink.shards[0] != 3 || sink.vols[0] != 7 {
		t.Errorf("stream tag = (shard %d, vol %d), want (3, 7)", sink.shards[0], sink.vols[0])
	}
	for i, e := range entries {
		g := sink.byref[0][i]
		if g.Seq != e.Seq || g.LBA != e.LBA || g.Hash != e.Hash || !bytes.Equal(g.Frame, e.Frame) {
			t.Errorf("delivered entry %d: got %+v, want %+v", i, g, e)
		}
	}
	if len(sink.applied) != 0 {
		t.Errorf("by-ref batch leaked %d per-entry fallback applies", len(sink.applied))
	}
}

// TestByRefAgainstLegacyBackend: a replica without a content index
// cannot materialize references — the target refuses the whole PDU
// rather than guessing, and nothing reaches the backend.
func TestByRefAgainstLegacyBackend(t *testing.T) {
	sink := &replicaSink{}
	init, _ := startRecordedPair(t, sink)

	_, err := init.ReplicaWriteByRef(2, 0, 0, mixedEntries())
	if !errors.Is(err, ErrStatus) {
		t.Fatalf("by-ref push at a v4 backend: err = %v, want ErrStatus", err)
	}
	if len(sink.applied) != 0 {
		t.Errorf("refused by-ref push reached the backend (%d applies)", len(sink.applied))
	}
}

// TestByRefWireStampedV8: the vectored send path emits a PDU stamped
// with the entry-list protocol version whose data segment is
// byte-identical to a contiguously encoded one — the vectored
// optimization must be invisible on the wire.
func TestByRefWireStampedV8(t *testing.T) {
	sink := &byRefSink{}
	init, rec := startRecordedPair(t, sink)

	entries := mixedEntries()
	if _, err := init.ReplicaWriteByRef(2, 1, 5, entries); err != nil {
		t.Fatal(err)
	}
	wire := rec.take()
	if len(wire) < headerLen {
		t.Fatalf("captured %d wire bytes", len(wire))
	}
	if wire[0] != protoMagic || wire[1] != entryListVersion || wire[2] != byte(OpReplicaWriteByRef) {
		t.Errorf("header = magic %#x version %d op %d, want magic %#x version %d op %d",
			wire[0], wire[1], wire[2], protoMagic, entryListVersion, byte(OpReplicaWriteByRef))
	}
	seg, err := EncodeByRef(entries)
	if err != nil {
		t.Fatal(err)
	}
	if dl := binary.BigEndian.Uint32(wire[24:]); int(dl) != len(seg) {
		t.Errorf("declared data length %d, contiguous encoding is %d bytes", dl, len(seg))
	}
	if !bytes.Equal(wire[headerLen:headerLen+len(seg)], seg) {
		t.Error("vectored by-ref segment differs from contiguous encoding")
	}
	// The whole request must also pass the generic PDU reader (digest
	// included).
	pdu, err := ReadPDU(bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("vectored by-ref PDU unreadable: %v", err)
	}
	if pdu.Op != OpReplicaWriteByRef || pdu.Shard != 1 || pdu.Vol != 5 {
		t.Errorf("reparsed PDU = op %v shard %d vol %d", pdu.Op, pdu.Shard, pdu.Vol)
	}
}

// TestByRefMalformedSegmentRejected: a hand-corrupted by-ref segment is
// refused at the target before any backend dispatch.
func TestByRefMalformedSegmentRejected(t *testing.T) {
	sink := &byRefSink{}
	init, _ := startRecordedPair(t, sink)

	// A hashless by-ref entry is refused by the initiator's own encoder
	// and, fed raw, by the decoder the target runs.
	bad := hashlessRef()
	_, err := init.ReplicaWriteByRef(2, 0, 0, []BatchEntry{{Seq: 1, LBA: 2, Hash: 0, Frame: nil}})
	if !errors.Is(err, ErrBadFrame) {
		t.Errorf("initiator accepted a hashless by-ref entry: %v", err)
	}
	if got, derr := DecodeByRef(bad); derr == nil {
		t.Errorf("decoder accepted hashless by-ref segment: %+v", got)
	}
	if len(sink.byref) != 0 {
		t.Errorf("malformed by-ref push reached the backend")
	}
}
