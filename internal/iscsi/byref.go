package iscsi

// By-ref pushes. An OpReplicaWriteByRef PDU carries the same entry
// list an OpReplicaWriteBatch does (see batch.go), except an entry with
// a zero frameLen ships no frame at all: the 64-bit content hash IS the
// payload, and the replica materializes the block by copying one it
// already verifiably holds with that content. Entries with a nonzero
// frameLen carry normal xcode frames, so one PDU mixes by-ref and
// by-value pushes while preserving the stream's seq order. A by-ref
// entry costs only its entry header (EntryHeaderLen): 11 bytes for the
// next seq at a nearby LBA.
//
// The response is an OpResp whose data segment holds one status byte
// per entry, in entry order. A by-ref entry whose hash the replica
// cannot resolve reports StatusRefMiss — and so does every later
// entry of the PDU, applied or not: once one entry is refused the
// stream's seq cursor must not advance past it, or the initiator's
// by-value re-ship of the refused seq would be dropped as a
// duplicate. The initiator re-ships the whole refused suffix.

// ByRef reports whether a decoded entry is a by-ref push (no frame;
// materialize from the content hash).
func (e *BatchEntry) ByRef() bool { return len(e.Frame) == 0 }

// ByRefBackend is the content-addressed extension of Backend: a
// replica that keeps a hash -> LBA-set index of its own contents and
// can materialize a pushed block by local copy. A by-ref push routed
// at a backend without it is refused with StatusBadRequest.
// Implementations return exactly one status per entry, in entry order.
type ByRefBackend interface {
	Backend
	HandleReplicaByRef(mode, shard uint8, vol uint16, entries []BatchEntry) []Status
}

// EncodeByRef assembles the contiguous data segment for a by-ref
// push; every by-ref entry must carry a nonzero content hash.
func EncodeByRef(entries []BatchEntry) ([]byte, error) {
	return encodeEntryList(entries, true)
}

// DecodeByRef parses the data segment of an OpReplicaWriteByRef PDU:
// DecodeBatch's bounds, plus every by-ref entry (zero frameLen) must
// name a nonzero content hash (see decodeEntryList).
func DecodeByRef(data []byte) ([]BatchEntry, error) { return decodeEntryList(nil, data, true) }

// ReplicaWriteByRef pushes a mixed by-ref/by-value batch for the
// (vol, shard) replication stream in one round trip and returns one
// status per entry, in entry order (see pushEntryList); StatusRefMiss
// marks references the replica could not resolve.
func (i *Initiator) ReplicaWriteByRef(mode, shard uint8, vol uint16, entries []BatchEntry) ([]Status, error) {
	return i.pushEntryList(PDU{Op: OpReplicaWriteByRef, Mode: mode, Shard: shard, Vol: vol}, entries)
}
