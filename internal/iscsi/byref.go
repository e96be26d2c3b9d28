package iscsi

// By-ref wire format (proto v7). The data segment of an
// OpReplicaWriteByRef PDU carries the same count-prefixed entry
// sequence an OpReplicaWriteBatch does, except an entry with a zero
// frameLen ships no frame at all: the 64-bit content hash IS the
// payload, and the replica materializes the block by copying one it
// already verifiably holds with that content. Entries with a nonzero
// frameLen carry normal xcode frames, so one PDU mixes by-ref and
// by-value pushes while preserving the stream's seq order:
//
//	off 0: count (uint32)
//	then, per entry:
//	  off +0 : seq      (uint64)
//	  off +8 : lba      (uint64)
//	  off +16: hash     (uint64)  content hash of the new block
//	  off +24: frameLen (uint32)  0 = by-ref, no frame follows
//	  off +28: frame    (frameLen bytes, an xcode frame)
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

// BatchEntryOverhead is the fixed per-entry metadata cost of a batch
// or by-ref entry on the wire (seq, lba, hash, frameLen) — what a
// by-ref push costs in place of its frame. Exported for the engine's
// dedupe savings accounting.
const BatchEntryOverhead = batchEntryLen

// ByRefBackend is the content-addressed extension of Backend: a
// replica that keeps a hash -> LBA-set index of its own contents and
// can materialize a pushed block by local copy. A by-ref push routed
// at a backend without it is refused with StatusBadRequest.
// Implementations return exactly one status per entry, in entry order.
type ByRefBackend interface {
	Backend
	HandleReplicaByRef(mode, shard uint8, vol uint16, entries []BatchEntry) []Status
}

// ByRefWireLen returns the data-segment bytes a by-ref batch of
// entries occupies on the wire (PDU header excluded); used for
// modelled wire accounting. A pure by-ref entry costs batchEntryLen
// (28) bytes instead of a frame.
func ByRefWireLen(entries []BatchEntry) int {
	return BatchWireLen(entries)
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
