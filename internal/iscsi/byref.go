package iscsi

// References. Any entry list (batch.go), plain or squeezed, may carry
// an entry with a zero frameLen: it ships no frame at all, the 64-bit
// content hash IS the payload, and the replica materializes the block
// by copying one it already verifiably holds with that content. Entries
// with a nonzero frameLen carry normal xcode frames, so one PDU mixes
// references and by-value pushes while preserving the stream's seq
// order. A reference costs only its entry header (EntryHeaderLen): 11
// bytes for the next seq at a nearby LBA. A list that carries one goes
// out as OpReplicaWriteByRef, the opcode following the content; the
// target treats both opcodes alike. A replica with no content index
// answers every reference StatusRefMiss.
//
// The response is an OpResp whose data segment holds one status byte
// per entry, in entry order. A reference whose hash the replica
// cannot resolve reports StatusRefMiss — and so does every later
// entry of the PDU, applied or not: once one entry is refused the
// stream's seq cursor must not advance past it, or the initiator's
// by-value re-ship of the refused seq would be dropped as a
// duplicate. The initiator re-ships the whole refused suffix.

// ByRef reports whether an entry is a reference (no frame;
// materialize from the content hash).
func (e *BatchEntry) ByRef() bool { return len(e.Frame) == 0 }

// ByRefBackend is StreamBatchBackend under its old name, kept only
// for the benchmark module: a reference rides any entry list, so the
// list method takes it.
type ByRefBackend = StreamBatchBackend

// ReplicaWriteByRef is ReplicaWriteBatchStream, kept only for the
// benchmark module; nothing in this module calls it.
func (i *Initiator) ReplicaWriteByRef(mode, shard uint8, vol uint16, entries []BatchEntry) ([]Status, error) {
	return i.ReplicaWriteBatchStream(mode, shard, vol, entries)
}
