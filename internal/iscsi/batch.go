package iscsi

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"slices"
)

// Batch wire format (proto v4). The data segment of an
// OpReplicaWriteBatch PDU is a count-prefixed sequence of replication
// pushes, each the {seq, lba, hash, frame} tuple a single
// OpReplicaWrite would have carried in its header and data segment:
//
//	off 0: count (uint32)
//	then, per entry:
//	  off +0 : seq      (uint64)
//	  off +8 : lba      (uint64)
//	  off +16: hash     (uint64)  content hash of the decoded new block
//	  off +24: frameLen (uint32)
//	  off +28: frame    (frameLen bytes, an xcode frame)
//
// The response is an OpResp whose data segment holds one status byte
// per entry, in entry order, so a single diverged block reports its
// own StatusDiverged without failing its batch-mates. The response's
// header-level Status covers the transport/decode layer only.
const (
	// batchCountLen prefixes the data segment with the entry count.
	batchCountLen = 4
	// batchEntryLen is the fixed per-entry header: seq, lba, hash,
	// frameLen.
	batchEntryLen = 28
	// MaxBatchFrames bounds the entries in one OpReplicaWriteBatch.
	MaxBatchFrames = 4096
)

// BatchEntry is one replication push inside an OpReplicaWriteBatch:
// the same seq/lba/hash/frame tuple ReplicaWrite ships one at a time.
type BatchEntry struct {
	Seq   uint64
	LBA   uint64
	Hash  uint64
	Frame []byte
}

// BatchBackend is the optional batching extension of Backend. A target
// hands a decoded batch to HandleReplicaBatch when the backend
// implements it; otherwise it falls back to per-entry HandleReplica
// calls, so an un-upgraded backend behind an upgraded target still
// works. Implementations return exactly one status per entry, in
// entry order.
type BatchBackend interface {
	Backend
	HandleReplicaBatch(mode uint8, entries []BatchEntry) []Status
}

// StreamBatchBackend extends BatchBackend with stream-tagged batches:
// the whole batch belongs to one (vol, shard) replication stream — a
// sharded primary ships each shard's pipeline as its own batches, so
// the tag rides once in the PDU header rather than per entry.
type StreamBatchBackend interface {
	StreamBackend
	HandleReplicaBatchStream(mode, shard uint8, vol uint16, entries []BatchEntry) []Status
}

// entryListLen validates an entry list against the protocol bounds and
// returns its data-segment length. With refs set the list is a by-ref
// push, where an entry without a frame must carry a nonzero content
// hash — the hash is the only thing the replica can materialize from.
func entryListLen(entries []BatchEntry, refs bool) (int, error) {
	if len(entries) == 0 {
		return 0, fmt.Errorf("iscsi: empty replica batch")
	}
	if len(entries) > MaxBatchFrames {
		return 0, fmt.Errorf("%w: batch of %d entries", ErrTooLarge, len(entries))
	}
	n := BatchWireLen(entries)
	if n > MaxDataSegment {
		return 0, fmt.Errorf("%w: batch of %d bytes", ErrTooLarge, n)
	}
	for k := range entries {
		if refs && entries[k].ByRef() && entries[k].Hash == 0 {
			return 0, fmt.Errorf("%w: by-ref entry %d without content hash", ErrBadFrame, k)
		}
	}
	return n, nil
}

// BatchWireLen returns the data-segment bytes a batch of entries
// occupies on the wire (header PDU excluded); used for modelled wire
// accounting.
func BatchWireLen(entries []BatchEntry) int {
	n := batchCountLen
	for _, e := range entries {
		n += batchEntryLen + len(e.Frame)
	}
	return n
}

// entryListMeta builds everything of an entry list's data segment but
// the frames, contiguously: the count and every fixed-size entry
// header. Entry k's header starts at batchCountLen + k*batchEntryLen;
// the frames interleave from the caller's buffers.
func entryListMeta(entries []BatchEntry) []byte {
	meta := make([]byte, batchCountLen+batchEntryLen*len(entries))
	binary.BigEndian.PutUint32(meta, uint32(len(entries)))
	off := batchCountLen
	for _, e := range entries {
		binary.BigEndian.PutUint64(meta[off:], e.Seq)
		binary.BigEndian.PutUint64(meta[off+8:], e.LBA)
		binary.BigEndian.PutUint64(meta[off+16:], e.Hash)
		binary.BigEndian.PutUint32(meta[off+24:], uint32(len(e.Frame)))
		off += batchEntryLen
	}
	return meta
}

// entryListBufs lays an entry list's data segment out in wire order
// without copying a frame: meta (see entryListMeta) is cut at the entry
// header boundaries and the caller's frames slot in between. The first
// piece carries the count with entry 0's header.
func entryListBufs(bufs net.Buffers, meta []byte, entries []BatchEntry) net.Buffers {
	start, end := 0, len(meta)-batchEntryLen*(len(entries)-1)
	for _, e := range entries {
		bufs = append(bufs, meta[start:end])
		if len(e.Frame) > 0 {
			bufs = append(bufs, e.Frame)
		}
		start, end = end, end+batchEntryLen
	}
	return bufs
}

// encodeEntryList assembles the contiguous data segment of an entry
// list. The initiator's send path does not use it (it writes the same
// pieces vectored, without assembling a copy); it serves tests, fuzz
// seeds, and callers that need the segment as one buffer.
func encodeEntryList(entries []BatchEntry, refs bool) ([]byte, error) {
	dataLen, err := entryListLen(entries, refs)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, dataLen)
	for _, piece := range entryListBufs(nil, entryListMeta(entries), entries) {
		buf = append(buf, piece...)
	}
	return buf, nil
}

// decodeEntryList parses the count-prefixed entry sequence every
// entry-list opcode carries, into entries' backing array when it has
// room (a session reuses one from PDU to PDU; nil allocates). Frames
// alias data (no copies); the caller
// owns data until the entries are consumed. Decoding is strict and
// bounded: the declared count must be in (0, MaxBatchFrames] and
// plausible for the buffer size before anything is allocated, every
// entry must be fully present, trailing bytes are rejected, and with
// refs set (a by-ref push) an entry without a frame must name a nonzero
// content hash. Truncation reports ErrShortFrame and structural
// violations report ErrBadFrame — hostile input never panics or
// over-allocates.
func decodeEntryList(entries []BatchEntry, data []byte, refs bool) ([]BatchEntry, error) {
	if len(data) < batchCountLen {
		return nil, fmt.Errorf("%w: batch segment of %d bytes", ErrShortFrame, len(data))
	}
	count := binary.BigEndian.Uint32(data)
	if count == 0 || count > MaxBatchFrames {
		return nil, fmt.Errorf("%w: batch count %d", ErrBadFrame, count)
	}
	if uint64(len(data)-batchCountLen) < uint64(count)*batchEntryLen {
		return nil, fmt.Errorf("%w: %d entries cannot fit in %d bytes", ErrShortFrame, count, len(data))
	}
	entries = slices.Grow(entries[:0], int(count))
	off := batchCountLen
	for k := uint32(0); k < count; k++ {
		if len(data)-off < batchEntryLen {
			return nil, fmt.Errorf("%w: batch entry %d header", ErrShortFrame, k)
		}
		e := BatchEntry{
			Seq:  binary.BigEndian.Uint64(data[off:]),
			LBA:  binary.BigEndian.Uint64(data[off+8:]),
			Hash: binary.BigEndian.Uint64(data[off+16:]),
		}
		frameLen := binary.BigEndian.Uint32(data[off+24:])
		off += batchEntryLen
		if refs && frameLen == 0 && e.Hash == 0 {
			return nil, fmt.Errorf("%w: by-ref entry %d without content hash", ErrBadFrame, k)
		}
		if uint64(frameLen) > uint64(len(data)-off) {
			return nil, fmt.Errorf("%w: batch entry %d frame of %d bytes", ErrShortFrame, k, frameLen)
		}
		e.Frame = data[off : off+int(frameLen)]
		off += int(frameLen)
		entries = append(entries, e)
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", ErrBadFrame, len(data)-off)
	}
	return entries, nil
}

// EncodeBatch assembles the contiguous data segment for a batch.
func EncodeBatch(entries []BatchEntry) ([]byte, error) {
	return encodeEntryList(entries, false)
}

// DecodeBatch parses the data segment of an OpReplicaWriteBatch PDU
// (see decodeEntryList for the bounds it enforces).
func DecodeBatch(data []byte) ([]BatchEntry, error) { return decodeEntryList(nil, data, false) }

// EncodeBatchStatuses packs a batch response's per-entry status
// vector: one status byte per entry, in entry order.
func EncodeBatchStatuses(statuses []Status) []byte {
	out := make([]byte, len(statuses))
	for i, s := range statuses {
		out[i] = byte(s)
	}
	return out
}

// DecodeBatchStatuses unpacks a batch response's status vector and
// checks it covers exactly want entries.
func DecodeBatchStatuses(data []byte, want int) ([]Status, error) {
	if len(data) != want {
		return nil, fmt.Errorf("%w: batch response carries %d statuses, want %d", ErrShortFrame, len(data), want)
	}
	out := make([]Status, want)
	for i, b := range data {
		out[i] = Status(b)
	}
	return out, nil
}

// ReplicaStatusErr converts a per-entry batch status into the same
// error a single-frame ReplicaWrite round trip would have returned,
// typed sentinel included, so engines treat batched and unbatched
// apply failures uniformly. Only meaningful for non-OK statuses.
func ReplicaStatusErr(lba uint64, st Status) error {
	return statusErr("replica-write", lba, st)
}

// entryListPDU frames one entry-list PDU for the wire — p names the
// opcode, mode, stream tag and task tag; OpReplicaWriteBatch and
// OpReplicaWriteByRef both frame here — without assembling a contiguous
// copy of the payload: the header, the entry metadata, and the caller's
// frames are returned as pieces in wire order. The digest streams over
// the pieces, so the bytes are indistinguishable from a
// contiguously-built PDU.
func entryListPDU(p *PDU, entries []BatchEntry) (net.Buffers, error) {
	dataLen, err := entryListLen(entries, p.Op == OpReplicaWriteByRef)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, headerLen)
	p.putHeader(hdr, dataLen)
	bufs := make(net.Buffers, 1, 1+2*len(entries))
	bufs[0] = hdr
	bufs = entryListBufs(bufs, entryListMeta(entries), entries)

	crc := uint32(0)
	for _, piece := range bufs { // putHeader left the digest field zero, as digest() requires
		crc = crc32.Update(crc, castagnoli, piece)
	}
	binary.BigEndian.PutUint32(hdr[44:], crc)
	return bufs, nil
}

// pushEntryList sends one entry-list PDU (see entryListPDU) and
// returns the per-entry status vector of its response. A transport or
// protocol failure returns an error and no statuses; per-entry apply
// failures (diverged, decode, store, ref-miss) come back in the vector
// — convert them with ReplicaStatusErr. Like every request, the push
// is resent once over a fresh session when reconnection is armed
// (replica seq-dedupe makes redelivery safe).
func (i *Initiator) pushEntryList(p PDU, entries []BatchEntry) ([]Status, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("iscsi: empty %v push", p.Op)
	}
	resp, err := i.exchange(nil, func(itt uint32) (net.Buffers, error) {
		p.ITT = itt
		return entryListPDU(&p, entries)
	})
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, fmt.Errorf("%w: %v of %d: %v", ErrStatus, p.Op, len(entries), resp.Status)
	}
	return DecodeBatchStatuses(resp.Data, len(entries))
}

// ReplicaWriteBatch pushes several replication frames in one round
// trip and returns one status per entry, in entry order (see
// pushEntryList). A batch of one is sent as a plain v3 OpReplicaWrite,
// byte-identical to unbatched shipping, so un-upgraded replicas
// interoperate.
func (i *Initiator) ReplicaWriteBatch(mode uint8, entries []BatchEntry) ([]Status, error) {
	return i.ReplicaWriteBatchStream(mode, 0, 0, entries)
}

// ReplicaWriteBatchStream is ReplicaWriteBatch tagged with a
// (vol, shard) replication stream: the whole batch applies against
// that stream's sequence space on the replica, so a sharded primary
// can interleave per-shard batches over one session. A zero tag is
// byte-identical to ReplicaWriteBatch.
func (i *Initiator) ReplicaWriteBatchStream(mode, shard uint8, vol uint16, entries []BatchEntry) ([]Status, error) {
	if len(entries) == 1 {
		e := entries[0]
		resp, err := i.roundTrip(&PDU{Op: OpReplicaWrite, Mode: mode, Shard: shard, Vol: vol, Seq: e.Seq, LBA: e.LBA, Hash: e.Hash, Data: e.Frame})
		if err != nil {
			return nil, err
		}
		return []Status{resp.Status}, nil
	}
	return i.pushEntryList(PDU{Op: OpReplicaWriteBatch, Mode: mode, Shard: shard, Vol: vol}, entries)
}
