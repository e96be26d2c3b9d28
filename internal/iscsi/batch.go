package iscsi

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"net"
	"slices"
)

// Entry-list wire format (proto v8). The data segment of an
// OpReplicaWriteBatch or OpReplicaWriteByRef PDU is a count-prefixed
// sequence of replication pushes, each the {seq, lba, hash, frame}
// tuple a single OpReplicaWrite would have carried in its header and
// data segment, with seq and LBA coded as deltas from the previous
// entry's:
//
//	count    (uvarint)
//	then, per entry:
//	  seq      (varint)  seq - the previous entry's seq (the first entry's: - 0)
//	  lba      (varint)  lba - the previous entry's lba (the first entry's: - 0)
//	  hash     (uint64)  content hash of the decoded new block
//	  frameLen (uvarint) 0 = a reference: no frame, the hash is the payload
//	  frame    (frameLen bytes, an xcode frame)
//
// Both opcodes carry this one list, under one rule: an entry with no
// frame is a reference (byref.go), whose hash must be nonzero, and any
// other entry carries its frame. The opcode follows the content: an
// initiator sends OpReplicaWriteByRef for a list that holds a
// reference and OpReplicaWriteBatch for one that does not, and a
// target decodes and applies both alike.
//
// The deltas are zigzag varints of the difference modulo 2^64, so a
// list imposes no order on its seqs or LBAs, and a seq that wraps costs
// one byte like any other step. A coalesced run — ascending seqs, LBAs
// of one working set — pays 11 to 15 header bytes per entry, which is
// all a by-ref entry costs. Every varint is in its shortest form, so a
// list has exactly one encoding.
//
// The response is an OpResp whose data segment holds one status byte
// per entry, in entry order, so a single diverged block reports its
// own StatusDiverged without failing its batch-mates. The response's
// header-level Status covers the transport/decode layer only.
const (
	// minEntryLen is the smallest entry on the wire: one-byte deltas,
	// the hash, and a one-byte zero frame length.
	minEntryLen = 1 + 1 + HashSize + 1
	// MaxBatchFrames bounds the entries in one entry list.
	MaxBatchFrames = 4096
)

// BatchEntry is one replication push inside an entry list: the same
// seq/lba/hash/frame tuple ReplicaWriteStream ships one at a time.
//
// Mask, when set, is a masked redo of the write Frame ships
// (xcode.AppendMask: a parity frame's zero runs with A_new's bytes for
// literals) and Check the hash it is verified against; a squeezed list
// ships them in place of Frame and Hash (see squeeze.go). Every other
// encoding ignores them, and a decoded entry never has them.
type BatchEntry struct {
	Seq   uint64
	LBA   uint64
	Hash  uint64
	Frame []byte
	Mask  []byte
	Check uint64
}

// StreamBatchBackend is the entry-list extension of Backend: the
// target hands it every decoded plain list, either opcode. The whole
// list belongs to one (vol, shard) replication stream — a sharded
// primary ships each shard's pipeline as its own lists, so the tag
// rides once in the PDU header rather than per entry — and any entry
// may be a reference (byref.go). A list at a backend without it is
// refused with StatusBadRequest. Implementations return exactly one
// status per entry, in entry order.
type StreamBatchBackend interface {
	Backend
	HandleReplicaBatchStream(mode, shard uint8, vol uint16, entries []BatchEntry) []Status
}

// BatchBackend is StreamBatchBackend under its old name, kept only
// for the benchmark module, which may not change in step with this
// package.
type BatchBackend = StreamBatchBackend

// uvarintLen returns the bytes binary.AppendUvarint spends on v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// deltaLen returns the bytes binary.AppendVarint spends on the delta
// from prev to cur.
func deltaLen(prev, cur uint64) int {
	d := int64(cur - prev)
	return uvarintLen(uint64(d<<1) ^ uint64(d>>63))
}

// EntryHeaderLen returns the bytes entry e occupies in an entry list
// right after prev (nil for the list's first entry), its frame
// excluded: the seq and LBA deltas, the hash, and the frame length. It
// is all a by-ref entry (no frame) costs.
func EntryHeaderLen(prev, e *BatchEntry) int {
	var seq, lba uint64
	if prev != nil {
		seq, lba = prev.Seq, prev.LBA
	}
	return deltaLen(seq, e.Seq) + deltaLen(lba, e.LBA) + HashSize + uvarintLen(uint64(len(e.Frame)))
}

// appendEntryHeader appends e's entry header, coded against prev.
func appendEntryHeader(dst []byte, prev, e *BatchEntry) []byte {
	dst = binary.AppendVarint(dst, int64(e.Seq-prev.Seq))
	dst = binary.AppendVarint(dst, int64(e.LBA-prev.LBA))
	dst = binary.BigEndian.AppendUint64(dst, e.Hash)
	return binary.AppendUvarint(dst, uint64(len(e.Frame)))
}

// entryListSize returns an entry list's data-segment bytes as meta,
// the count and every entry header, and frames, the frames' total.
func entryListSize(entries []BatchEntry) (meta, frames int) {
	meta = uvarintLen(uint64(len(entries)))
	var prev *BatchEntry
	for k := range entries {
		meta += EntryHeaderLen(prev, &entries[k])
		frames += len(entries[k].Frame)
		prev = &entries[k]
	}
	return meta, frames
}

// BatchWireLen returns the data-segment bytes an entry list occupies on
// the wire (header PDU excluded); used for modelled wire accounting.
func BatchWireLen(entries []BatchEntry) int {
	meta, frames := entryListSize(entries)
	return meta + frames
}

// entryListLen validates an entry list against the protocol bounds and
// returns its data-segment length and the part of it that is not
// frames. A reference must carry a nonzero content hash — the hash is
// the only thing the replica can materialize from.
func entryListLen(entries []BatchEntry) (dataLen, metaLen int, err error) {
	if len(entries) == 0 {
		return 0, 0, fmt.Errorf("iscsi: empty replica batch")
	}
	if len(entries) > MaxBatchFrames {
		return 0, 0, fmt.Errorf("%w: batch of %d entries", ErrTooLarge, len(entries))
	}
	metaLen, frames := entryListSize(entries)
	if metaLen+frames > MaxDataSegment {
		return 0, 0, fmt.Errorf("%w: batch of %d bytes", ErrTooLarge, metaLen+frames)
	}
	for k := range entries {
		if entries[k].ByRef() && entries[k].Hash == 0 {
			return 0, 0, fmt.Errorf("%w: reference %d without content hash", ErrBadFrame, k)
		}
	}
	return metaLen + frames, metaLen, nil
}

// appendEntryList lays an entry list's data segment out in wire order
// without copying a frame: the count and the entry headers are appended
// to meta, and each frame slots in after its header as a piece of its
// own, from the caller's buffer. meta's existing bytes (a PDU header,
// say) lead the first piece, and the headers of entries without a frame
// between them share a piece. meta must have room for everything
// appended, so the pieces are cut from one allocation.
func appendEntryList(bufs net.Buffers, meta []byte, entries []BatchEntry) net.Buffers {
	meta = binary.AppendUvarint(meta, uint64(len(entries)))
	start := 0
	prev := &BatchEntry{}
	for k := range entries {
		e := &entries[k]
		meta = appendEntryHeader(meta, prev, e)
		prev = e
		if len(e.Frame) > 0 {
			bufs = append(bufs, meta[start:], e.Frame)
			start = len(meta)
		}
	}
	if start < len(meta) {
		bufs = append(bufs, meta[start:])
	}
	return bufs
}

// encodeEntryList assembles the contiguous data segment of an entry
// list. The initiator's send path does not use it (it writes the same
// pieces vectored, without assembling a copy); it serves tests, fuzz
// seeds, and callers that need the segment as one buffer.
func encodeEntryList(entries []BatchEntry) ([]byte, error) {
	dataLen, metaLen, err := entryListLen(entries)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, dataLen)
	for _, piece := range appendEntryList(nil, make([]byte, 0, metaLen), entries) {
		buf = append(buf, piece...)
	}
	return buf, nil
}

// decodeUvarint decodes the uvarint at data[off:] and returns it with
// the offset just past it. A truncated varint is ErrShortFrame; one
// that overflows 64 bits, or is not in its shortest form (a final byte
// of zero), is ErrBadFrame — a list has exactly one encoding.
func decodeUvarint(data []byte, off int) (uint64, int, error) {
	if off >= len(data) {
		return 0, 0, ErrShortFrame
	}
	v, n := binary.Uvarint(data[off:])
	if n <= 0 {
		if n == 0 {
			return 0, 0, ErrShortFrame
		}
		return 0, 0, ErrBadFrame
	}
	if n > 1 && data[off+n-1] == 0 {
		return 0, 0, ErrBadFrame
	}
	return v, off + n, nil
}

// decodeDelta decodes the zigzag varint at data[off:] (see
// decodeUvarint) and returns from plus it, modulo 2^64.
func decodeDelta(data []byte, off int, from uint64) (uint64, int, error) {
	ux, off, err := decodeUvarint(data, off)
	return from + uint64(int64(ux>>1)^-int64(ux&1)), off, err
}

// decodeEntryList parses the count-prefixed entry sequence every
// entry-list opcode carries, into entries' backing array when it has
// room (a session reuses one from PDU to PDU; nil allocates). Frames
// alias data (no copies); the caller owns data until the entries are
// consumed. Decoding is strict and bounded: the declared count must be
// in (0, MaxBatchFrames], and count minimal entries must fit in the
// rest of the buffer, before anything is allocated; every entry must be
// fully present; every varint must be minimal; trailing bytes are
// rejected; and a reference (an entry without a frame) must name a
// nonzero content hash. Truncation reports ErrShortFrame and structural
// violations report ErrBadFrame — hostile input never panics or
// over-allocates.
func decodeEntryList(entries []BatchEntry, data []byte) ([]BatchEntry, error) {
	count, off, err := decodeUvarint(data, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: batch count of a %d-byte segment", err, len(data))
	}
	return decodeEntries(entries, data[off:], count, false)
}

// minPlainEntryLen is the smallest entry of a squeezed list's
// plaintext: one-byte deltas, a one-byte length and a one-byte frame.
const minPlainEntryLen = 1 + 1 + 1 + 1

// decodeEntries parses exactly count entries from data, which they
// must fill (see decodeEntryList). With squeezed set, data is a
// squeezed list's plaintext (squeeze.go): an entry's hash follows its
// length field, and only when that length is zero, a reference; a
// by-value entry decodes with a zero Hash, its check being the list's
// digest's business.
func decodeEntries(entries []BatchEntry, data []byte, count uint64, squeezed bool) ([]BatchEntry, error) {
	if count == 0 || count > MaxBatchFrames {
		return nil, fmt.Errorf("%w: batch count %d", ErrBadFrame, count)
	}
	minLen := uint64(minEntryLen)
	if squeezed {
		minLen = minPlainEntryLen
	}
	if uint64(len(data)) < count*minLen {
		return nil, fmt.Errorf("%w: %d entries cannot fit in %d bytes", ErrShortFrame, count, len(data))
	}
	entries = slices.Grow(entries[:0], int(count))
	off := 0
	var prev BatchEntry
	for k := range int(count) {
		var e BatchEntry
		var frameLen uint64
		var err error
		if e.Seq, off, err = decodeDelta(data, off, prev.Seq); err != nil {
			return nil, fmt.Errorf("%w: batch entry %d seq", err, k)
		}
		if e.LBA, off, err = decodeDelta(data, off, prev.LBA); err != nil {
			return nil, fmt.Errorf("%w: batch entry %d lba", err, k)
		}
		if !squeezed {
			if len(data)-off < HashSize {
				return nil, fmt.Errorf("%w: batch entry %d hash", ErrShortFrame, k)
			}
			e.Hash = binary.BigEndian.Uint64(data[off:])
			off += HashSize
		}
		if frameLen, off, err = decodeUvarint(data, off); err != nil {
			return nil, fmt.Errorf("%w: batch entry %d frame length", err, k)
		}
		if squeezed && frameLen == 0 {
			if len(data)-off < HashSize {
				return nil, fmt.Errorf("%w: batch entry %d hash", ErrShortFrame, k)
			}
			e.Hash = binary.BigEndian.Uint64(data[off:])
			off += HashSize
		}
		switch {
		case frameLen == 0 && e.Hash == 0:
			return nil, fmt.Errorf("%w: reference %d without content hash", ErrBadFrame, k)
		case frameLen > uint64(len(data)-off):
			return nil, fmt.Errorf("%w: batch entry %d frame of %d bytes", ErrShortFrame, k, frameLen)
		default:
			e.Frame = data[off : off+int(frameLen)]
			off += int(frameLen)
		}
		entries = append(entries, e)
		prev = e
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", ErrBadFrame, len(data)-off)
	}
	return entries, nil
}

// EncodeBatch assembles the contiguous data segment of an entry list,
// references included.
func EncodeBatch(entries []BatchEntry) ([]byte, error) { return encodeEntryList(entries) }

// DecodeBatch parses the data segment of an entry-list PDU, either
// opcode (see decodeEntryList for the bounds it enforces).
func DecodeBatch(data []byte) ([]BatchEntry, error) { return decodeEntryList(nil, data) }

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
// error a single-frame ReplicaWriteStream round trip would have returned,
// typed sentinel included, so engines treat batched and unbatched
// apply failures uniformly. Only meaningful for non-OK statuses.
func ReplicaStatusErr(lba uint64, st Status) error {
	return statusErr("replica-write", lba, st)
}

// entryListPDU frames one entry-list PDU for the wire — p names the
// opcode, mode, stream tag and task tag; OpReplicaWriteBatch and
// OpReplicaWriteByRef both frame here — without assembling a contiguous
// copy of the payload: the PDU header with the count and the entry
// headers, and the caller's frames, are returned as pieces in wire
// order. The digest streams over the pieces, so the bytes are
// indistinguishable from a contiguously-built PDU.
func entryListPDU(p *PDU, entries []BatchEntry) (net.Buffers, error) {
	dataLen, metaLen, err := entryListLen(entries)
	if err != nil {
		return nil, err
	}
	meta := make([]byte, headerLen, headerLen+metaLen)
	p.putHeader(meta, dataLen)
	bufs := appendEntryList(make(net.Buffers, 0, 2+2*len(entries)), meta, entries)

	crc := uint32(0)
	for _, piece := range bufs { // putHeader left the digest field zero, as digest() requires
		crc = crc32.Update(crc, castagnoli, piece)
	}
	binary.BigEndian.PutUint32(meta[44:], crc)
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
	resp, err := i.exchange(nil, func(_ *session, itt uint32) (net.Buffers, error) {
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

// ReplicaWriteBatch is ReplicaWriteBatchStream on stream (0, 0). Nothing
// in this module calls it; it stays for the benchmark module only.
func (i *Initiator) ReplicaWriteBatch(mode uint8, entries []BatchEntry) ([]Status, error) {
	return i.ReplicaWriteBatchStream(mode, 0, 0, entries)
}

// listOp is the opcode an entry list goes out under: it follows the
// content, OpReplicaWriteByRef for a list that holds a reference and
// OpReplicaWriteBatch for one that does not.
func listOp(entries []BatchEntry) Opcode {
	for k := range entries {
		if entries[k].ByRef() {
			return OpReplicaWriteByRef
		}
	}
	return OpReplicaWriteBatch
}

// ReplicaWriteBatchStream pushes several replication entries of the
// (vol, shard) stream in one round trip and returns one status per
// entry, in entry order (see pushEntryList): the whole list applies
// against that stream's sequence space on the replica, so a sharded
// primary can interleave per-shard lists over one session, and an
// untagged list is stream (0, 0). Any entry may be a reference, which
// then ships under OpReplicaWriteByRef (see listOp); StatusRefMiss
// marks references the replica could not resolve. A list of one
// by-value entry is sent as a plain OpReplicaWrite, byte-identical to
// ReplicaWriteStream.
func (i *Initiator) ReplicaWriteBatchStream(mode, shard uint8, vol uint16, entries []BatchEntry) ([]Status, error) {
	op := listOp(entries)
	if len(entries) == 1 && op == OpReplicaWriteBatch {
		e := entries[0]
		resp, err := i.roundTrip(&PDU{Op: OpReplicaWrite, Mode: mode, Shard: shard, Vol: vol, Seq: e.Seq, LBA: e.LBA, Hash: e.Hash, Data: e.Frame})
		if err != nil {
			return nil, err
		}
		return []Status{resp.Status}, nil
	}
	return i.pushEntryList(PDU{Op: op, Mode: mode, Shard: shard, Vol: vol}, entries)
}
