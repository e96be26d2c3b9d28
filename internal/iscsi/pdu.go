// Package iscsi implements the block transport the PRINS prototype was
// built on: an iSCSI-flavoured request/response protocol over TCP. An
// initiator issues SCSI-like block commands (READ, WRITE) against a
// target that serves a block device; the same PDU stream also carries
// the PRINS replication pushes (REPLICA WRITE) between the engines of
// the primary and replica nodes, mirroring how the paper embeds the
// PRINS-engine inside the iSCSI target with a second initiator for
// inter-node traffic.
//
// The wire protocol is a simplification of RFC 3720: fixed 48-byte
// basic header segment followed by an optional data segment. The
// initiator keeps any number of tagged tasks in flight on a session and
// matches responses by tag; the target reads, serves and answers one
// PDU at a time, in arrival order. It is not interoperable with real
// iSCSI but preserves its shape — login with target-name validation,
// tagged tasks, status codes, and block addressing by LBA.
package iscsi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
)

// Opcode identifies the PDU type.
type Opcode uint8

// PDU opcodes. Request opcodes flow initiator->target; response
// opcodes flow back.
const (
	OpLoginReq Opcode = iota + 1
	OpLoginResp
	OpReadCmd
	OpWriteCmd
	OpReplicaWrite // replication push carrying an xcode frame
	OpResp         // generic command response
	OpNop          // keepalive / RTT probe
	OpNopResp
	OpLogout
	OpLogoutResp
	OpHashCmd // per-block content hashes for delta resync
	// OpReplicaWriteBatch ships several replication pushes in one PDU:
	// an entry list (proto v8), a count-prefixed sequence of {seq, lba,
	// hash, frameLen, frame} entries with seq and LBA delta-coded (see
	// DecodeBatch). The response carries one status byte per entry, so a
	// single diverged block does not fail its batch-mates. A list of one
	// by-value entry is sent as a plain OpReplicaWrite.
	OpReplicaWriteBatch
	// Opcodes 13 and 14, proto v6's stripe push and repair-chain hop,
	// are retired: a k-of-n group member is an ordinary replica of its
	// unit, fed by the verbs above. Their slots stay reserved so later
	// opcodes keep their wire values; a target answers either
	// StatusBadRequest like any unknown opcode.
	_
	_
	// OpReplicaWriteByRef carries the entry list OpReplicaWriteBatch
	// carries (proto v8), under the same rule: a zero frameLen means
	// "the replica already holds a block with this content hash —
	// materialize it by local copy" (byref.go). The initiator picks it
	// for a list that holds such a reference, so a packet trace tells
	// the two apart; the target decodes and applies both alike. An
	// entry whose hash the replica's index cannot resolve reports
	// StatusRefMiss and the initiator re-ships it by value.
	OpReplicaWriteByRef
	// OpWriteSpan is a resync's repair span: the differing blocks of a
	// stretch of the device as a presence mask and one xcode frame (see
	// span.go).
	OpWriteSpan
)

// String returns the opcode mnemonic.
func (o Opcode) String() string {
	switch o {
	case OpLoginReq:
		return "LOGIN"
	case OpLoginResp:
		return "LOGIN-RESP"
	case OpReadCmd:
		return "READ"
	case OpWriteCmd:
		return "WRITE"
	case OpReplicaWrite:
		return "REPLICA-WRITE"
	case OpResp:
		return "RESP"
	case OpNop:
		return "NOP"
	case OpNopResp:
		return "NOP-RESP"
	case OpLogout:
		return "LOGOUT"
	case OpLogoutResp:
		return "LOGOUT-RESP"
	case OpHashCmd:
		return "HASH"
	case OpReplicaWriteBatch:
		return "REPLICA-WRITE-BATCH"
	case OpReplicaWriteByRef:
		return "REPLICA-WRITE-BYREF"
	case OpWriteSpan:
		return "WRITE-SPAN"
	default:
		return fmt.Sprintf("OP(%d)", uint8(o))
	}
}

// Status is the completion status carried in response PDUs.
type Status uint8

// Response statuses.
const (
	StatusOK Status = iota
	StatusError
	StatusBadRequest
	StatusOutOfRange
	StatusBadTarget
	StatusNotLoggedIn
	// StatusDiverged reports a verified replica apply whose recovered
	// block did not match the content hash the primary shipped: the
	// replica's A_old precondition no longer holds. The replica refuses
	// the write (nothing was stored), so the block needs a resync, not a
	// retry.
	StatusDiverged
	// StatusDecodeError reports a replica push whose frame failed to
	// decode (bad codec byte, truncated payload, wrong decoded size).
	StatusDecodeError
	// StatusStoreError reports a replica push that decoded fine but
	// whose local device read/write failed (including torn writes).
	StatusStoreError
	// StatusRefMiss reports a by-ref replica push whose content hash the
	// replica's dedupe index could not resolve to a block it verifiably
	// holds. Nothing was stored; the initiator falls back to shipping
	// the retained parity frame by value, so correctness never depends
	// on the two indexes agreeing.
	StatusRefMiss
	// StatusStaleHistory refuses a squeezed entry list built on a
	// history the target's end of its stream does not hold (see
	// squeeze.go). Nothing was applied; the initiator resets the
	// stream's history and re-ships the list fresh.
	StatusStaleHistory
	// StatusUnverified answers every entry of a squeezed list the
	// replica could not verify against its digest: a check that did not
	// match, a duplicate seq, or anything else that kept it from
	// recomputing every by-value entry's check (see squeeze.go). Nothing
	// was applied; the initiator re-ships the list plain, whose
	// per-entry hashes give each entry its own verdict.
	StatusUnverified
)

// String returns the status mnemonic.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusError:
		return "ERROR"
	case StatusBadRequest:
		return "BAD-REQUEST"
	case StatusOutOfRange:
		return "OUT-OF-RANGE"
	case StatusBadTarget:
		return "BAD-TARGET"
	case StatusNotLoggedIn:
		return "NOT-LOGGED-IN"
	case StatusDiverged:
		return "DIVERGED"
	case StatusDecodeError:
		return "DECODE-ERROR"
	case StatusStoreError:
		return "STORE-ERROR"
	case StatusRefMiss:
		return "REF-MISS"
	case StatusStaleHistory:
		return "STALE-HISTORY"
	case StatusUnverified:
		return "UNVERIFIED"
	default:
		return fmt.Sprintf("STATUS(%d)", uint8(s))
	}
}

// sentinel returns the typed error a replica-apply status maps to, or
// nil for statuses without one. Initiator.ReplicaWriteStream wraps it so
// callers can switch on the failure class with errors.Is.
func (s Status) sentinel() error {
	switch s {
	case StatusDiverged:
		return ErrDiverged
	case StatusDecodeError:
		return ErrReplicaDecode
	case StatusStoreError:
		return ErrReplicaStore
	case StatusRefMiss:
		return ErrRefMiss
	case StatusUnverified:
		return ErrUnverified
	default:
		return nil
	}
}

// Wire-format constants.
const (
	// headerLen is the fixed basic header segment size.
	headerLen = 48
	// protoMagic guards against desynchronized or foreign streams.
	protoMagic = 0x69 // 'i'
	// baseVersion is the framing version of every single-command
	// opcode. v3 widened the header from 40 to 48 bytes for the
	// replica-apply content hash. The version byte has one rule (see
	// putHeader), and a header stamped anything but 3, 5, 8 or 9 is
	// refused with ErrBadVersion.
	baseVersion = 3
	// streamVersion (v5) carries a replication stream tag in the
	// previously-reserved header bytes: off 5 is the shard index and
	// off 6-7 the volume id. Each (vol, shard) pair is an independent
	// sequence space on the replica, so a sharded primary can ship N
	// interleaved seq streams over one session without breaking
	// seq-dedupe. A single-command PDU is stamped 5 only when the tag is
	// nonzero — an untagged one is byte-identical to v3 framing.
	streamVersion = 5
	// entryListVersion (v8) stamps both entry-list opcodes,
	// OpReplicaWriteBatch and OpReplicaWriteByRef, tagged or not: their
	// data segment is the delta-varint entry list of batch.go. Versions 4
	// and 7, the same two opcodes with fixed 28-byte entry headers, and
	// version 6, the k-of-n stripe push and repair chain, are retired and
	// refused like any unknown version.
	entryListVersion = 8
	// packedVersion (v9) stamps a resync command that packs a list
	// behind its header: an OpHashCmd of more than one unit (its data
	// segment lists the units after the first) and an OpWriteSpan with
	// copies (a nonzero Seq; a copy list follows the mask). A target
	// that predates the lists would answer for the first unit alone, or
	// read the copy list as the frame; refusing the version, it fails
	// the command instead. A one-unit command and a span without copies
	// stay v3, and a target refuses either list under any other version.
	packedVersion = 9
	// MaxDataSegment bounds a PDU's data segment; larger is rejected
	// before allocation.
	MaxDataSegment = 17 << 20
	// FrameHeadroom is the header space a caller reserves at the front
	// of a pooled frame buffer so StampReplicaHeader can write the PDU
	// header in place and the whole PDU goes out as one contiguous
	// zero-copy send (see Initiator.ReplicaWriteFramed).
	FrameHeadroom = headerLen
)

// Protocol error values.
var (
	ErrBadMagic   = errors.New("iscsi: bad protocol magic")
	ErrBadVersion = errors.New("iscsi: protocol version mismatch")
	ErrBadDigest  = errors.New("iscsi: digest mismatch")
	ErrTooLarge   = errors.New("iscsi: data segment too large")
	ErrStatus     = errors.New("iscsi: request failed")
	// ErrShortFrame reports a response whose data segment does not match
	// the length implied by the request — a truncated or misaligned
	// payload from a buggy or hostile peer.
	ErrShortFrame = errors.New("iscsi: truncated response payload")
	// ErrBadFrame reports a structurally invalid batch segment (zero or
	// oversized entry count, trailing bytes after the last entry).
	ErrBadFrame = errors.New("iscsi: malformed batch segment")
)

// Typed replica-apply failures. The replica engine wraps its apply
// errors with these so the target can map them to distinct statuses,
// and Initiator.ReplicaWriteStream wraps the status back into the same
// sentinel — errors.Is sees the identical failure class on both sides
// of the wire (and through in-process loopback clients).
var (
	// ErrDiverged: the backward parity computation produced a block
	// whose hash does not match what the primary shipped. The replica's
	// copy of A_old is wrong (torn write, lost frame, bit rot); the
	// block was NOT written and must be repaired by resync.
	ErrDiverged = errors.New("iscsi: replica content diverged")
	// ErrReplicaDecode: the pushed frame failed to decode.
	ErrReplicaDecode = errors.New("iscsi: replica frame decode failed")
	// ErrReplicaStore: the replica's local device failed the apply.
	ErrReplicaStore = errors.New("iscsi: replica store failed")
	// ErrRefMiss: a by-ref push named a content hash the replica could
	// not resolve. Nothing was stored; re-ship the entry by value.
	ErrRefMiss = errors.New("iscsi: replica dedupe reference miss")
	// ErrUnverified: a squeezed list the replica could not verify
	// against its digest; nothing of it was applied.
	ErrUnverified = errors.New("iscsi: squeezed list not verified")
)

// PDU is one protocol data unit: the decoded header fields plus the
// data segment.
//
// Header layout (big endian):
//
//	off 0  : magic
//	off 1  : version
//	off 2  : opcode
//	off 3  : status
//	off 4  : mode (replication mode for OpReplicaWrite)
//	off 5  : shard (uint8)  replication stream shard index (v5)
//	off 6-7: vol (uint16)   replication stream volume id (v5)
//	off 8  : ITT  (uint32)  initiator task tag
//	off 12 : LBA  (uint64)
//	off 20 : blocks (uint32) block count for READ
//	off 24 : data length (uint32)
//	off 28 : sequence (uint64) engine-assigned replication sequence;
//	         on an entry list, zero, or a squeezed list's history tag;
//	         on OpWriteSpan, the number of copies the span lists
//	off 36 : hash (uint64) content hash of the decoded new block;
//	         on OpHashCmd, the first unit's digest of its hash vector
//	off 44 : digest (uint32) CRC-32C over header (digest zeroed) + data
//
// The digest plays the role of iSCSI's header+data digests: corrupted
// or torn PDUs are rejected with ErrBadDigest instead of being applied
// to a replica. The hash field rides on OpReplicaWrite: it is the
// 64-bit content hash (HashBlock) of the block the replica must hold
// after applying the frame, letting the replica verify the backward
// parity computation end to end; zero means "unverified push". On
// OpHashCmd it carries the initiator's digest of the hash vector it
// expects for the command's first unit (see hash.go): the target leaves
// a unit that matches out of its answer; zero means "send the hashes".
type PDU struct {
	Op     Opcode
	Status Status
	Mode   uint8
	Shard  uint8  // replication stream shard index; zero = untagged
	Vol    uint16 // replication stream volume id; zero = untagged
	ITT    uint32
	LBA    uint64
	Blocks uint32
	Seq    uint64
	Hash   uint64
	Data   []byte
}

// putHeader encodes the PDU's header fields into hdr (headerLen bytes)
// for a data segment of dataLen bytes, leaving the digest field zero
// for the caller to stamp. Every send path frames its header here, so
// the version byte has one rule: v8 for an entry list, else v9 for a
// hash command with a unit list or a span with copies, else v5 for a
// nonzero stream tag, else v3.
func (p *PDU) putHeader(hdr []byte, dataLen int) {
	hdr[0] = protoMagic
	switch {
	case p.Op == OpReplicaWriteBatch || p.Op == OpReplicaWriteByRef:
		hdr[1] = entryListVersion
	case p.Op == OpHashCmd && dataLen > 0 || p.Op == OpWriteSpan && p.Seq != 0:
		hdr[1] = packedVersion
	case p.Shard != 0 || p.Vol != 0:
		hdr[1] = streamVersion
	default:
		hdr[1] = baseVersion
	}
	hdr[2] = byte(p.Op)
	hdr[3] = byte(p.Status)
	hdr[4] = p.Mode
	hdr[5] = p.Shard
	binary.BigEndian.PutUint16(hdr[6:], p.Vol)
	binary.BigEndian.PutUint32(hdr[8:], p.ITT)
	binary.BigEndian.PutUint64(hdr[12:], p.LBA)
	binary.BigEndian.PutUint32(hdr[20:], p.Blocks)
	binary.BigEndian.PutUint32(hdr[24:], uint32(dataLen))
	binary.BigEndian.PutUint64(hdr[28:], p.Seq)
	binary.BigEndian.PutUint64(hdr[36:], p.Hash)
	binary.BigEndian.PutUint32(hdr[44:], 0)
}

// buffers frames the PDU for the wire: the header (digest stamped) and,
// when there is one, the data segment, in wire order. The data segment
// is the caller's slice, not a copy.
func (p *PDU) buffers() (net.Buffers, error) {
	if len(p.Data) > MaxDataSegment {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(p.Data))
	}
	hdr := make([]byte, headerLen)
	p.putHeader(hdr, len(p.Data))
	binary.BigEndian.PutUint32(hdr[44:], digest(hdr, p.Data))
	if len(p.Data) == 0 {
		return net.Buffers{hdr}, nil
	}
	return net.Buffers{hdr, p.Data}, nil
}

// WriteTo encodes and writes the PDU to w in one call (see writeOnce).
func (p *PDU) WriteTo(w io.Writer) (int64, error) {
	bufs, err := p.buffers()
	if err != nil {
		return 0, err
	}
	n, err := writeOnce(w, bufs)
	if err != nil {
		return n, fmt.Errorf("iscsi: write pdu: %w", err)
	}
	return n, nil
}

// buffersWriter is implemented by connections that deliver a vectored
// PDU as one operation: wan.ShapedConn charges its one-way latency once
// per call and hands the pieces to the socket as one writev.
type buffersWriter interface {
	WriteBuffers(bufs net.Buffers) (int64, error)
}

// writeOnce hands one PDU's pieces to w in exactly one call, which is
// what keeps PDUs whole on a session several goroutines send on with no
// lock around the write (a shaped link sleeps its latency inside the
// call, so a send lock would turn the link back into a FIFO server):
// every conn in use serializes concurrent calls internally — a TCP
// socket's write and writev hold the fd write lock until every byte is
// queued, net.Pipe holds its write mutex for the whole slice — so a PDU
// that leaves in one call cannot interleave with another. One call also
// charges a shaped link's latency once per PDU rather than once per
// piece. A buffersWriter takes the pieces vectored and answers for
// their atomicity itself; a TCP socket takes them as one writev; on
// anything else net.Buffers.WriteTo would degrade to one Write per
// piece, so the pieces are flattened into one contiguous Write. bufs is
// consumed.
func writeOnce(w io.Writer, bufs net.Buffers) (int64, error) {
	if len(bufs) == 1 {
		n, err := w.Write(bufs[0])
		return int64(n), err
	}
	switch c := w.(type) {
	case buffersWriter:
		return c.WriteBuffers(bufs)
	case *net.TCPConn:
		return bufs.WriteTo(c)
	}
	size := 0
	for _, b := range bufs {
		size += len(b)
	}
	flat := make([]byte, 0, size)
	for _, b := range bufs {
		flat = append(flat, b...)
	}
	n, err := w.Write(flat)
	return int64(n), err
}

// StampReplicaHeader writes a complete OpReplicaWrite header into the
// first FrameHeadroom bytes of pdu — whose remainder is the encoded
// frame — and stamps the CRC-32C digest in a single pass over the now
// contiguous PDU. No staging copy, no allocation: the caller's pooled
// buffer becomes the wire image in place. The framing is byte-for-byte
// what PDU.WriteTo produces for the same fields (v3 for an untagged
// stream, v5 when shard or vol is nonzero).
func StampReplicaHeader(pdu []byte, mode, shard uint8, vol uint16, itt uint32, seq, lba, hash uint64) error {
	if len(pdu) < FrameHeadroom {
		return fmt.Errorf("%w: framed pdu of %d bytes lacks header room", ErrShortFrame, len(pdu))
	}
	dataLen := len(pdu) - FrameHeadroom
	if dataLen > MaxDataSegment {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, dataLen)
	}
	p := PDU{Op: OpReplicaWrite, Mode: mode, Shard: shard, Vol: vol, ITT: itt, Seq: seq, LBA: lba, Hash: hash}
	p.putHeader(pdu[:FrameHeadroom], dataLen)
	binary.BigEndian.PutUint32(pdu[44:], crc32.Checksum(pdu, castagnoli))
	return nil
}

// ReadPDU reads and decodes one PDU from r. It returns io.EOF on a
// clean end of stream before any header byte, and wraps other short
// reads as io.ErrUnexpectedEOF.
func ReadPDU(r io.Reader) (*PDU, error) { return ReadPDUInto(r, nil) }

// ReadPDUInto is ReadPDU with a caller-supplied destination for the
// data segment: when the incoming segment's length equals len(dst)
// exactly, it is read directly into dst and the returned PDU's Data
// aliases dst — no staging allocation and no copy. Any other segment
// length (including zero) falls back to allocating, so error responses
// and mismatched geometries still decode.
func ReadPDUInto(r io.Reader, dst []byte) (*PDU, error) {
	hdr := make([]byte, headerLen)
	p := new(PDU)
	if err := p.readHeader(r, hdr); err != nil {
		return nil, err
	}
	if err := p.readData(r, hdr, dst); err != nil {
		return nil, err
	}
	return p, nil
}

// readHeader reads one PDU header from r into hdr (headerLen bytes) and
// decodes its fields into p. The data segment, if any, is still on the
// stream: readData must follow. A clean end of stream before any header
// byte is io.EOF.
func (p *PDU) readHeader(r io.Reader, hdr []byte) error {
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("iscsi: read header: %w", err)
	}
	if hdr[0] != protoMagic {
		return fmt.Errorf("%w: 0x%02x", ErrBadMagic, hdr[0])
	}
	switch hdr[1] {
	case baseVersion, streamVersion, entryListVersion, packedVersion:
	default:
		return fmt.Errorf("%w: %d", ErrBadVersion, hdr[1])
	}
	if dataLen := binary.BigEndian.Uint32(hdr[24:]); dataLen > MaxDataSegment {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, dataLen)
	}
	*p = PDU{
		Op:     Opcode(hdr[2]),
		Status: Status(hdr[3]),
		Mode:   hdr[4],
		Shard:  hdr[5],
		Vol:    binary.BigEndian.Uint16(hdr[6:]),
		ITT:    binary.BigEndian.Uint32(hdr[8:]),
		LBA:    binary.BigEndian.Uint64(hdr[12:]),
		Blocks: binary.BigEndian.Uint32(hdr[20:]),
		Seq:    binary.BigEndian.Uint64(hdr[28:]),
		Hash:   binary.BigEndian.Uint64(hdr[36:]),
	}
	return nil
}

// readData reads the data segment that follows the header readHeader
// decoded into hdr — into dst when the lengths match exactly (see
// ReadPDUInto) — and verifies the digest over both.
func (p *PDU) readData(r io.Reader, hdr, dst []byte) error {
	if dataLen := binary.BigEndian.Uint32(hdr[24:]); dataLen > 0 {
		if int(dataLen) == len(dst) {
			p.Data = dst
		} else {
			p.Data = make([]byte, dataLen)
		}
		if _, err := io.ReadFull(r, p.Data); err != nil {
			return fmt.Errorf("iscsi: read data segment: %w", err)
		}
	}
	want := binary.BigEndian.Uint32(hdr[44:])
	clear(hdr[44:headerLen]) // hdr is the reader's scratch, done with once the fields are decoded
	if got := digest(hdr, p.Data); got != want {
		return fmt.Errorf("%w: got %08x, want %08x", ErrBadDigest, got, want)
	}
	return nil
}

// digest computes the PDU's CRC-32C over hdr, whose digest field the
// caller has zeroed (putHeader leaves it so; readData clears it), and
// the data segment. The CRC streams via Checksum/Update — no hash.Hash
// and no scratch copy of the header on the per-PDU path.
func digest(hdr, data []byte) uint32 {
	return crc32.Update(crc32.Checksum(hdr, castagnoli), castagnoli, data)
}

// castagnoli is the CRC-32C table iSCSI digests use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WireSize returns the bytes this PDU occupies on the wire.
func (p *PDU) WireSize() int { return headerLen + len(p.Data) }

// loginPayload carries the negotiated session parameters.
//
// Login request data: uvarint name length + target name bytes.
// Login response data: blockSize uint32 + numBlocks uint64.
const loginRespLen = 12

func encodeLoginReq(targetName string) []byte {
	buf := make([]byte, 0, len(targetName)+5)
	var tmp [5]byte
	n := binary.PutUvarint(tmp[:], uint64(len(targetName)))
	buf = append(buf, tmp[:n]...)
	return append(buf, targetName...)
}

func decodeLoginReq(data []byte) (string, error) {
	nameLen, n := binary.Uvarint(data)
	if n <= 0 || nameLen > 4096 || uint64(len(data)-n) < nameLen {
		return "", fmt.Errorf("iscsi: malformed login request")
	}
	return string(data[n : n+int(nameLen)]), nil
}

func encodeLoginResp(blockSize int, numBlocks uint64) []byte {
	buf := make([]byte, loginRespLen)
	binary.BigEndian.PutUint32(buf, uint32(blockSize))
	binary.BigEndian.PutUint64(buf[4:], numBlocks)
	return buf
}

func decodeLoginResp(data []byte) (blockSize int, numBlocks uint64, err error) {
	if len(data) != loginRespLen {
		return 0, 0, fmt.Errorf("iscsi: malformed login response (%d bytes)", len(data))
	}
	return int(binary.BigEndian.Uint32(data)), binary.BigEndian.Uint64(data[4:]), nil
}
