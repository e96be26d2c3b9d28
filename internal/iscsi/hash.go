package iscsi

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"net"
	"slices"
)

// maxHashBatch bounds one OpHashCmd request: the blocks a target reads
// (one at a time) and the 32 KiB of hashes it answers with.
const maxHashBatch = 4096

// HashSize is the bytes per block hash on the wire.
const HashSize = 8

// XXH64 primes (xxHash specification, "XXH64 algorithm description").
const (
	xxPrime1 uint64 = 0x9E3779B185EBCA87
	xxPrime2 uint64 = 0xC2B2AE3D27D4EB4F
	xxPrime3 uint64 = 0x165667B19E3779F9
	xxPrime4 uint64 = 0x85EBCA77C2B2AE63
	xxPrime5 uint64 = 0x27D4EB2F165667C5
)

// HashBlock returns the 64-bit content hash of one block: XXH64 with
// seed 0, as specified in the xxHash specification
// (github.com/Cyan4973/xxHash, doc/xxhash_spec.md). It is the unit of
// comparison for delta resync, the check of a verified apply and the
// content address of a by-ref push, so it is part of the protocol: both
// ends of a session must compute the same function (DESIGN.md §4).
//
// The wire reserves hash 0 for "unverified push" and HashBlock does not
// remap it: a block whose hash happens to be 0 (one in 2^64) ships
// unverified and is never indexed for dedupe, which is safe, only
// unchecked. 64 bits detect corruption; they are not a collision-safe
// content address (ROADMAP item 10).
//
// Blocks of 32 bytes and more run four independent 64-bit lanes over
// 32-byte stripes: two multiplies and a rotate per eight bytes, in four
// dependency chains the CPU overlaps, where FNV-1a paid one serially
// dependent multiply per byte.
func HashBlock(data []byte) uint64 {
	n := len(data)
	var h uint64
	if n >= 32 {
		// Lane seeds for seed 0: P1+P2, P2, 0, -P1 (mod 2^64).
		v1, v2, v3, v4 := uint64(0x60EA27EEADC0B5D6), xxPrime2, uint64(0), uint64(0x61C8864E7A143579)
		for ; len(data) >= 32; data = data[32:] {
			v1 = xxRound(v1, binary.LittleEndian.Uint64(data[0:8]))
			v2 = xxRound(v2, binary.LittleEndian.Uint64(data[8:16]))
			v3 = xxRound(v3, binary.LittleEndian.Uint64(data[16:24]))
			v4 = xxRound(v4, binary.LittleEndian.Uint64(data[24:32]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = xxMergeRound(h, v1)
		h = xxMergeRound(h, v2)
		h = xxMergeRound(h, v3)
		h = xxMergeRound(h, v4)
	} else {
		h = xxPrime5
	}
	h += uint64(n)

	for ; len(data) >= 8; data = data[8:] {
		h ^= xxRound(0, binary.LittleEndian.Uint64(data))
		h = bits.RotateLeft64(h, 27)*xxPrime1 + xxPrime4
	}
	if len(data) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(data)) * xxPrime1
		h = bits.RotateLeft64(h, 23)*xxPrime2 + xxPrime3
		data = data[4:]
	}
	for _, b := range data {
		h ^= uint64(b) * xxPrime5
		h = bits.RotateLeft64(h, 11) * xxPrime1
	}

	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

// xxRound folds one 8-byte lane input into its accumulator.
func xxRound(acc, input uint64) uint64 {
	return bits.RotateLeft64(acc+input*xxPrime2, 31) * xxPrime1
}

// xxMergeRound folds one lane accumulator into the converged hash.
func xxMergeRound(h, v uint64) uint64 {
	return (h^xxRound(0, v))*xxPrime1 + xxPrime4
}

// DecodeHashes parses consecutive big-endian block hashes (see
// HashBlock), a one-unit OpHashCmd answer. The payload must be an
// exact multiple of HashSize: a trailing partial hash means the frame
// was truncated, and silently dropping it would let a delta resync skip
// the very blocks it needed to compare.
func DecodeHashes(data []byte) ([]uint64, error) {
	if len(data)%HashSize != 0 {
		return nil, fmt.Errorf("%w: hash payload of %d bytes is not a multiple of %d",
			ErrShortFrame, len(data), HashSize)
	}
	out := make([]uint64, len(data)/HashSize)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(data[i*HashSize:])
	}
	return out, nil
}

// AppendHashes appends hashes to dst in the OpHashCmd answer encoding,
// the inverse of DecodeHashes. HashBlock of the result is the digest a
// hash unit carries for that answer.
func AppendHashes(dst []byte, hashes []uint64) []byte {
	for _, h := range hashes {
		dst = binary.BigEndian.AppendUint64(dst, h)
	}
	return dst
}

// Hash commands (OpHashCmd). A command names one or more units, runs
// of blocks in ascending LBA order that do not overlap, each with the
// initiator's digest of its hashes: HashBlock of its own copy's
// big-endian hash vector, or zero for "send the hashes". The header
// names the first unit — LBA its start, Blocks its count, Hash its
// digest — and the data segment lists the rest, one entry each:
//
//	gap    (uvarint)  blocks from the end of the previous unit to this one's start
//	count  (uvarint)  blocks in the unit, at least one
//	digest (8 bytes)  big endian
//
// The units cover at most maxHashBatch blocks in all, and every varint
// is minimal. A command of one unit has an empty data segment: a bare
// v3 header, as a hash command was before it could carry more. A
// command with a unit list is stamped v9 (packedVersion), so a target
// that would read only its header refuses it rather than answering for
// the first unit alone, and a target refuses a list under any other
// version.
//
// The target hashes every unit and answers with an empty segment when
// each digest matched its own hashes, so a clean command costs its two
// headers. Otherwise the answer is a bitmap of one bit per unit
// (ceil(units/8) bytes, unit k at byte k/8, bit k%8, LSB first) set for
// each unit that differs, followed by the hashes of those units, in
// unit order. A one-unit answer has no bitmap: it is its unit's hashes.
// A unit with a zero digest always differs.

// HashUnit is one unit of a hash command: Count blocks from LBA, with
// Digest, the caller's digest of their hashes. Hashes is the target's
// answer for the unit: nil when Digest matched, else its Count hashes.
type HashUnit struct {
	LBA    uint64
	Count  uint32
	Digest uint64
	Hashes []uint64
}

// appendHashUnits appends to dst the unit list of a command whose
// first unit is units[0]: every unit after it. The units must ascend
// without overlapping: there is no gap to write for one that does not.
func appendHashUnits(dst []byte, units []HashUnit) ([]byte, error) {
	if len(units) == 0 || len(units) > maxHashBatch {
		return nil, fmt.Errorf("iscsi: hash command of %d units", len(units))
	}
	end := units[0].LBA + uint64(units[0].Count)
	for _, u := range units[1:] {
		if u.LBA < end {
			return nil, fmt.Errorf("iscsi: hash unit at %d overlaps or precedes the one ending at %d", u.LBA, end)
		}
		dst = binary.AppendUvarint(dst, u.LBA-end)
		dst = binary.AppendUvarint(dst, uint64(u.Count))
		dst = binary.BigEndian.AppendUint64(dst, u.Digest)
		end = u.LBA + uint64(u.Count)
	}
	return dst, nil
}

// decodeHashUnits parses the units of a hash command — the first from
// its header's lba, blocks and digest, the rest from list — into dst's
// backing array (a session reuses one from command to command). It is
// strict and bounded: every unit holds at least one block, the units
// hold at most maxHashBatch blocks in all, no unit ends past 2^64, every
// varint is minimal, and list holds whole entries and nothing after the
// last; so hostile input never panics, and dst never grows past
// maxHashBatch units.
func decodeHashUnits(dst []HashUnit, lba uint64, blocks uint32, digest uint64, list []byte) ([]HashUnit, error) {
	dst = dst[:0]
	total := uint64(0)
	for off := 0; ; {
		if blocks == 0 || total+uint64(blocks) > maxHashBatch || lba > math.MaxUint64-uint64(blocks) {
			return nil, fmt.Errorf("%w: hash unit of %d blocks at %d, %d blocks before it", ErrBadFrame, blocks, lba, total)
		}
		dst = append(dst, HashUnit{LBA: lba, Count: blocks, Digest: digest})
		total += uint64(blocks)
		if off == len(list) {
			return dst, nil
		}
		end := lba + uint64(blocks)
		gap, count, d, next, err := decodeHashUnit(list, off)
		if err != nil {
			return nil, err
		}
		if gap > math.MaxUint64-end || count > maxHashBatch {
			return nil, fmt.Errorf("%w: hash unit of %d blocks %d past %d", ErrBadFrame, count, gap, end)
		}
		lba, blocks, digest, off = end+gap, uint32(count), d, next
	}
}

// decodeHashUnit parses the unit list entry at list[off:] and returns
// its fields with the offset just past it.
func decodeHashUnit(list []byte, off int) (gap, count, digest uint64, next int, err error) {
	if gap, next, err = decodeUvarint(list, off); err != nil {
		return 0, 0, 0, 0, err
	}
	if count, next, err = decodeUvarint(list, next); err != nil {
		return 0, 0, 0, 0, err
	}
	if len(list)-next < HashSize {
		return 0, 0, 0, 0, fmt.Errorf("%w: hash unit digest cut at %d bytes", ErrShortFrame, len(list)-next)
	}
	return gap, count, binary.BigEndian.Uint64(list[next:]), next + HashSize, nil
}

// decodeHashAnswer parses the answer to a hash command over units into
// their Hashes (see the wire format above): nil for a unit whose digest
// matched, its Count hashes otherwise, all of them decoded into one
// allocation. An answer that leaves a unit without a digest unanswered,
// flags no unit or a unit that does not exist, or whose length is not
// exactly the flagged units' hashes is ErrShortFrame, and sets none.
func decodeHashAnswer(units []HashUnit, data []byte) error {
	for k := range units {
		units[k].Hashes = nil
	}
	// One unit: any answer is its hashes.
	hashes, differs := data, func(int) bool { return len(data) > 0 }
	if len(units) > 1 && len(data) > 0 {
		n := (len(units) + 7) / 8
		if len(data) < n {
			return fmt.Errorf("%w: hash answer of %d bytes for %d units", ErrShortFrame, len(data), len(units))
		}
		bitmap := data[:n]
		if tail := len(units) % 8; tail != 0 && bitmap[n-1]>>tail != 0 {
			return fmt.Errorf("%w: hash answer flags units past its %d", ErrShortFrame, len(units))
		}
		hashes, differs = data[n:], func(k int) bool { return bitmap[k/8]&(1<<(k%8)) != 0 }
	}
	want := 0
	for k, u := range units {
		switch {
		case differs(k):
			want += int(u.Count)
		case u.Digest == 0:
			return fmt.Errorf("%w: hash answer leaves unit %d+%d, sent without a digest, unanswered", ErrShortFrame, u.LBA, u.Count)
		}
	}
	if len(data) > 0 && want == 0 || len(hashes) != want*HashSize {
		return fmt.Errorf("%w: hash answer carries %d bytes of hashes, want %d", ErrShortFrame, len(hashes), want*HashSize)
	}
	all, err := DecodeHashes(hashes)
	if err != nil {
		return err
	}
	for k := range units {
		if c := units[k].Count; differs(k) {
			units[k].Hashes, all = all[:c:c], all[c:]
		}
	}
	return nil
}

// HashCmd is one hash command: its Units, each answered in its Hashes,
// and the buffer the command was last framed in, header and unit list
// together. A caller that sends its commands through one HashCmd after
// another, as a Span's does, frames a command of many units without
// allocating for its list.
type HashCmd struct {
	Units []HashUnit
	seg   []byte
}

// ReadHashUnits fetches, in one command and one round trip, the hashes
// of every unit of c whose digest does not match the target's copy,
// into the units' Hashes (nil for a unit that matched). The units must
// ascend without overlapping and hold at most 4096 blocks in all; the
// target refuses a command that breaks the rule with StatusBadRequest.
// A malformed answer is ErrShortFrame. A command of more than one unit
// is stamped v9, which a target that predates unit lists refuses.
func (i *Initiator) ReadHashUnits(c *HashCmd) error {
	// The header goes in front of the list; putHeader writes all of it.
	pdu, err := appendHashUnits(slices.Grow(c.seg[:0], headerLen)[:headerLen], c.Units)
	if err != nil {
		return err
	}
	c.seg = pdu
	first := &c.Units[0]
	resp, err := i.exchange(nil, true, func(_ *session, itt uint32) (net.Buffers, error) {
		p := PDU{Op: OpHashCmd, ITT: itt, LBA: first.LBA, Blocks: first.Count, Hash: first.Digest}
		p.putHeader(pdu, len(pdu)-headerLen)
		binary.BigEndian.PutUint32(pdu[44:], crc32.Checksum(pdu, castagnoli)) // putHeader left the digest field zero
		return net.Buffers{pdu}, nil
	})
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return statusErr("hash", first.LBA, resp.Status)
	}
	return decodeHashAnswer(c.Units, resp.Data)
}
