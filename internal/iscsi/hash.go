package iscsi

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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

// DecodeHashes parses an OpHashCmd response: consecutive big-endian
// block hashes (see HashBlock). The payload must be an exact multiple
// of HashSize: a trailing partial hash means the frame was truncated,
// and silently dropping it would let a delta resync skip the very
// blocks it needed to compare.
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

// AppendHashes appends hashes to dst in the OpHashCmd response
// encoding, the inverse of DecodeHashes. HashBlock of the result is
// the digest a ReadHashes request carries for that answer.
func AppendHashes(dst []byte, hashes []uint64) []byte {
	for _, h := range hashes {
		dst = binary.BigEndian.AppendUint64(dst, h)
	}
	return dst
}

// ReadHashes fetches the content hashes of count blocks starting at
// lba from the remote device. digest, when nonzero, is the caller's
// digest of the answer it expects: HashBlock of the count big-endian
// hashes of its own copy of the blocks. A replica whose answer digests
// to the same value sends an empty data segment instead, and
// ReadHashes reports match with nil hashes; otherwise, and always for
// a zero digest, it returns the replica's count hashes. Any other
// segment length is ErrShortFrame.
func (i *Initiator) ReadHashes(lba uint64, count uint32, digest uint64) (hashes []uint64, match bool, err error) {
	resp, err := i.roundTrip(&PDU{Op: OpHashCmd, LBA: lba, Blocks: count, Hash: digest})
	if err != nil {
		return nil, false, err
	}
	if resp.Status != StatusOK {
		return nil, false, statusErr("hash", lba, resp.Status)
	}
	if digest != 0 && len(resp.Data) == 0 {
		return nil, true, nil
	}
	if got, want := len(resp.Data), int(count)*HashSize; got != want {
		return nil, false, fmt.Errorf("%w: hash response carries %d bytes, want %d", ErrShortFrame, got, want)
	}
	hashes, err = DecodeHashes(resp.Data)
	return hashes, false, err
}
