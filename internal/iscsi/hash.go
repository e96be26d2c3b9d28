package iscsi

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// maxHashBatch bounds one OpHashCmd request: the blocks a target reads
// (one at a time) and the 32 KiB of hashes it answers with.
const maxHashBatch = 4096

// HashSize is the bytes per block hash on the wire.
const HashSize = 8

// HashBlock returns the 64-bit FNV-1a content hash of one block, the
// unit of comparison for delta resync.
func HashBlock(data []byte) uint64 {
	h := fnv.New64a()
	//lint:ignore hold-blocking fnv.Hash writes are in-memory compute, not a blocking sink
	h.Write(data)
	return h.Sum64()
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

// ReadHashes fetches the content hashes of count blocks starting at
// lba from the remote device.
func (i *Initiator) ReadHashes(lba uint64, count uint32) ([]uint64, error) {
	resp, err := i.roundTrip(&PDU{Op: OpHashCmd, LBA: lba, Blocks: count})
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, statusErr("hash", lba, resp.Status)
	}
	if got, want := len(resp.Data), int(count)*HashSize; got != want {
		return nil, fmt.Errorf("%w: hash response carries %d bytes, want %d", ErrShortFrame, got, want)
	}
	return DecodeHashes(resp.Data)
}
