// Package parity implements the XOR block mathematics at the heart of
// PRINS: the forward parity computation P' = A_new XOR A_old performed
// at the primary on every block write (Eq. 1 of the paper), and the
// backward parity computation A_new = P' XOR A_old performed at the
// replica (Eq. 2). It also provides change-density statistics used to
// validate the paper's 5-20% block-change observation, and stripe
// parity helpers shared with the RAID substrate.
package parity

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrLengthMismatch is returned when operands of an XOR operation have
// different lengths. Parity is only defined block-against-block.
var ErrLengthMismatch = errors.New("parity: operand length mismatch")

const wordSize = 8

// XOR computes dst = a XOR b. All three slices must have the same
// length; dst may alias a or b. It processes 8 bytes per step on the
// aligned middle of the block and falls back to byte operations on the
// tail, which for power-of-two block sizes never happens.
func XOR(dst, a, b []byte) error {
	if len(a) != len(b) || len(dst) != len(a) {
		return fmt.Errorf("%w: dst=%d a=%d b=%d", ErrLengthMismatch, len(dst), len(a), len(b))
	}
	xorWords(dst, a, b)
	return nil
}

// XORBytes computes and returns a XOR b in a freshly allocated slice.
func XORBytes(a, b []byte) ([]byte, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("%w: a=%d b=%d", ErrLengthMismatch, len(a), len(b))
	}
	dst := make([]byte, len(a))
	xorWords(dst, a, b)
	return dst, nil
}

// XORInPlace computes dst ^= src.
func XORInPlace(dst, src []byte) error {
	return XOR(dst, dst, src)
}

// xorWords is the internal kernel: 8-byte wide XOR with a byte-wise
// tail. binary.LittleEndian.Uint64 compiles to a single load on
// little-endian machines.
func xorWords(dst, a, b []byte) {
	n := len(a)
	i := 0
	for ; i+wordSize <= n; i += wordSize {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(a[i:])^binary.LittleEndian.Uint64(b[i:]))
	}
	for ; i < n; i++ {
		dst[i] = a[i] ^ b[i]
	}
}

// Forward computes the forward parity P' = newData XOR oldData that
// PRINS replicates in place of the data block (paper Eq. 1, first
// term). The result is written into a new slice.
func Forward(newData, oldData []byte) ([]byte, error) {
	return XORBytes(newData, oldData)
}

// ForwardInto computes the forward parity into p, avoiding allocation
// on the hot write path.
func ForwardInto(p, newData, oldData []byte) error {
	return XOR(p, newData, oldData)
}

// Backward recovers the new data from the replicated parity and the old
// data held at the replica: A_new = P' XOR A_old (paper Eq. 2).
func Backward(parityBlock, oldData []byte) ([]byte, error) {
	return XORBytes(parityBlock, oldData)
}

// BackwardInto recovers the new data into dst.
func BackwardInto(dst, parityBlock, oldData []byte) error {
	return XOR(dst, parityBlock, oldData)
}

// IsZero reports whether every byte of p is zero, i.e. the write did
// not change the block at all. The engine may skip replication of such
// writes entirely.
func IsZero(p []byte) bool {
	n := len(p)
	i := 0
	var acc uint64
	for ; i+wordSize <= n; i += wordSize {
		acc |= binary.LittleEndian.Uint64(p[i:])
	}
	if acc != 0 {
		return false
	}
	for ; i < n; i++ {
		if p[i] != 0 {
			return false
		}
	}
	return true
}

// NonZeroBytes counts the bytes of p that are non-zero. For a parity
// block this is the number of byte positions at which the write changed
// the block. It runs on every write when density recording is on, so
// like the XOR kernel it walks the block 8 bytes at a time, and it
// counts every word the same branch-free way (nonZeroByteMask +
// popcount), four words per step: the cost is the same on an all-zero
// block and on an incompressible one, and there is no branch for dense
// parity to mispredict.
func NonZeroBytes(p []byte) int {
	count := 0
	for ; len(p) >= 4*wordSize; p = p[4*wordSize:] {
		count += bits.OnesCount64(nonZeroByteMask(binary.LittleEndian.Uint64(p[0:]))) +
			bits.OnesCount64(nonZeroByteMask(binary.LittleEndian.Uint64(p[8:]))) +
			bits.OnesCount64(nonZeroByteMask(binary.LittleEndian.Uint64(p[16:]))) +
			bits.OnesCount64(nonZeroByteMask(binary.LittleEndian.Uint64(p[24:])))
	}
	for ; len(p) >= wordSize; p = p[wordSize:] {
		count += bits.OnesCount64(nonZeroByteMask(binary.LittleEndian.Uint64(p)))
	}
	for _, v := range p {
		if v != 0 {
			count++
		}
	}
	return count
}

// XORCountNonZero computes dst = a XOR b and returns the number of
// non-zero bytes in the result, in a single pass over the block. It
// fuses the forward-parity XOR (Eq. 1) with the density scan that
// NonZeroBytes would otherwise perform as a second walk: the word is
// already in a register after the XOR, so counting its non-zero bytes
// costs a handful of ALU ops instead of a second memory sweep. dst may
// alias a or b. Every word is counted branch-free (nonZeroByteMask +
// math/bits.OnesCount64), four words per step, so sparse and dense
// parity cost the same.
func XORCountNonZero(dst, a, b []byte) (int, error) {
	if len(a) != len(b) || len(dst) != len(a) {
		return 0, fmt.Errorf("%w: dst=%d a=%d b=%d", ErrLengthMismatch, len(dst), len(a), len(b))
	}
	count := 0
	n := len(a)
	i := 0
	for ; i+4*wordSize <= n; i += 4 * wordSize {
		a4, b4, d4 := a[i:i+4*wordSize], b[i:i+4*wordSize], dst[i:i+4*wordSize]
		w0 := binary.LittleEndian.Uint64(a4[0:]) ^ binary.LittleEndian.Uint64(b4[0:])
		w1 := binary.LittleEndian.Uint64(a4[8:]) ^ binary.LittleEndian.Uint64(b4[8:])
		w2 := binary.LittleEndian.Uint64(a4[16:]) ^ binary.LittleEndian.Uint64(b4[16:])
		w3 := binary.LittleEndian.Uint64(a4[24:]) ^ binary.LittleEndian.Uint64(b4[24:])
		binary.LittleEndian.PutUint64(d4[0:], w0)
		binary.LittleEndian.PutUint64(d4[8:], w1)
		binary.LittleEndian.PutUint64(d4[16:], w2)
		binary.LittleEndian.PutUint64(d4[24:], w3)
		count += bits.OnesCount64(nonZeroByteMask(w0)) + bits.OnesCount64(nonZeroByteMask(w1)) +
			bits.OnesCount64(nonZeroByteMask(w2)) + bits.OnesCount64(nonZeroByteMask(w3))
	}
	for ; i+wordSize <= n; i += wordSize {
		w := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
		binary.LittleEndian.PutUint64(dst[i:], w)
		count += bits.OnesCount64(nonZeroByteMask(w))
	}
	for ; i < n; i++ {
		v := a[i] ^ b[i]
		dst[i] = v
		if v != 0 {
			count++
		}
	}
	return count, nil
}

// nonZeroByteMask returns a word with bit 7 set in every byte lane of
// w that is non-zero, so popcount of the mask is the number of
// non-zero bytes. Pre-setting each lane's high bit before the
// subtraction blocks inter-lane borrow, which makes the per-lane test
// exact — the classic `(w - lows) &^ w & highs` haszero mask is only
// exact as an any-zero test, not as a per-byte count.
func nonZeroByteMask(w uint64) uint64 {
	const (
		lows  = 0x0101010101010101
		highs = 0x8080808080808080
	)
	return (w | ((w | highs) - lows)) & highs
}
