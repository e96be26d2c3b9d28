// Package parity implements the XOR block mathematics at the heart of
// PRINS: the forward parity computation P' = A_new XOR A_old performed
// at the primary on every block write (Eq. 1 of the paper), and the
// backward parity computation A_new = P' XOR A_old performed at the
// replica (Eq. 2). It also provides change-density statistics used to
// validate the paper's 5-20% block-change observation, and stripe
// parity helpers shared with the RAID substrate.
package parity

import (
	"crypto/subtle"
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
// length; dst may alias a or b exactly or not at all (a dst that
// overlaps an operand at any other offset panics). The kernel is
// crypto/subtle.XORBytes, which runs at the hardware's vector width.
func XOR(dst, a, b []byte) error {
	if len(a) != len(b) || len(dst) != len(a) {
		return fmt.Errorf("%w: dst=%d a=%d b=%d", ErrLengthMismatch, len(dst), len(a), len(b))
	}
	subtle.XORBytes(dst, a, b)
	return nil
}

// XORBytes computes and returns a XOR b in a freshly allocated slice.
func XORBytes(a, b []byte) ([]byte, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("%w: a=%d b=%d", ErrLengthMismatch, len(a), len(b))
	}
	dst := make([]byte, len(a))
	subtle.XORBytes(dst, a, b)
	return dst, nil
}

// XORInPlace computes dst ^= src.
func XORInPlace(dst, src []byte) error {
	return XOR(dst, dst, src)
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
// it walks the block 8 bytes at a time and counts every word the same
// branch-free way (nonZeroByteMask + popcount), four words per step:
// the cost is the same on an all-zero block and on an incompressible
// one, and there is no branch for dense parity to mispredict.
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
// non-zero bytes in the result: the forward-parity XOR (Eq. 1) followed
// by the density scan, as two passes over a block that is still in L1
// for the second: the vector-width XOR plus the branch-free count
// (519 ns per 4 KiB) beats one fused 8-byte pass (704 ns), which cannot
// use the wide kernel. dst may alias a or b exactly or not at all.
func XORCountNonZero(dst, a, b []byte) (int, error) {
	if err := XOR(dst, a, b); err != nil {
		return 0, err
	}
	return NonZeroBytes(dst), nil
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
