package xcode

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Zero-run-length coding for sparse parity blocks.
//
// The stream is a sequence of segments:
//
//	varint skip     — number of zero bytes to emit
//	varint litLen   — number of literal bytes that follow
//	litLen bytes    — the literal (changed) bytes
//
// A trailing run of zeros is represented by a final segment with
// litLen == 0, so every stream explicitly accounts for the whole block
// and decoding is unambiguous given the declared decoded length.

// zrlMaxGap is one more than the longest zero gap zrlAppend absorbs
// into a literal: a gap of 1-3 zero bytes costs at most as much inline
// as the two varints of a new segment.
const zrlMaxGap = 4

// zrlAppend appends the ZRL stream for block to out, absorbing zero gaps
// shorter than maxGap into the literals around them (maxGap 1 absorbs
// none: every literal byte is then a nonzero byte). It reads the block
// a 64-bit word at a time: a zero run costs one compare per eight
// bytes, and a literal run costs one SWAR has-zero-byte test per eight
// bytes, so an incompressible block is scanned in about n/8 steps. Only
// a word that holds a zero byte drops to byte steps, for the gap-merge
// decision below.
func zrlAppend(out, block []byte, maxGap int) []byte {
	const (
		lows  = 0x0101010101010101
		highs = 0x8080808080808080
	)
	i := 0
	n := len(block)
	for i < n {
		// Count the zero run. The word that ends it names its first
		// non-zero byte, so the byte loop only ever walks the tail.
		start := i
		for i+8 <= n {
			w := binary.LittleEndian.Uint64(block[i:])
			if w != 0 {
				i += bits.TrailingZeros64(w) >> 3
				break
			}
			i += 8
		}
		for i < n && block[i] == 0 {
			i++
		}
		skip := i - start

		// Count the literal run. Extending a literal across a short
		// interior zero gap is cheaper than starting a new segment
		// (two varints); merge gaps shorter than maxGap bytes.
		litStart := i
		for i < n {
			// Advance i to the next zero byte. (w-lows)&^w&highs has
			// bit 7 set in the lowest zero byte of w (higher lanes can
			// be false positives through the borrow, the lowest set
			// lane cannot), and is 0 when w has no zero byte.
			if i+8 <= n {
				w := binary.LittleEndian.Uint64(block[i:])
				z := (w - lows) &^ w & highs
				if z == 0 {
					i += 8
					continue
				}
				i += bits.TrailingZeros64(z) >> 3
			} else {
				for i < n && block[i] != 0 {
					i++
				}
				if i == n {
					break
				}
			}
			// block[i] == 0. Look ahead: absorb a zero gap shorter than
			// maxGap into the literal if a non-zero byte follows it; a
			// longer gap, or one that runs to the end of the block, ends
			// the literal here.
			j := i + 1
			for j < n && block[j] == 0 && j-i < maxGap {
				j++
			}
			if j == n || block[j] == 0 || j-i == maxGap {
				break
			}
			i = j
		}
		lit := block[litStart:i]

		out = binary.AppendUvarint(out, uint64(skip))
		out = binary.AppendUvarint(out, uint64(len(lit)))
		out = append(out, lit...)
	}
	if len(block) == 0 {
		// Canonical empty stream: one zero-length segment.
		out = append(out, 0, 0)
	}
	return out
}

// walkOp is what zrlWalk does with each segment of a stream.
type walkOp uint8

const (
	// walkSet writes the block over dst: zero runs cleared, literals
	// copied.
	walkSet walkOp = iota
	// walkXOR XORs the block into dst, which leaves zero runs alone and
	// touches literal bytes only.
	walkXOR
	// walkMask lands a mask's literals on dst, leaving zero runs alone,
	// after writing each literal XOR the dst bytes it overwrites to out,
	// at the literal's place in the stream.
	walkMask
	// walkGather leaves dst alone and copies the dst bytes under each
	// literal to out, at the literal's place in the stream.
	walkGather
)

// walkOf is the walk DecodeInto (xor false) or XORInto (xor true) runs.
func walkOf(xor bool) walkOp {
	if xor {
		return walkXOR
	}
	return walkSet
}

// zrlWalk is the one ZRL stream walker, and so the one decoder of every
// frame with a zero-run structure: it walks stream over dst, the whole
// decoded block, doing op at each segment. out, which walkMask and
// walkGather write, is exactly as long as stream and lines up with it
// byte for byte; the other ops ignore it. A segment that would overrun
// dst or the stream is ErrBadFrame; dst and out then hold garbage.
func zrlWalk(dst, stream []byte, op walkOp, out []byte) error {
	if (op == walkMask || op == walkGather) && len(out) != len(stream) {
		return fmt.Errorf("%w: %d-byte output for a %d-byte stream", ErrBadFrame, len(out), len(stream))
	}
	pos := 0
	i := 0
	for i < len(stream) {
		skip, n1 := binary.Uvarint(stream[i:])
		if n1 <= 0 {
			return fmt.Errorf("%w: bad zrl skip varint at %d", ErrBadFrame, i)
		}
		i += n1
		litLen, n2 := binary.Uvarint(stream[i:])
		if n2 <= 0 {
			return fmt.Errorf("%w: bad zrl literal varint at %d", ErrBadFrame, i)
		}
		i += n2

		if skip > uint64(len(dst)-pos) {
			return fmt.Errorf("%w: zrl skip overruns block", ErrBadFrame)
		}
		if op == walkSet {
			clear(dst[pos : pos+int(skip)])
		}
		pos += int(skip)

		if litLen > uint64(len(stream)-i) || litLen > uint64(len(dst)-pos) {
			return fmt.Errorf("%w: zrl literal overruns", ErrBadFrame)
		}
		lit, at := stream[i:i+int(litLen)], dst[pos:pos+int(litLen)]
		switch op {
		case walkSet:
			copy(at, lit)
		case walkXOR:
			subtle.XORBytes(at, at, lit)
		case walkMask:
			subtle.XORBytes(out[i:i+len(lit)], lit, at)
			copy(at, lit)
		case walkGather:
			copy(out[i:i+len(lit)], at)
		}
		pos += int(litLen)
		i += int(litLen)
	}
	// Trailing-zeros contract: a stream may end with pos < len(dst), and
	// the remaining bytes are implied zeros (under a mask, the
	// pre-image's own). Streams that would overrun dst were rejected
	// above, so pos never exceeds it.
	if op == walkSet {
		clear(dst[pos:])
	}
	return nil
}
