// Package xcode implements the encodings PRINS and its baselines use to
// put blocks on the wire. A forward-parity block is mostly zeros (only
// 5-20% of a block changes on a typical write), so a zero-run-length
// scheme collapses it to little more than the changed bytes; the paper
// calls this "a simple encoding scheme [that] can substantially reduce
// the size of the parity". The traditional-with-compression baseline
// compresses whole data blocks with DEFLATE, standing in for the
// paper's zlib [22].
//
// Every encoded payload is a self-describing frame: a one-byte codec
// identifier, a 4-byte big-endian decoded length, then the codec
// payload. Decode picks the registered codec from the frame, so the
// receiving engine needs no out-of-band negotiation.
package xcode

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
)

// Codec identifies an encoding scheme within a frame.
type Codec uint8

// Supported codecs. The zero value is invalid on the wire so that an
// all-zero (corrupt) frame never decodes silently, and so is 4, which
// once named a per-frame ZRL+DEFLATE codec: the second stage now runs
// over a whole list's stream (StreamDeflater), and a frame naming 4 is
// refused as unknown.
const (
	// CodecRaw stores the payload verbatim (traditional replication).
	CodecRaw Codec = 1
	// CodecZRL zero-run-length encodes sparse parity blocks.
	CodecZRL Codec = 2
	// CodecFlate DEFLATE-compresses the payload (compression baseline).
	CodecFlate Codec = 3
	// CodecMask is a masked redo: a CodecZRL frame's zero-run structure
	// with A_new's bytes for its literals (AppendMask builds it from the
	// parity's frame and the new block). It means nothing without the
	// pre-image it lands on (MaskInto), so Decode, DecodeInto and
	// XORInto refuse it.
	CodecMask Codec = 5
)

// String returns the codec's short name.
func (c Codec) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecZRL:
		return "zrl"
	case CodecFlate:
		return "flate"
	case CodecMask:
		return "mask"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// Valid reports whether c names a supported codec.
func (c Codec) Valid() bool {
	return c >= CodecRaw && c <= CodecFlate || c == CodecMask
}

// Frame layout constants.
const (
	headerLen = 5 // 1 byte codec + 4 bytes decoded length

	// MaxBlockLen bounds the decoded length accepted from the wire,
	// protecting the replica from hostile or corrupt frames that claim
	// enormous sizes. 16 MiB is far above any block size in use.
	MaxBlockLen = 16 << 20
)

// Error values callers can match with errors.Is.
var (
	ErrBadFrame    = errors.New("xcode: malformed frame")
	ErrUnknownCode = errors.New("xcode: unknown codec")
	ErrTooLarge    = errors.New("xcode: decoded length exceeds limit")
)

// Encode encodes block with the given codec and returns the framed
// payload in a fresh buffer. The input block is not modified.
func Encode(c Codec, block []byte) ([]byte, error) {
	return AppendEncode(nil, c, block)
}

// AppendEncode appends the framed encoding of block to dst and returns
// the extended slice. It is the allocation-free variant of Encode for
// hot paths that pool frame buffers: pass dst with spare capacity and
// no allocation happens beyond what the codec body itself needs. The
// input block is not modified and never aliased into the result.
func AppendEncode(dst []byte, c Codec, block []byte) ([]byte, error) {
	if len(block) > MaxBlockLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(block))
	}
	base := len(dst)
	dst = append(dst, byte(c), 0, 0, 0, 0)
	switch c {
	case CodecRaw:
		dst = append(dst, block...)
	case CodecZRL:
		dst = zrlAppend(dst, block, zrlMaxGap)
	case CodecFlate:
		var err error
		if dst, err = appendDeflate(dst, block); err != nil {
			return nil, err
		}
	case CodecMask:
		return nil, fmt.Errorf("%w: a mask frame is built from a zrl frame (AppendMask)", ErrBadFrame)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownCode, uint8(c))
	}
	binary.BigEndian.PutUint32(dst[base+1:base+5], uint32(len(block)))
	return dst, nil
}

// AppendRawHeader appends the header of a CodecRaw frame whose body is
// the n bytes that follow it: header and body together are the frame
// AppendEncode(dst, CodecRaw, body) builds, so a sender can put the
// body on the wire from where it lies instead of copying it behind the
// header.
func AppendRawHeader(dst []byte, n int) []byte {
	return binary.BigEndian.AppendUint32(append(dst, byte(CodecRaw)), uint32(n))
}

// RawBody returns the body of a CodecRaw frame in place, no copy, and
// false for a frame in any other codec or whose body is not exactly its
// declared length.
func RawBody(frame []byte) ([]byte, bool) {
	c, n, body, err := splitFrame(frame)
	if err != nil || c != CodecRaw || len(body) != n {
		return nil, false
	}
	return body, true
}

// EncodeBest encodes block with every candidate codec and returns the
// smallest frame, never larger than the raw framing of the block:
// CodecRaw is always considered as a floor, because every candidate
// codec can expand on dense, high-entropy input (ZRL's worst case is
// ~3x) and shipping a frame larger than the block itself defeats the
// point of encoding. The engine's write path passes ZRL alone; the
// second stage, where it pays, is the shipper's (StreamDeflater, over a
// run's ZRL frames at once).
func EncodeBest(block []byte, candidates ...Codec) ([]byte, error) {
	return AppendEncodeBest(nil, block, candidates...)
}

// AppendEncodeBest is EncodeBest appending into dst (see AppendEncode).
// The returned frame always satisfies len(frame) <= len(block) plus the
// frame header, via the CodecRaw floor.
func AppendEncodeBest(dst []byte, block []byte, candidates ...Codec) ([]byte, error) {
	if len(candidates) == 0 {
		return nil, errors.New("xcode: no candidate codecs")
	}
	base := len(dst)
	best := -1
	for _, c := range candidates {
		cur := len(dst)
		var err error
		dst, err = AppendEncode(dst, c, block)
		if err != nil {
			return nil, err
		}
		if n := len(dst) - cur; best < 0 || n < best {
			copy(dst[base:], dst[cur:]) // move the new best into the result slot
			best = n
		}
		dst = dst[:base+best]
	}
	if best > headerLen+len(block) {
		return AppendEncode(dst[:base], CodecRaw, block)
	}
	return dst, nil
}

// EncodeExact encodes block as a CodecZRL frame whose literals are
// exactly block's nonzero bytes — no zero gap is absorbed into a
// literal, as Encode's would be — floored at CodecRaw like EncodeBest.
// A coalesced parity is framed this way where it gets a masked twin:
// every byte under the twin's literals is then one some write changed.
func EncodeExact(block []byte) ([]byte, error) {
	if len(block) > MaxBlockLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(block))
	}
	dst := binary.BigEndian.AppendUint32([]byte{byte(CodecZRL)}, uint32(len(block)))
	if dst = zrlAppend(dst, block, 1); len(dst) > headerLen+len(block) {
		return Encode(CodecRaw, block)
	}
	return dst, nil
}

// Decode decodes a frame produced by Encode, returning the original
// block in a fresh buffer. Corrupt or truncated frames yield
// ErrBadFrame; unregistered codec bytes yield ErrUnknownCode. The buffer
// is sized by the frame's declared length before the body is looked at:
// a caller facing untrusted frames checks DecodedLen against the length
// it expects first, or uses DecodeInto.
func Decode(frame []byte) ([]byte, error) {
	c, decodedLen, body, err := splitFrame(frame)
	if err != nil {
		return nil, err
	}
	// XOR into the zeroed buffer: the one pass skips zero runs instead of
	// clearing them a second time.
	out := make([]byte, decodedLen)
	if err := decodeBody(out, c, body, true); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto decodes frame into dst, which must be exactly as long as
// the frame's declared length and may hold anything. It allocates
// nothing. On error dst holds garbage.
func DecodeInto(dst, frame []byte) error { return decodeFrame(dst, frame, false) }

// XORInto folds the block frame decodes to into dst: dst ^= Decode(frame),
// without materializing the block. For a ZRL parity frame that is the
// replica's backward computation A_new = P' XOR A_old at a cost
// proportional to the changed bytes — zero runs are skipped, only
// literal bytes are touched. dst must be exactly as long as the frame's
// declared length. It allocates nothing. On error dst holds garbage.
func XORInto(dst, frame []byte) error { return decodeFrame(dst, frame, true) }

// decodeFrame is DecodeInto (xor false) and XORInto (xor true).
func decodeFrame(dst, frame []byte, xor bool) error {
	c, decodedLen, body, err := splitFrame(frame)
	if err != nil {
		return err
	}
	if len(dst) != decodedLen {
		return fmt.Errorf("%w: frame declares %d bytes, buffer holds %d", ErrBadFrame, decodedLen, len(dst))
	}
	return decodeBody(dst, c, body, xor)
}

// decodeBody is the one frame-body decoder: it writes the block a
// codec-c body decodes to over dst, or XORs it into dst, where len(dst)
// is the frame's declared length. CodecFlate inflates into a pooled
// inflater's scratch and goes on from there.
func decodeBody(dst []byte, c Codec, body []byte, xor bool) error {
	switch c {
	case CodecRaw:
		return putBlock(dst, body, xor)
	case CodecZRL:
		return zrlWalk(dst, body, walkOf(xor), nil)
	case CodecMask:
		return errMaskDecode
	case CodecFlate:
		f := getInflater()
		defer inflaterPool.Put(f)
		mid, err := f.inflate(f.mid[:0], body, len(dst))
		if err != nil {
			return err
		}
		f.mid = mid
		return putBlock(dst, mid, xor)
	default:
		return fmt.Errorf("%w: %d", ErrUnknownCode, uint8(c))
	}
}

// errMaskDecode refuses a mask frame where a block is expected: its
// zero runs stand for the pre-image's bytes, not for zeros.
var errMaskDecode = fmt.Errorf("%w: a mask frame decodes only onto its pre-image (MaskInto)", ErrBadFrame)

// putBlock lands a whole decoded block: dst = block, or dst ^= block.
func putBlock(dst, block []byte, xor bool) error {
	if len(block) != len(dst) {
		return fmt.Errorf("%w: body decodes to %d bytes, declared %d", ErrBadFrame, len(block), len(dst))
	}
	if xor {
		subtle.XORBytes(dst, dst, block)
	} else {
		copy(dst, block)
	}
	return nil
}

// AppendMask appends the CodecMask twin of a CodecZRL frame to dst: the
// frame with its codec byte changed and each literal replaced by the
// bytes of src at the literal's positions. With frame the ZRL frame of
// P' = A_new XOR A_old and src A_new, the twin is the masked redo of the
// write, exactly as long as the frame: A_new's bytes wherever the
// parity's frame carries a literal. src must be exactly as long as the
// frame's declared length. On error dst is returned unextended.
func AppendMask(dst, frame, src []byte) ([]byte, error) {
	c, n, body, err := splitFrame(frame)
	if err != nil {
		return dst, err
	}
	if c != CodecZRL {
		return dst, fmt.Errorf("%w: a mask twins a zrl frame, not %v", ErrBadFrame, c)
	}
	if n != len(src) {
		return dst, fmt.Errorf("%w: frame declares %d bytes, source holds %d", ErrBadFrame, n, len(src))
	}
	base := len(dst)
	dst = append(dst, frame...)
	dst[base] = byte(CodecMask)
	if err := zrlWalk(src, body, walkGather, dst[base+headerLen:]); err != nil {
		return dst[:base], err
	}
	return dst, nil
}

// MaskInto lands a CodecMask frame on the pre-image in dst — each
// literal overwrites dst at its positions, zero runs leave dst alone —
// and appends to rebuilt the CodecZRL frame the mask was made from as
// this pre-image would have it: the same bytes, with each literal XORed
// with the pre-image bytes it overwrote. On the pre-image the primary
// held, that is the parity frame it built; a pre-image byte that differs
// under a literal changes the rebuilt frame, and one that differs
// elsewhere survives into dst. dst must be exactly as long as the
// frame's declared length; the rebuilt frame is exactly as long as the
// mask frame. It allocates nothing beyond what rebuilt needs to grow.
// On error dst holds garbage and rebuilt is returned unextended.
func MaskInto(dst, frame, rebuilt []byte) ([]byte, error) {
	c, n, body, err := splitFrame(frame)
	if err != nil {
		return rebuilt, err
	}
	if c != CodecMask {
		return rebuilt, fmt.Errorf("%w: %v frame is not a mask", ErrBadFrame, c)
	}
	if len(dst) != n {
		return rebuilt, fmt.Errorf("%w: frame declares %d bytes, buffer holds %d", ErrBadFrame, n, len(dst))
	}
	base := len(rebuilt)
	rebuilt = append(rebuilt, frame...)
	rebuilt[base] = byte(CodecZRL)
	if err := zrlWalk(dst, body, walkMask, rebuilt[base+headerLen:]); err != nil {
		return rebuilt[:base], err
	}
	return rebuilt, nil
}

// FrameCodec returns the codec identifier of a frame without decoding
// its body.
func FrameCodec(frame []byte) (Codec, error) {
	c, _, _, err := splitFrame(frame)
	return c, err
}

// DecodedLen returns the declared decoded length of a frame.
func DecodedLen(frame []byte) (int, error) {
	_, n, _, err := splitFrame(frame)
	return n, err
}

func splitFrame(frame []byte) (Codec, int, []byte, error) {
	if len(frame) < headerLen {
		return 0, 0, nil, fmt.Errorf("%w: frame %d bytes", ErrBadFrame, len(frame))
	}
	c := Codec(frame[0])
	if !c.Valid() {
		return 0, 0, nil, fmt.Errorf("%w: %d", ErrUnknownCode, frame[0])
	}
	n := int(binary.BigEndian.Uint32(frame[1:5]))
	if n > MaxBlockLen {
		return 0, 0, nil, fmt.Errorf("%w: declared %d bytes", ErrTooLarge, n)
	}
	return c, n, frame[headerLen:], nil
}
