package iscsi

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"net"

	"prins/internal/xcode"
)

// Repair spans (OpWriteSpan). A resync repairs the blocks that differ
// in a stretch of the device, stepping over the ones that match, and
// ships them in one PDU whose header names the stretch — LBA its first
// block, Blocks its length — and whose data segment is:
//
//	mask  (ceil(Blocks/8) bytes) bit i (byte i/8, bit i%8, LSB first)
//	                             set = block LBA+i is present
//	frame (an xcode frame)       the present blocks, concatenated in
//	                             LBA order: popcount(mask) x block size
//	                             bytes once decoded
//
// The frame is CodecFlate when DEFLATE shrank the blocks and CodecRaw
// otherwise; a raw span leaves the initiator vectored (header, mask and
// frame header, the blocks from where they lie) and is landed from the
// target's request buffer in place. Every span is self-contained — no
// compression state is shared between PDUs — so spans need no order
// among themselves, and a resent span rewrites the same whole blocks.
// The target lands each run of consecutive present blocks through
// Backend.HandleWrite; the response is a plain OpResp.

// SpanMaskLen returns the mask bytes of a span of blocks blocks.
func SpanMaskLen(blocks uint32) int { return int((uint64(blocks) + 7) / 8) }

// Span is one repair span: the blocks of [LBA, LBA+Blocks) whose bit is
// set in Mask, carried in Data, concatenated in LBA order.
type Span struct {
	LBA    uint64
	Blocks uint32
	Mask   []byte
	Data   []byte
	// Compress ships Data as one DEFLATE frame, floored at raw, rather
	// than as a raw frame sent from Data in place.
	Compress bool

	seg []byte // the mask and the frame (or raw frame header) as sent, kept across calls
}

// segment builds the span's data segment as pieces in wire order into
// s.seg — the mask and the frame, or, for a raw span, the mask and the
// frame header followed by Data itself — and returns them.
func (s *Span) segment(bs int) (net.Buffers, error) {
	if s.Blocks == 0 || len(s.Mask) != SpanMaskLen(s.Blocks) {
		return nil, fmt.Errorf("iscsi: span of %d blocks with a %d-byte mask", s.Blocks, len(s.Mask))
	}
	if n := popcount(s.Mask); n == 0 || bs <= 0 || len(s.Data) != n*bs {
		return nil, fmt.Errorf("iscsi: span of %d present blocks carries %d bytes, block size %d", n, len(s.Data), bs)
	}
	s.seg = append(s.seg[:0], s.Mask...)
	if !s.Compress {
		s.seg = xcode.AppendRawHeader(s.seg, len(s.Data))
		return net.Buffers{s.seg, s.Data}, nil
	}
	seg, err := xcode.AppendEncodeBest(s.seg, s.Data, xcode.CodecFlate)
	if err != nil {
		return nil, err
	}
	s.seg = seg
	return net.Buffers{s.seg}, nil
}

// WriteSpan ships one repair span in one PDU and one round trip and
// returns the data-segment bytes it sent, the mask and the frame. The
// replica lands every present block or answers an error; a span that
// failed, or lost its response, can be resent as it is. Data is only
// read, and a raw span's blocks go out from Data without a copy.
func (i *Initiator) WriteSpan(s *Span) (sent int, err error) {
	pieces, err := s.segment(i.BlockSize())
	if err != nil {
		return 0, err
	}
	for _, p := range pieces {
		sent += len(p)
	}
	if sent > MaxDataSegment {
		return 0, fmt.Errorf("%w: span of %d bytes", ErrTooLarge, sent)
	}
	resp, err := i.exchange(nil, func(_ *session, itt uint32) (net.Buffers, error) {
		hdr := make([]byte, headerLen)
		p := PDU{Op: OpWriteSpan, ITT: itt, LBA: s.LBA, Blocks: s.Blocks}
		p.putHeader(hdr, sent)
		crc := crc32.Checksum(hdr, castagnoli) // putHeader left the digest field zero
		for _, piece := range pieces {
			crc = crc32.Update(crc, castagnoli, piece)
		}
		binary.BigEndian.PutUint32(hdr[44:], crc)
		return append(net.Buffers{hdr}, pieces...), nil
	})
	if err != nil {
		return 0, err
	}
	if resp.Status != StatusOK {
		return 0, statusErr("write-span", s.LBA, resp.Status)
	}
	return sent, nil
}

// popcount returns the set bits of mask.
func popcount(mask []byte) int {
	n := 0
	for _, b := range mask {
		n += bits.OnesCount8(b)
	}
	return n
}

// decodeSpan validates the data segment of an OpWriteSpan PDU for the
// span [lba, lba+blocks) of a device of nb blocks of bs bytes, and
// returns its mask and its present blocks, concatenated. A CodecRaw
// frame's blocks alias data; any other frame is decoded into *scratch,
// which is grown to popcount(mask) x bs — never to the frame's declared
// length — and kept there for the next span. Decoding is strict: an
// empty span, one past the device or larger than MaxDataSegment, a
// segment too short for its mask, an empty mask, mask bits past
// blocks, and a frame that does not decode to exactly the present
// blocks are errors, and hostile input never panics or over-allocates.
func decodeSpan(scratch *[]byte, data []byte, lba uint64, blocks uint32, bs int, nb uint64) (mask, present []byte, err error) {
	switch {
	case blocks == 0 || bs <= 0:
		return nil, nil, fmt.Errorf("%w: span of %d blocks of %d bytes", ErrBadFrame, blocks, bs)
	case uint64(blocks) > nb || lba > nb-uint64(blocks):
		return nil, nil, fmt.Errorf("%w: span %d+%d past a %d-block device", ErrBadFrame, lba, blocks, nb)
	case uint64(blocks)*uint64(bs) > MaxDataSegment:
		return nil, nil, fmt.Errorf("%w: span of %d blocks of %d bytes", ErrTooLarge, blocks, bs)
	}
	maskLen := SpanMaskLen(blocks)
	if len(data) < maskLen {
		return nil, nil, fmt.Errorf("%w: %d-byte segment for a %d-byte mask", ErrShortFrame, len(data), maskLen)
	}
	mask, frame := data[:maskLen], data[maskLen:]
	count := popcount(mask)
	if count == 0 {
		return nil, nil, fmt.Errorf("%w: span with an empty mask", ErrBadFrame)
	}
	if tail := blocks % 8; tail != 0 && mask[maskLen-1]>>tail != 0 {
		return nil, nil, fmt.Errorf("%w: mask bits past a %d-block span", ErrBadFrame, blocks)
	}
	n := count * bs
	declared, err := xcode.DecodedLen(frame)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: span frame: %v", ErrBadFrame, err)
	}
	if declared != n {
		return nil, nil, fmt.Errorf("%w: span frame declares %d bytes for %d present blocks of %d", ErrBadFrame, declared, count, bs)
	}
	if body, ok := xcode.RawBody(frame); ok {
		return mask, body, nil
	}
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	present = (*scratch)[:n]
	if err := xcode.DecodeInto(present, frame); err != nil {
		return nil, nil, fmt.Errorf("%w: span frame: %v", ErrBadFrame, err)
	}
	return mask, present, nil
}

// applySpan decodes the span rq holds against the backend's geometry
// and lands each run of consecutive present blocks with one
// HandleWrite, in LBA order, stopping at the first that fails. A
// malformed span is StatusBadRequest and lands nothing.
func (rq *request) applySpan(backend Backend) Status {
	pdu := &rq.pdu
	bs, nb := backend.Geometry()
	mask, present, err := decodeSpan(&rq.span, pdu.Data, pdu.LBA, pdu.Blocks, bs, nb)
	if err != nil {
		return StatusBadRequest
	}
	has := func(i uint32) bool { return mask[i/8]&(1<<(i%8)) != 0 }
	for i := uint32(0); i < pdu.Blocks; {
		if !has(i) {
			i++
			continue
		}
		first := i
		for i < pdu.Blocks && has(i) {
			i++
		}
		extent := int(i-first) * bs
		if st := backend.HandleWrite(pdu.LBA+uint64(first), present[:extent]); st != StatusOK {
			return st
		}
		present = present[extent:]
	}
	return StatusOK
}
