package iscsi

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"net"
	"slices"

	"prins/internal/xcode"
)

// Repair spans (OpWriteSpan). A resync repairs the blocks that differ
// in a stretch of the device, stepping over the ones that match, and
// ships them in one PDU whose header names the stretch — LBA its first
// block, Blocks its length — and counts its copies in Seq, and whose
// data segment is:
//
//	mask   (ceil(Blocks/8) bytes) bit i (byte i/8, bit i%8, LSB first)
//	                              set = block LBA+i is present
//	copies (Seq entries)          the present blocks that repeat an
//	                              earlier one, in ascending order, each
//	                              as two uvarints: how many present
//	                              blocks lie between it and the copy
//	                              before it (or the span's first), and
//	                              how far back its source lies
//	frame  (an xcode frame)       the present blocks that are not
//	                              copies, concatenated in LBA order:
//	                              (popcount(mask) - Seq) x block size
//	                              bytes once decoded
//
// Present blocks are counted from 0 in LBA order; a copy's source is an
// earlier present block that is not itself a copy, so it is in the
// frame. A span with no copies has Seq zero and no copy list, and is
// stamped v3; one with copies is stamped v9 (packedVersion), so a
// target that would read its copy list as the frame refuses it. The
// target takes a copy's bytes from its source as the frame delivered
// them, so it trusts no hash: the initiator, which confirmed the two
// blocks byte for byte before it named one a copy of the other, is the
// only end that compares them.
//
// The frame is CodecFlate when DEFLATE shrank the blocks and CodecRaw
// otherwise; a raw span leaves the initiator vectored (header, mask,
// copy list and frame header, the blocks from where they lie) and, if
// it has no copies, is landed from the target's request buffer in place.
// Every span is self-contained — no compression state is shared between
// PDUs — so spans need no order among themselves, and a resent span
// rewrites the same whole blocks. The target lands each run of
// consecutive present blocks through Backend.HandleWrite; the response
// is a plain OpResp.

// SpanMaskLen returns the mask bytes of a span of blocks blocks.
func SpanMaskLen(blocks uint32) int { return int((uint64(blocks) + 7) / 8) }

// Span is one repair span: the blocks of [LBA, LBA+Blocks) whose bit is
// set in Mask, each either carried in Data or named in Copies.
type Span struct {
	LBA    uint64
	Blocks uint32
	Mask   []byte
	// Copies names the present blocks that repeat an earlier one, in
	// ascending order; Data leaves them out.
	Copies []SpanCopy
	// Data is the present blocks that are not copies, concatenated in
	// LBA order.
	Data []byte
	// Compress ships Data as one DEFLATE frame, floored at raw, rather
	// than as a raw frame sent from Data in place.
	Compress bool

	seg []byte // the mask, copy list and frame (or raw frame header) as sent, kept across calls
}

// SpanCopy names a present block of a span that carries the same bytes
// as an earlier one. Both are ordinals among the span's present blocks,
// counted from 0 in LBA order, and Source is not itself a copy.
type SpanCopy struct {
	Block, Source uint32
}

// isCopy reports whether present block o is one of copies, which
// ascend.
func isCopy(copies []SpanCopy, o uint32) bool {
	_, found := slices.BinarySearchFunc(copies, o, func(c SpanCopy, o uint32) int { return cmp.Compare(c.Block, o) })
	return found
}

// appendSpanCopies appends the copy list encoding of copies to dst,
// after checking it against a span of present present blocks: ascending
// copies, each of an earlier present block that is not a copy, and at
// least one block that is not a copy.
func appendSpanCopies(dst []byte, copies []SpanCopy, present int) ([]byte, error) {
	if len(copies) >= present {
		return nil, fmt.Errorf("iscsi: %d copies among %d present blocks", len(copies), present)
	}
	next := uint32(0) // the least ordinal the next copy may have
	for k, c := range copies {
		if c.Block < next || int(c.Block) >= present || c.Source >= c.Block || isCopy(copies[:k], c.Source) {
			return nil, fmt.Errorf("iscsi: span copy %d of %d among %d present blocks", c.Block, c.Source, present)
		}
		dst = binary.AppendUvarint(dst, uint64(c.Block-next))
		dst = binary.AppendUvarint(dst, uint64(c.Block-c.Source))
		next = c.Block + 1
	}
	return dst, nil
}

// segment builds the span's data segment as pieces in wire order into
// s.seg — the mask, the copy list and the frame, or, for a raw span,
// the mask, the copy list and the frame header followed by Data itself
// — and returns them.
func (s *Span) segment(bs int) (net.Buffers, error) {
	if s.Blocks == 0 || len(s.Mask) != SpanMaskLen(s.Blocks) {
		return nil, fmt.Errorf("iscsi: span of %d blocks with a %d-byte mask", s.Blocks, len(s.Mask))
	}
	n := popcount(s.Mask)
	if n == 0 || bs <= 0 || len(s.Data) != (n-len(s.Copies))*bs {
		return nil, fmt.Errorf("iscsi: span of %d present blocks, %d of them copies, carries %d bytes, block size %d", n, len(s.Copies), len(s.Data), bs)
	}
	seg, err := appendSpanCopies(append(s.seg[:0], s.Mask...), s.Copies, n)
	if err != nil {
		return nil, err
	}
	if !s.Compress {
		s.seg = xcode.AppendRawHeader(seg, len(s.Data))
		return net.Buffers{s.seg, s.Data}, nil
	}
	if seg, err = xcode.AppendEncodeBest(seg, s.Data, xcode.CodecFlate); err != nil {
		return nil, err
	}
	s.seg = seg
	return net.Buffers{s.seg}, nil
}

// WriteSpan ships one repair span in one PDU and one round trip and
// returns the data-segment bytes it sent: the mask, the copy list and
// the frame. The replica lands every present block or answers an
// error; a span that failed, or lost its response, can be resent as it
// is. Data is only read, and a raw span's blocks go out from Data
// without a copy.
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
	resp, err := i.exchange(nil, false, func(_ *session, itt uint32) (net.Buffers, error) {
		hdr := make([]byte, headerLen)
		p := PDU{Op: OpWriteSpan, ITT: itt, LBA: s.LBA, Blocks: s.Blocks, Seq: uint64(len(s.Copies))}
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

// spanScratch is what a session keeps to decode spans into, from span
// to span: the present blocks of a span that is not landed from its
// request buffer, and a span's copy list.
type spanScratch struct {
	blocks []byte
	copies []SpanCopy
}

// decodeSpanCopies parses the copy list of a span of present present
// blocks that declares count copies from the front of list, into dst's
// backing array, and returns it with the rest of list, the frame. It is
// strict and bounded: fewer copies than present blocks, and no more
// than list could hold, before anything is allocated; ordinals that
// ascend and stay among the present blocks; each copy's source earlier
// than it and not itself a copy; every varint minimal. Truncation is
// ErrShortFrame, anything else ErrBadFrame.
func decodeSpanCopies(dst []SpanCopy, list []byte, count uint64, present int) ([]SpanCopy, []byte, error) {
	switch {
	case count >= uint64(present):
		return nil, nil, fmt.Errorf("%w: %d copies among %d present blocks", ErrBadFrame, count, present)
	case count > uint64(len(list)/2): // each copy takes two bytes at least
		return nil, nil, fmt.Errorf("%w: %d copies in %d bytes", ErrShortFrame, count, len(list))
	}
	dst = dst[:0]
	next, off := uint64(0), 0 // the least ordinal the next copy may have
	for range count {
		gap, o, err := decodeUvarint(list, off)
		if err != nil {
			return nil, nil, err
		}
		back, o, err := decodeUvarint(list, o)
		if err != nil {
			return nil, nil, err
		}
		off = o
		if gap >= uint64(present)-next || back == 0 || back > next+gap {
			return nil, nil, fmt.Errorf("%w: span copy %d back %d among %d present blocks", ErrBadFrame, next+gap, back, present)
		}
		c := SpanCopy{Block: uint32(next + gap), Source: uint32(next + gap - back)}
		if isCopy(dst, c.Source) {
			return nil, nil, fmt.Errorf("%w: span copy %d of copy %d", ErrBadFrame, c.Block, c.Source)
		}
		dst = append(dst, c)
		next = uint64(c.Block) + 1
	}
	return dst, list[off:], nil
}

// decodeSpan validates the data segment of an OpWriteSpan PDU for the
// span [lba, lba+blocks) of a device of nb blocks of bs bytes, whose
// header declares copies copies, and returns its mask and its present
// blocks, concatenated, copies included. A CodecRaw frame's blocks
// alias data when the span has no copies; any other frame is decoded
// into the scratch, which is grown to popcount(mask) x bs — never to
// the frame's declared length — and kept there for the next span, with
// each copy then filled in from its source. Decoding is strict: an
// empty span, one past the device or larger than MaxDataSegment, a
// segment too short for its mask, an empty mask, mask bits past blocks,
// a malformed copy list (decodeSpanCopies), and a frame that does not
// decode to exactly the present blocks that are not copies are errors,
// and hostile input never panics or over-allocates.
func decodeSpan(scratch *spanScratch, data []byte, lba uint64, blocks uint32, copies uint64, bs int, nb uint64) (mask, present []byte, err error) {
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
	list := scratch.copies[:0]
	if copies != 0 {
		if list, frame, err = decodeSpanCopies(scratch.copies, frame, copies, count); err != nil {
			return nil, nil, err
		}
		scratch.copies = list
	}
	n := (count - len(list)) * bs
	declared, err := xcode.DecodedLen(frame)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: span frame: %v", ErrBadFrame, err)
	}
	if declared != n {
		return nil, nil, fmt.Errorf("%w: span frame declares %d bytes for %d present blocks of %d, %d of them copies", ErrBadFrame, declared, count, bs, len(list))
	}
	body, raw := xcode.RawBody(frame)
	if raw && len(list) == 0 {
		return mask, body, nil
	}
	if cap(scratch.blocks) < count*bs {
		scratch.blocks = make([]byte, count*bs)
	}
	present = scratch.blocks[:count*bs]
	// The blocks that are not copies land at the end of present, and
	// move down into place as the copies are filled in among them.
	distinct := present[len(list)*bs:]
	if raw {
		copy(distinct, body)
	} else if err := xcode.DecodeInto(distinct, frame); err != nil {
		return nil, nil, fmt.Errorf("%w: span frame: %v", ErrBadFrame, err)
	}
	expandSpanCopies(present, list, bs)
	return mask, present, nil
}

// expandSpanCopies fills in a span's copies: present holds its blocks
// that are not copies at its end, and each block, in order, is moved
// down into place or copied from its source, which is in place by then.
// A block moved down never lands on one not yet moved: as many block
// slots as copies remain to be filled lie between the two.
func expandSpanCopies(present []byte, copies []SpanCopy, bs int) {
	from := len(copies) * bs
	for o, c := 0, 0; c < len(copies); o++ {
		dst := present[o*bs : (o+1)*bs]
		if uint32(o) == copies[c].Block {
			src := int(copies[c].Source) * bs
			copy(dst, present[src:src+bs])
			c++
			continue
		}
		copy(dst, present[from:from+bs])
		from += bs
	}
}

// applySpan decodes the span rq holds against the backend's geometry
// and lands each run of consecutive present blocks with one
// HandleWrite, in LBA order, stopping at the first that fails. A
// malformed span is StatusBadRequest and lands nothing.
func (rq *request) applySpan(backend Backend) Status {
	pdu := &rq.pdu
	bs, nb := backend.Geometry()
	mask, present, err := decodeSpan(&rq.span, pdu.Data, pdu.LBA, pdu.Blocks, pdu.Seq, bs, nb)
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
