// Package iscsi (a fixture named after the real wire package, which is
// what puts it in scope) exercises the unbounded-decode rule.
package iscsi

import (
	"encoding/binary"
	"errors"
)

var errShort = errors.New("short frame")

func decodeHeader(buf []byte) (uint32, byte) {
	v := binary.BigEndian.Uint32(buf) // finding: fixed-width read without a len guard
	b := buf[7]                       // finding: index without a len guard
	return v, b
}

func decodeGuarded(buf []byte) (uint32, error) {
	if len(buf) < 8 {
		return 0, errShort
	}
	return binary.BigEndian.Uint32(buf[4:]), nil // ok: dominated by the len check
}

func decodeCount(buf []byte) []byte {
	if len(buf) == 0 {
		return nil
	}
	_, n := binary.Uvarint(buf)
	return buf[n:] // finding: the varint length slices before its n <= 0 test
}

func decodeCountTested(buf []byte) ([]byte, error) {
	if len(buf) == 0 {
		return nil, errShort
	}
	_, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, errShort
	}
	return buf[n:], nil // ok: n tested first
}

// maskInto stands for a frame walker that lands a mask frame's literals
// on a pre-image: a decode path by its name.
func maskInto(dst, frame []byte) {
	copy(dst, frame[5:]) // finding: slice without a len guard
}

func walkGuarded(dst, frame []byte) error {
	if len(frame) < 5 || len(frame)-5 > len(dst) {
		return errShort
	}
	copy(dst, frame[5:]) // ok: dominated by the len check
	return nil
}

// rebuildRun stands for a stream reader that rebuilds plaintext from a
// segment's repeats: a decode path by its name.
func rebuildRun(dst, list []byte) {
	copy(dst, list[4:]) // finding: slice without a len guard
}

func inflateGuarded(dst, seg []byte) error {
	if len(seg) < 4 {
		return errShort
	}
	copy(dst, seg[4:]) // ok: dominated by the len check
	return nil
}

// rangeDecoder stands for the squeeze stream's range decoder: whatever
// its methods return, a hostile segment chose.
type rangeDecoder struct{ in []byte }

func (d *rangeDecoder) decodeLen() int { return len(d.in) }

func (d *rangeDecoder) tree() uint8 { return uint8(len(d.in)) }

func (d *rangeDecoder) direct(n int) uint32 { return uint32(n) }

func copyBack(dst []byte, dist int) { _ = dst[:dist] }

func decodeRun(dst, body []byte, d *rangeDecoder) {
	if len(body) < 4 {
		return
	}
	n := d.decodeLen()
	copy(dst, body[:n]) // finding: a coded length slices before any comparison
	dist := d.decodeLen()
	copyBack(dst, dist) // finding: a coded distance goes into a call unbounded
}

func decodeRunBounded(dst, body []byte, d *rangeDecoder) error {
	if len(body) < 4 {
		return errShort
	}
	n := d.decodeLen()
	if n > len(body) || n > len(dst) {
		return errShort
	}
	copy(dst, body[:n]) // ok: compared first
	dist := d.decodeLen()
	if dist > len(dst) {
		return errShort
	}
	copyBack(dst, dist) // ok: compared first
	return nil
}

// decodeExt has no buffer of its own, and the count it reads off the
// coder, converted, still goes into a call unbounded.
func decodeExt(d *rangeDecoder) uint32 {
	n := int(d.tree())
	return d.direct(n) // finding: a coded count goes into a call unbounded
}

func decodeExtBounded(d *rangeDecoder) uint32 {
	n := int(d.tree())
	if n > 12 {
		return 0
	}
	return d.direct(n) // ok: compared first
}
