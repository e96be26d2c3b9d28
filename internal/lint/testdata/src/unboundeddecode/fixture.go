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
