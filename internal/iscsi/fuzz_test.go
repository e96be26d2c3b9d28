package iscsi

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReadPDU feeds arbitrary byte streams to the PDU decoder: no
// panic, and nothing larger than MaxDataSegment may be accepted.
func FuzzReadPDU(f *testing.F) {
	var buf bytes.Buffer
	p := PDU{Op: OpWriteCmd, LBA: 7, Data: []byte("seed")}
	if _, err := p.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{protoMagic}, headerLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		pdu, err := ReadPDU(bytes.NewReader(data))
		if err == nil && len(pdu.Data) > MaxDataSegment {
			t.Fatalf("accepted %d-byte data segment", len(pdu.Data))
		}
	})
}

// FuzzDecodeBatch feeds arbitrary byte streams to the batch-segment
// decoder: it must never panic or over-allocate, failures must be the
// two documented sentinels, and anything accepted must be internally
// consistent (bounded entry count, frames aliasing the input).
func FuzzDecodeBatch(f *testing.F) {
	seed, err := EncodeBatch([]BatchEntry{
		{Seq: 1, LBA: 2, Hash: 3, Frame: []byte("frame one")},
		{Seq: 2, LBA: 9, Hash: 0, Frame: nil},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])               // truncated frame
	f.Add(append([]byte(nil), seed[:7]...)) // truncated entry header
	f.Add([]byte{})                         // no count
	f.Add([]byte{0, 0, 0, 0})               // zero count
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})   // absurd count, tiny buffer
	f.Add(append(seed, 0xAB))               // trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeBatch(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrShortFrame) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if len(entries) == 0 || len(entries) > MaxBatchFrames {
			t.Fatalf("accepted %d entries", len(entries))
		}
		total := 0
		for _, e := range entries {
			total += len(e.Frame)
		}
		if total > len(data) {
			t.Fatalf("frames total %d bytes from a %d-byte segment", total, len(data))
		}
		// Accepted input must re-encode to the identical segment
		// (decode is strict, so the mapping is bijective).
		again, err := EncodeBatch(entries)
		if err != nil {
			t.Fatalf("re-encode of accepted batch: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("decode/encode round trip changed the segment")
		}
	})
}

// FuzzLoginPayloads exercises the login codec pair.
func FuzzLoginPayloads(f *testing.F) {
	f.Add([]byte("vol0"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, nameBytes []byte) {
		name := string(nameBytes)
		if len(name) > 4096 {
			return
		}
		got, err := decodeLoginReq(encodeLoginReq(name))
		if err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if got != name {
			t.Fatalf("login name round trip: %q != %q", got, name)
		}
	})
}
