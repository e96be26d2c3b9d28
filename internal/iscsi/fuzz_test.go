package iscsi

import (
	"bytes"
	"errors"
	"fmt"
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

// FuzzDecodeBatch fuzzes the one entry-list decoder both list opcodes
// share, seeded from well-formed lists (references among them),
// degenerate counts, and a list with references in its malformed
// variants.
func FuzzDecodeBatch(f *testing.F) {
	for _, entries := range [][]BatchEntry{
		testEntries(),
		mixedEntries(),
		// A seq that wraps, 2^64-1 -> 0.
		{{Seq: ^uint64(0), LBA: 4, Hash: 1, Frame: []byte{1}}, {Seq: 0, LBA: 5, Hash: 2}},
		// Descending LBAs.
		{{Seq: 1, LBA: 900, Hash: 1}, {Seq: 2, LBA: 40, Hash: 2}, {Seq: 3, LBA: 0, Hash: 3, Frame: []byte{7}}},
	} {
		seed, err := EncodeBatch(entries)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte{})            // no count
	f.Add(countOf(0))          // zero count
	f.Add(countOf(0xFFFFFFFF)) // absurd count, tiny buffer
	seed, err := EncodeBatch(mixedEntries())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed[:len(seed)-3])                                    // truncated frame
	f.Add(append([]byte(nil), seed[:7]...))                      // truncated entry header
	f.Add(append(seed, 0xAB))                                    // trailing byte
	f.Add(append(countOf(5), seed[1:]...))                       // one entry fewer than counted
	f.Add(append(countOf(3), make([]byte, 3*minEntryLen-1)...))  // a count whose minimal body cannot fit
	f.Add(append(append([]byte(nil), overlong...), seed[1:]...)) // a 10-byte overlong varint
	f.Add(hashlessRef())                                         // a reference with zero hash
	f.Fuzz(checkEntryList)
}

// FuzzDecodeByRef hands one segment to a target session under each list
// opcode, from a list with references and its malformed variants: the
// opcode only follows the content (batch.go), so the target must answer
// both alike — the same header status, the same statuses, and for an
// accepted list the same entries handed to the backend.
func FuzzDecodeByRef(f *testing.F) {
	seed, err := EncodeBatch(mixedEntries())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])                                    // truncated frame
	f.Add(append([]byte(nil), seed[:7]...))                      // truncated entry header
	f.Add(append(seed, 0xAB))                                    // trailing byte
	f.Add(append(countOf(5), seed[1:]...))                       // one entry fewer than counted
	f.Add(append(countOf(3), make([]byte, 3*minEntryLen-1)...))  // a count whose minimal body cannot fit
	f.Add(append(append([]byte(nil), overlong...), seed[1:]...)) // a 10-byte overlong varint
	f.Add(hashlessRef())                                         // a reference with zero hash
	f.Fuzz(func(t *testing.T, data []byte) {
		var answers [2]string
		for k, op := range []Opcode{OpReplicaWriteBatch, OpReplicaWriteByRef} {
			rq, sink := &request{pdu: PDU{Op: op, Data: data}}, &batchSink{}
			statuses, st := rq.applyEntryList(sink)
			answers[k] = fmt.Sprint(st, statuses, sink.batches)
		}
		if answers[0] != answers[1] {
			t.Fatalf("the opcodes were answered differently:\n batch  %s\n by-ref %s", answers[0], answers[1])
		}
	})
}

// checkEntryList decodes data as both list opcodes do: it must never
// panic or over-allocate, failures must be the two documented
// sentinels, anything accepted must be internally consistent (bounded
// entry count, frames aliasing the input, no reference without a
// content hash), and accepted input must re-encode to the identical
// segment — decoding is strict, minimal varints included, so the
// mapping is bijective.
func checkEntryList(t *testing.T, data []byte) {
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
		if e.ByRef() && e.Hash == 0 {
			t.Fatal("accepted a reference without a content hash")
		}
		total += len(e.Frame)
	}
	if total > len(data) {
		t.Fatalf("frames total %d bytes from a %d-byte segment", total, len(data))
	}
	again, err := EncodeBatch(entries)
	if err != nil {
		t.Fatalf("re-encode of accepted batch: %v", err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("decode/encode round trip changed the segment")
	}
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
