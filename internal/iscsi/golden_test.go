package iscsi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"prins/internal/block"
	"prins/internal/xcode"
)

// goldenSink accepts every replication push verb and answers OK, so a
// golden-bytes session can drive each initiator send path end to end.
type goldenSink struct {
	replicaSink
}

func (s *goldenSink) HandleReplicaStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) Status {
	return StatusOK
}

func (s *goldenSink) HandleReplicaBatchStream(mode, shard uint8, vol uint16, entries []BatchEntry) []Status {
	return make([]Status, len(entries))
}

func (s *goldenSink) HandleReplicaSqueezed(mode, shard uint8, vol uint16, entries []BatchEntry, digest uint64) []Status {
	return make([]Status, len(entries))
}

// goldenEntries builds n deterministic entries with frames of varied
// lengths (one empty-frame-free run for by-value verbs). With mixed
// set, every even entry ships by reference (nil frame), as a by-ref
// push mixes them.
func goldenEntries(n int, mixed bool) []BatchEntry {
	entries := make([]BatchEntry, n)
	for k := range entries {
		frame := make([]byte, 3+5*k)
		for j := range frame {
			frame[j] = byte(0x11*(k+1) + j)
		}
		if mixed && k%2 == 0 {
			frame = nil
		}
		entries[k] = BatchEntry{
			Seq:   uint64(100 + k),
			LBA:   uint64(7*k + 1),
			Hash:  0xC0FFEE0000000000 | uint64(k+1),
			Frame: frame,
		}
	}
	return entries
}

// squeezeGoldenEntries builds push p of a squeezed golden stream: five
// CodecZRL frames of prose-like parities the two pushes share most of.
func squeezeGoldenEntries(t *testing.T, p int) []BatchEntry {
	t.Helper()
	const words = "order line stock district "
	entries := make([]BatchEntry, 5)
	for k := range entries {
		parity := make([]byte, 256)
		for j := 0; j < 40+8*k; j++ {
			parity[16*k+j] = words[(j+k+p)%len(words)]
		}
		frame, err := xcode.Encode(xcode.CodecZRL, parity)
		if err != nil {
			t.Fatal(err)
		}
		entries[k] = BatchEntry{Seq: uint64(10*p + k + 1), LBA: uint64(2 * k), Hash: 0x5EED0000 | uint64(k), Frame: frame}
	}
	return entries
}

// maskGoldenEntries builds a squeezed golden push whose five frames
// have masked twins: each write rewrites a stretch of a prose-like block
// with other words, and its check is its hash XOR its frame's.
func maskGoldenEntries(t *testing.T) []BatchEntry {
	t.Helper()
	const words = "order line stock district "
	entries := make([]BatchEntry, 5)
	for k := range entries {
		oldBlock, newBlock, parity := make([]byte, 256), make([]byte, 256), make([]byte, 256)
		for j := range oldBlock {
			oldBlock[j] = words[(j+k)%len(words)]
			newBlock[j] = oldBlock[j]
		}
		for j := 16 * k; j < 16*k+40+8*k; j++ {
			newBlock[j] = words[(j+k+5)%len(words)]
		}
		for j := range parity {
			parity[j] = oldBlock[j] ^ newBlock[j]
		}
		frame, err := xcode.Encode(xcode.CodecZRL, parity)
		if err != nil {
			t.Fatal(err)
		}
		mask, err := xcode.AppendMask(nil, frame, newBlock)
		if err != nil {
			t.Fatal(err)
		}
		hash := HashBlock(newBlock)
		entries[k] = BatchEntry{Seq: uint64(k + 1), LBA: uint64(2 * k), Hash: hash, Frame: frame, Mask: mask, Check: hash ^ HashBlock(frame)}
	}
	return entries
}

// goldenSpanBS is the block size of the golden repair spans.
const goldenSpanBS = 64

// goldenSpan builds the golden repair span: blocks 0, 1, 2, 5, 9, 10
// and 19 of a 20-block stretch at LBA 100, each filled from its own
// offset, as prose-like text shipped DEFLATE or as pseudo-random bytes
// shipped raw. With copies, blocks 9, 10 and 19 repeat blocks 1, 2 and
// 0 and ship as copies of them.
func goldenSpan(text, copies bool) Span {
	const words = "resync the blocks that differ "
	s := Span{LBA: 100, Blocks: 20, Mask: make([]byte, SpanMaskLen(20)), Compress: text}
	repeats := map[uint32]uint32{}
	if copies {
		repeats = map[uint32]uint32{9: 1, 10: 2, 19: 0}
	}
	offsets := []uint32{0, 1, 2, 5, 9, 10, 19}
	x := uint32(0x9E3779B9)
	for o, i := range offsets {
		s.Mask[i/8] |= 1 << (i % 8)
		if src, ok := repeats[i]; ok {
			s.Copies = append(s.Copies, SpanCopy{Block: uint32(o), Source: uint32(slices.Index(offsets, src))})
			continue
		}
		for j := range goldenSpanBS {
			x = x*1664525 + 1013904223
			b := byte(x >> 24)
			if text {
				b = words[(int(i)*7+j)%len(words)]
			}
			s.Data = append(s.Data, b)
		}
	}
	return s
}

const goldenFile = "testdata/wire_golden.hex"

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("open fixtures (regenerate with PRINS_UPDATE_GOLDEN=1): %v", err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, hx, ok := strings.Cut(sc.Text(), " ")
		if ok {
			out[name] = hx
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWireGolden pins the bytes every replication push verb puts on the
// connection: for OpReplicaWrite (untagged v3, tagged v5, and the
// zero-copy framed send), OpReplicaWriteBatch (untagged and tagged) and
// OpReplicaWriteByRef (mixed by-ref and by-value entries), each with 1,
// 2 and 7 entries, for an OpHashCmd request carrying a digest and one
// of three units (hash.go), for OpWriteSpan repair spans sent raw, sent
// DEFLATE and carrying copies (span.go), and for
// a fresh and a primed squeezed list, a fresh one streaming masked twins
// and a fresh by-ref one (squeeze.go), the initiator's send
// must equal both a contiguously built PDU written with
// PDU.WriteTo (over the Encode* segment, for a push) and the committed
// hex fixture. A case is named for the protocol version that
// introduced its verb; both entry-list verbs now go out as v8 lists, and
// a batch of one as the v3/v5 single write. The fixtures are the wire
// contract: a refactor of the send paths must leave
// testdata/wire_golden.hex untouched.
func TestWireGolden(t *testing.T) {
	const (
		mode  = 3
		shard = 2
		vol   = 9
		// The login round trip consumed ITT 1 on every fresh session.
		firstITT = 2
	)

	type verb struct {
		name string
		// send pushes entries through the initiator path under test.
		send func(init *Initiator, entries []BatchEntry) error
		// want builds the reference PDUs for the same push.
		want  func(entries []BatchEntry) ([]*PDU, error)
		mixed bool
	}
	single := func(s uint8, v uint16) func([]BatchEntry) ([]*PDU, error) {
		return func(entries []BatchEntry) ([]*PDU, error) {
			var pdus []*PDU
			for k, e := range entries {
				pdus = append(pdus, &PDU{Op: OpReplicaWrite, Mode: mode, Shard: s, Vol: v,
					ITT: uint32(firstITT + k), Seq: e.Seq, LBA: e.LBA, Hash: e.Hash, Data: e.Frame})
			}
			return pdus, nil
		}
	}
	// list builds the one entry-list PDU a multi-entry push sends; a
	// batch of one degrades to the plain OpReplicaWrite PDU.
	list := func(op Opcode, s uint8, v uint16, oneIsSingle bool, encode func([]BatchEntry) ([]byte, error)) func([]BatchEntry) ([]*PDU, error) {
		return func(entries []BatchEntry) ([]*PDU, error) {
			if oneIsSingle && len(entries) == 1 {
				return single(s, v)(entries)
			}
			data, err := encode(entries)
			if err != nil {
				return nil, err
			}
			return []*PDU{{Op: op, Mode: mode, Shard: s, Vol: v, ITT: firstITT, Data: data}}, nil
		}
	}
	statusesOK := func(st []Status, err error) error {
		if err != nil {
			return err
		}
		for k, s := range st {
			if s != StatusOK {
				return fmt.Errorf("entry %d: %v", k, s)
			}
		}
		return nil
	}
	verbs := []verb{
		{name: "write-v3",
			send: func(init *Initiator, entries []BatchEntry) error {
				for _, e := range entries {
					if err := init.ReplicaWriteStream(mode, 0, 0, e.Seq, e.LBA, e.Hash, e.Frame); err != nil {
						return err
					}
				}
				return nil
			},
			want: single(0, 0)},
		{name: "write-stream-v5",
			send: func(init *Initiator, entries []BatchEntry) error {
				for _, e := range entries {
					if err := init.ReplicaWriteStream(mode, shard, vol, e.Seq, e.LBA, e.Hash, e.Frame); err != nil {
						return err
					}
				}
				return nil
			},
			want: single(shard, vol)},
		{name: "write-framed-v5",
			send: func(init *Initiator, entries []BatchEntry) error {
				for _, e := range entries {
					pdu := append(make([]byte, FrameHeadroom), e.Frame...)
					if err := init.ReplicaWriteFramed(mode, shard, vol, e.Seq, e.LBA, e.Hash, pdu); err != nil {
						return err
					}
				}
				return nil
			},
			want: single(shard, vol)},
		{name: "batch-v4",
			send: func(init *Initiator, entries []BatchEntry) error {
				return statusesOK(init.ReplicaWriteBatchStream(mode, 0, 0, entries))
			},
			want: list(OpReplicaWriteBatch, 0, 0, true, EncodeBatch)},
		{name: "batch-stream-v5",
			send: func(init *Initiator, entries []BatchEntry) error {
				return statusesOK(init.ReplicaWriteBatchStream(mode, shard, vol, entries))
			},
			want: list(OpReplicaWriteBatch, shard, vol, true, EncodeBatch)},
		{name: "byref-v7", mixed: true,
			send: func(init *Initiator, entries []BatchEntry) error {
				return statusesOK(init.ReplicaWriteBatchStream(mode, shard, vol, entries))
			},
			want: list(OpReplicaWriteByRef, shard, vol, false, EncodeBatch)},
	}

	update := os.Getenv("PRINS_UPDATE_GOLDEN") != ""
	var golden map[string]string
	if !update {
		golden = readGolden(t)
	}
	got := make(map[string]string)
	for _, v := range verbs {
		for _, n := range []int{1, 2, 7} {
			name := fmt.Sprintf("%s/%d", v.name, n)
			t.Run(name, func(t *testing.T) {
				entries := goldenEntries(n, v.mixed)
				init, rec := startRecordedPair(t, &goldenSink{})
				if err := v.send(init, entries); err != nil {
					t.Fatal(err)
				}
				sent := rec.take()

				pdus, err := v.want(entries)
				if err != nil {
					t.Fatal(err)
				}
				var ref bytes.Buffer
				for _, p := range pdus {
					if _, err := p.WriteTo(&ref); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(sent, ref.Bytes()) {
					t.Errorf("initiator bytes differ from the contiguously built PDU:\n sent %x\n want %x", sent, ref.Bytes())
				}
				got[name] = hex.EncodeToString(sent)
				if !update && got[name] != golden[name] {
					t.Errorf("wire bytes differ from %s:\n sent %s\n want %s", goldenFile, got[name], golden[name])
				}
			})
		}
	}
	// A HASH request carrying the digest of the answer it expects: a
	// bare request whose hash field holds the digest.
	t.Run("hash-digest", func(t *testing.T) {
		const digest = 0xD16E57C0FFEE0001
		store, err := block.NewMem(512, 16)
		if err != nil {
			t.Fatal(err)
		}
		init, rec := startRecordedPair(t, &StoreBackend{Store: store})
		if _, _, err := readHashes(init, 3, 5, digest); err != nil {
			t.Fatal(err)
		}
		sent := rec.take()
		var ref bytes.Buffer
		if _, err := (&PDU{Op: OpHashCmd, ITT: firstITT, LBA: 3, Blocks: 5, Hash: digest}).WriteTo(&ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sent, ref.Bytes()) {
			t.Errorf("initiator bytes differ from the contiguously built PDU:\n sent %x\n want %x", sent, ref.Bytes())
		}
		got["hash-digest"] = hex.EncodeToString(sent)
		if !update && got["hash-digest"] != golden["hash-digest"] {
			t.Errorf("wire bytes differ from %s:\n sent %s\n want %s", goldenFile, got["hash-digest"], golden["hash-digest"])
		}
	})
	// A HASH request of three units, stamped v9: the header names the
	// first, the data segment lists the other two, each as its gap from
	// the one before, its count and its digest (zero: send the hashes).
	t.Run("hash-units", func(t *testing.T) {
		units := []HashUnit{{LBA: 3, Count: 5, Digest: 0xD16E57C0FFEE0001}, {LBA: 12, Count: 2, Digest: 0xD16E57C0FFEE0002}, {LBA: 14, Count: 1}}
		store, err := block.NewMem(512, 16)
		if err != nil {
			t.Fatal(err)
		}
		init, rec := startRecordedPair(t, &StoreBackend{Store: store})
		if err := init.ReadHashUnits(&HashCmd{Units: units}); err != nil {
			t.Fatal(err)
		}
		sent := rec.take()
		list := []byte{4, 2} // 12 is 4 past the first unit's end; 2 blocks
		list = binary.BigEndian.AppendUint64(list, 0xD16E57C0FFEE0002)
		list = append(list, 0, 1) // 14 follows 12+2 directly; 1 block
		list = binary.BigEndian.AppendUint64(list, 0)
		var ref bytes.Buffer
		if _, err := (&PDU{Op: OpHashCmd, ITT: firstITT, LBA: 3, Blocks: 5, Hash: 0xD16E57C0FFEE0001, Data: list}).WriteTo(&ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sent, ref.Bytes()) {
			t.Errorf("initiator bytes differ from the contiguously built PDU:\n sent %x\n want %x", sent, ref.Bytes())
		}
		got["hash-units"] = hex.EncodeToString(sent)
		if !update && got["hash-units"] != golden["hash-units"] {
			t.Errorf("wire bytes differ from %s:\n sent %s\n want %s", goldenFile, got["hash-units"], golden["hash-units"])
		}
	})
	// Repair spans: seven present blocks of a 20-block stretch, random
	// bytes sent raw, text sent DEFLATE, and text three of whose blocks
	// are copies of others: stamped v9, a copy count in the sequence
	// field and a copy list between the mask and the frame.
	for _, c := range []struct {
		name string
		span func() Span
	}{
		{"span-raw", func() Span { return goldenSpan(false, false) }},
		{"span-flate", func() Span { return goldenSpan(true, false) }},
		{"span-copies", func() Span { return goldenSpan(true, true) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			init, rec := startRecordedPair(t, &extentSink{bs: goldenSpanBS, nb: 1024})
			s := c.span()
			if _, err := init.WriteSpan(&s); err != nil {
				t.Fatal(err)
			}
			sent := rec.take()
			seg, err := encodeSpan(&s, goldenSpanBS)
			if err != nil {
				t.Fatal(err)
			}
			var ref bytes.Buffer
			if _, err := (&PDU{Op: OpWriteSpan, ITT: firstITT, LBA: s.LBA, Blocks: s.Blocks, Seq: uint64(len(s.Copies)), Data: seg}).WriteTo(&ref); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sent, ref.Bytes()) {
				t.Errorf("initiator bytes differ from the contiguously built PDU:\n sent %x\n want %x", sent, ref.Bytes())
			}
			got[c.name] = hex.EncodeToString(sent)
			if !update && got[c.name] != golden[c.name] {
				t.Errorf("wire bytes differ from %s:\n sent %s\n want %s", goldenFile, got[c.name], golden[c.name])
			}
		})
	}
	// Two squeezed lists on one stream of a fresh session: the first is
	// fresh (tag 1), the second is compressed against the first's
	// plaintext (tag 2).
	t.Run("squeeze", func(t *testing.T) {
		init, rec := startRecordedPair(t, &goldenSink{})
		var ref SqueezeSender
		for p, name := range []string{"squeeze-list-fresh", "squeeze-list-primed"} {
			entries := squeezeGoldenEntries(t, p)
			if err := statusesOK(func() ([]Status, error) {
				st, _, err := init.ReplicaWriteSqueezed(mode, shard, vol, entries)
				return st, err
			}()); err != nil {
				t.Fatal(err)
			}
			sent := rec.take()
			seg, tag, ok, err := ref.Encode(entries)
			if err != nil || !ok || tag != uint64(p+1) {
				t.Fatalf("%s: reference encode: tag %d, ok %v, %v", name, tag, ok, err)
			}
			ref.Commit()
			var want bytes.Buffer
			if _, err := (&PDU{Op: OpReplicaWriteBatch, Mode: mode, Shard: shard, Vol: vol, ITT: uint32(firstITT + p), Seq: tag, Data: seg}).WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sent, want.Bytes()) {
				t.Errorf("%s: initiator bytes differ from the contiguously built PDU:\n sent %x\n want %x", name, sent, want.Bytes())
			}
			got[name] = hex.EncodeToString(sent)
			if !update && got[name] != golden[name] {
				t.Errorf("%s: wire bytes differ from %s:\n sent %s\n want %s", name, goldenFile, got[name], golden[name])
			}
		}
	})
	// A squeezed list whose frames have masked twins streams the twins,
	// and its digest folds their checks; a squeezed by-ref list streams
	// its references' hashes with the headers.
	for _, c := range []struct {
		run, name string
		refs      bool
		entries   func(*testing.T) []BatchEntry
	}{
		{"squeeze-mask", "squeeze-list-mask", false, maskGoldenEntries},
		{"squeeze-byref", "squeeze-list-byref", true, func(t *testing.T) []BatchEntry {
			entries := squeezeGoldenEntries(t, 0)
			for k := 0; k < len(entries); k += 2 {
				entries[k].Frame = nil
			}
			return entries
		}},
	} {
		t.Run(c.run, func(t *testing.T) {
			init, rec := startRecordedPair(t, &goldenSink{})
			entries := c.entries(t)
			if err := statusesOK(func() ([]Status, error) {
				st, _, err := init.ReplicaWriteSqueezed(mode, shard, vol, entries)
				return st, err
			}()); err != nil {
				t.Fatal(err)
			}
			sent := rec.take()
			var ref SqueezeSender
			seg, tag, ok, err := ref.Encode(entries)
			if err != nil || !ok || tag != 1 {
				t.Fatalf("reference encode: tag %d, ok %v, %v", tag, ok, err)
			}
			op := OpReplicaWriteBatch
			if c.refs {
				op = OpReplicaWriteByRef
			}
			var want bytes.Buffer
			if _, err := (&PDU{Op: op, Mode: mode, Shard: shard, Vol: vol, ITT: firstITT, Seq: tag, Data: seg}).WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sent, want.Bytes()) {
				t.Errorf("initiator bytes differ from the contiguously built PDU:\n sent %x\n want %x", sent, want.Bytes())
			}
			got[c.name] = hex.EncodeToString(sent)
			if !update && got[c.name] != golden[c.name] {
				t.Errorf("wire bytes differ from %s:\n sent %s\n want %s", goldenFile, got[c.name], golden[c.name])
			}
		})
	}
	if !update {
		if len(golden) != len(got) {
			t.Errorf("%s holds %d cases, the test ran %d", goldenFile, len(golden), len(got))
		}
		return
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var out bytes.Buffer
	for _, name := range names {
		fmt.Fprintf(&out, "%s %s\n", name, got[name])
	}
	if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenFile, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
