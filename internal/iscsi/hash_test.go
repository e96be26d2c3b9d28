package iscsi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"slices"
	"testing"

	"prins/internal/block"
)

// xxh64Naive is XXH64 (seed 0) transcribed step by step from the
// specification with no attention to speed: the four lanes live in a
// slice, every rotate is spelled out with shifts, the input is consumed
// by index. HashBlock must agree with it on every length.
func xxh64Naive(in []byte) uint64 {
	const (
		p1 uint64 = 11400714785074694791
		p2 uint64 = 14029467366897019727
		p3 uint64 = 1609587929392839161
		p4 uint64 = 9650029242287828579
		p5 uint64 = 2870177450012600261
	)
	rotl := func(x uint64, r uint) uint64 { return x<<r | x>>(64-r) }
	round := func(acc, lane uint64) uint64 {
		acc += lane * p2
		acc = rotl(acc, 31)
		return acc * p1
	}
	merge := func(acc, lane uint64) uint64 {
		acc ^= round(0, lane)
		return acc*p1 + p4
	}

	var seed uint64 // a variable, so the lane seeds wrap mod 2^64
	pos := 0
	var acc uint64
	if len(in) < 32 {
		// Step 1 (short input): a single accumulator.
		acc = seed + p5
	} else {
		// Step 1: four accumulators; step 2: one stripe at a time.
		lanes := []uint64{seed + p1 + p2, seed + p2, seed, seed - p1}
		for ; len(in)-pos >= 32; pos += 32 {
			for l := range lanes {
				lanes[l] = round(lanes[l], binary.LittleEndian.Uint64(in[pos+8*l:]))
			}
		}
		// Step 3: convergence.
		acc = rotl(lanes[0], 1) + rotl(lanes[1], 7) + rotl(lanes[2], 12) + rotl(lanes[3], 18)
		for _, lane := range lanes {
			acc = merge(acc, lane)
		}
	}
	// Step 4: input length.
	acc += uint64(len(in))
	// Step 5: the remaining 0..31 bytes.
	for len(in)-pos >= 8 {
		acc ^= round(0, binary.LittleEndian.Uint64(in[pos:]))
		acc = rotl(acc, 27) * p1
		acc += p4
		pos += 8
	}
	if len(in)-pos >= 4 {
		acc ^= uint64(binary.LittleEndian.Uint32(in[pos:])) * p1
		acc = rotl(acc, 23) * p2
		acc += p3
		pos += 4
	}
	for ; pos < len(in); pos++ {
		acc ^= uint64(in[pos]) * p5
		acc = rotl(acc, 11) * p1
	}
	// Step 6: avalanche.
	acc ^= acc >> 33
	acc *= p2
	acc ^= acc >> 29
	acc *= p3
	acc ^= acc >> 32
	return acc
}

// TestHashBlockXXH64Vectors pins HashBlock to XXH64 seed 0: published
// vectors (the 63-byte one takes the stripe loop and every tail branch:
// 63 = 32 + 3x8 + 4 + 3), then every length around the stripe and tail
// boundaries and the block sizes in use against the naive reference.
func TestHashBlockXXH64Vectors(t *testing.T) {
	for _, v := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"as", 0x1c330fb2d66be179},
		{"Call me Ishmael. Some years ago--never mind how long precisely-", 0x02a2e85470d6fd96},
	} {
		if got := HashBlock([]byte(v.in)); got != v.want {
			t.Errorf("HashBlock(%q) = %016x, want %016x", v.in, got, v.want)
		}
		if got := xxh64Naive([]byte(v.in)); got != v.want {
			t.Errorf("naive reference(%q) = %016x, want %016x", v.in, got, v.want)
		}
	}

	rng := rand.New(rand.NewSource(15))
	lengths := []int{512, 4096, 8192}
	for n := 0; n <= 97; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		buf := make([]byte, n)
		rng.Read(buf)
		if got, want := HashBlock(buf), xxh64Naive(buf); got != want {
			t.Errorf("len %d: HashBlock = %016x, reference = %016x", n, got, want)
		}
	}

	block := make([]byte, 8192)
	rng.Read(block)
	if allocs := testing.AllocsPerRun(100, func() { hashSink = HashBlock(block) }); allocs != 0 {
		t.Errorf("HashBlock allocates %v times per call, want 0", allocs)
	}
}

var hashSink uint64

// readHashes fetches the hashes of count blocks at lba in a hash
// command of one unit with digest: nil hashes and match when the
// target's own hashes digest to it.
func readHashes(init *Initiator, lba uint64, count uint32, digest uint64) (hashes []uint64, match bool, err error) {
	c := HashCmd{Units: []HashUnit{{LBA: lba, Count: count, Digest: digest}}}
	if err := init.ReadHashUnits(&c); err != nil {
		return nil, false, err
	}
	return c.Units[0].Hashes, c.Units[0].Hashes == nil, nil
}

// TestReadHashesStrictDecoding: with a digest, a one-unit command accepts
// exactly an empty segment (a match) or count hashes; without one, only
// count hashes. Every other length is ErrShortFrame. The peer answers
// each HASH request with as many bytes as its LBA names.
func TestReadHashesStrictDecoding(t *testing.T) {
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			req, err := ReadPDU(server)
			if err != nil {
				return
			}
			resp := &PDU{ITT: req.ITT, Status: StatusOK, Op: OpResp}
			switch req.Op {
			case OpLoginReq:
				resp.Op = OpLoginResp
				resp.Data = encodeLoginResp(512, 1<<20)
			case OpHashCmd:
				resp.Data = make([]byte, req.LBA)
			}
			if _, err := resp.WriteTo(server); err != nil {
				return
			}
		}
	}()
	init := NewInitiator(client)
	t.Cleanup(func() {
		init.Close()
		<-done
	})
	if err := init.Login("disk0"); err != nil {
		t.Fatal(err)
	}

	const count = 4
	for _, digest := range []uint64{0, 0xD16E57} {
		for _, n := range []uint64{0, 3, HashSize, count*HashSize - 1, count * HashSize, count*HashSize + HashSize} {
			hashes, match, err := readHashes(init, n, count, digest)
			switch {
			case n == 0 && digest != 0:
				if err != nil || !match || hashes != nil {
					t.Errorf("digest %x, empty answer: %v, %v, %v; want a match", digest, hashes, match, err)
				}
			case n == count*HashSize:
				if err != nil || match || len(hashes) != count {
					t.Errorf("digest %x, %d bytes: %d hashes, match %v, %v; want %d hashes", digest, n, len(hashes), match, err, count)
				}
			default:
				if !errors.Is(err, ErrShortFrame) || match || hashes != nil {
					t.Errorf("digest %x, %d bytes: %v, %v, %v; want ErrShortFrame", digest, n, hashes, match, err)
				}
			}
		}
	}
}

// TestTargetAnswersDigest: a target answers a HASH request with an
// empty data segment exactly when the request's digest equals its own
// digest of the answer, and with the full hash vector to a request
// without a digest or with a wrong one.
func TestTargetAnswersDigest(t *testing.T) {
	const (
		bs    = 512
		nb    = 16
		count = 8
	)
	store, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	buf := make([]byte, bs)
	want := make([]uint64, count)
	for lba := uint64(0); lba < nb; lba++ {
		rng.Read(buf)
		if err := store.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
		if lba >= 2 && lba < 2+count {
			want[lba-2] = HashBlock(buf)
		}
	}
	vec := AppendHashes(nil, want)
	own := HashBlock(vec)

	target := NewTarget()
	target.Export("r", &StoreBackend{Store: store})
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		target.ServeConn(server)
	}()
	defer func() {
		client.Close()
		<-done
	}()
	itt := uint32(1)
	roundTrip := func(p *PDU) *PDU {
		t.Helper()
		p.ITT = itt
		itt++
		if _, err := p.WriteTo(client); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadPDU(client)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusOK {
			t.Fatalf("%v: status %v", p.Op, resp.Status)
		}
		return resp
	}
	roundTrip(&PDU{Op: OpLoginReq, Data: encodeLoginReq("r")})

	for _, tc := range []struct {
		name   string
		digest uint64
		empty  bool
	}{
		{"no digest", 0, false},
		{"own digest", own, true},
		{"wrong digest", own ^ 1, false},
	} {
		resp := roundTrip(&PDU{Op: OpHashCmd, LBA: 2, Blocks: count, Hash: tc.digest})
		switch {
		case tc.empty && len(resp.Data) != 0:
			t.Errorf("%s: %d bytes back, want an empty segment", tc.name, len(resp.Data))
		case !tc.empty && string(resp.Data) != string(vec):
			t.Errorf("%s: answer %x, want the hash vector %x", tc.name, resp.Data, vec)
		}
	}
}

// hashUnitsStore is a store of 64 random 512-byte blocks and the
// content hash of each.
func hashUnitsStore(t *testing.T) (block.Store, []uint64) {
	t.Helper()
	const bs, nb = 512, 64
	store, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	buf := make([]byte, bs)
	hashes := make([]uint64, nb)
	for lba := range uint64(nb) {
		rng.Read(buf)
		if err := store.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
		hashes[lba] = HashBlock(buf)
	}
	return store, hashes
}

// TestReadHashUnits: one command over several units answers each unit
// on its own — nil hashes for a unit whose digest matched, the unit's
// hashes for one with a wrong digest or none — and a command whose
// every digest matched comes back as a bare header.
func TestReadHashUnits(t *testing.T) {
	store, want := hashUnitsStore(t)
	digest := func(lba uint64, count uint32) uint64 {
		return HashBlock(AppendHashes(nil, want[lba:lba+uint64(count)]))
	}
	init, rec := startRecordedPair(t, &StoreBackend{Store: store})

	units := []HashUnit{
		{LBA: 2, Count: 3, Digest: digest(2, 3)},
		{LBA: 5, Count: 4, Digest: digest(5, 4) ^ 1},
		{LBA: 20, Count: 1},
		{LBA: 40, Count: 24, Digest: digest(40, 24)},
	}
	if err := init.ReadHashUnits(&HashCmd{Units: units}); err != nil {
		t.Fatal(err)
	}
	for k, u := range units {
		differs := k == 1 || k == 2
		switch {
		case !differs && u.Hashes != nil:
			t.Errorf("unit %d matched its digest, yet came back with %d hashes", k, len(u.Hashes))
		case differs && !slices.Equal(u.Hashes, want[u.LBA:u.LBA+uint64(u.Count)]):
			t.Errorf("unit %d: hashes %x, want %x", k, u.Hashes, want[u.LBA:u.LBA+uint64(u.Count)])
		}
	}
	rec.take()

	units[1].Digest, units[2].Digest = digest(5, 4), digest(20, 1)
	if err := init.ReadHashUnits(&HashCmd{Units: units}); err != nil {
		t.Fatal(err)
	}
	for k, u := range units {
		if u.Hashes != nil {
			t.Errorf("unit %d matched its digest, yet came back with %d hashes", k, len(u.Hashes))
		}
	}
	var all int
	for _, u := range units[1:] {
		all += uvarintLen(uint64(u.Count)) + 1 + HashSize // every gap here fits a byte
	}
	if got := len(rec.take()); got != headerLen+all {
		t.Errorf("a clean command of %d units sent %d bytes, want %d", len(units), got, headerLen+all)
	}

	for name, bad := range map[string][]HashUnit{
		"none":     nil,
		"overlap":  {{LBA: 2, Count: 3}, {LBA: 4, Count: 1}},
		"backward": {{LBA: 9, Count: 1}, {LBA: 2, Count: 1}},
	} {
		if err := init.ReadHashUnits(&HashCmd{Units: bad}); err == nil {
			t.Errorf("%s: a malformed command was sent", name)
		}
	}
	if n := len(rec.take()); n != 0 {
		t.Errorf("%d bytes reached the wire", n)
	}
	for name, bad := range map[string][]HashUnit{
		"empty unit":    {{LBA: 2, Count: 3}, {LBA: 9, Count: 0}},
		"too many":      {{LBA: 0, Count: 40}, {LBA: 40, Count: maxHashBatch - 39}},
		"past the end":  {{LBA: 60, Count: 2}, {LBA: 63, Count: 2}},
		"lba overflows": {{LBA: 0, Count: 1}, {LBA: ^uint64(0), Count: 1}},
	} {
		if err := init.ReadHashUnits(&HashCmd{Units: bad}); !errors.Is(err, ErrStatus) {
			t.Errorf("%s: %v, want the target to refuse it", name, err)
		}
	}
}

// TestTargetAnswersUnits pins the answer of a target to a command of
// several units: a bitmap of the units that differ, then their hashes.
func TestTargetAnswersUnits(t *testing.T) {
	store, want := hashUnitsStore(t)
	units := []HashUnit{{LBA: 1, Count: 2}, {LBA: 3, Count: 1}, {LBA: 10, Count: 3}}
	for k := range units {
		units[k].Digest = HashBlock(AppendHashes(nil, want[units[k].LBA:units[k].LBA+uint64(units[k].Count)]))
	}
	units[1].Digest ^= 1
	rq := request{pdu: PDU{Op: OpHashCmd, LBA: 1, Blocks: 2, Hash: units[0].Digest}}
	var err error
	if rq.pdu.Data, err = appendHashUnits(nil, units); err != nil {
		t.Fatal(err)
	}
	answer, st := rq.hashUnits(&StoreBackend{Store: store}, 512)
	if wantAnswer := AppendHashes([]byte{0b010}, want[3:4]); st != StatusOK || !bytes.Equal(answer, wantAnswer) {
		t.Errorf("answer %x (%v), want %x", answer, st, wantAnswer)
	}
	if err := decodeHashAnswer(units, answer); err != nil || units[0].Hashes != nil || units[2].Hashes != nil || !slices.Equal(units[1].Hashes, want[3:4]) {
		t.Errorf("decoded answer: %v, hashes %x %x %x", err, units[0].Hashes, units[1].Hashes, units[2].Hashes)
	}
}

// TestDecodeHashAnswerStrict: an initiator takes exactly the answers the
// wire format allows for its units and refuses every other one as
// ErrShortFrame, setting no unit's hashes.
func TestDecodeHashAnswerStrict(t *testing.T) {
	h := func(n int) []byte { return make([]byte, n*HashSize) }
	two := []HashUnit{{LBA: 0, Count: 2, Digest: 7}, {LBA: 5, Count: 3, Digest: 9}}
	nine := make([]HashUnit, 9)
	for k := range nine {
		nine[k] = HashUnit{LBA: uint64(2 * k), Count: 1, Digest: 1}
	}
	undigested := []HashUnit{{LBA: 0, Count: 2, Digest: 7}, {LBA: 5, Count: 3}}
	for _, tc := range []struct {
		name   string
		units  []HashUnit
		answer []byte
		ok     bool
	}{
		{"all matched", two, nil, true},
		{"first differs", two, append([]byte{1}, h(2)...), true},
		{"second differs", two, append([]byte{2}, h(3)...), true},
		{"both differ", two, append([]byte{3}, h(5)...), true},
		{"ninth differs", nine, append([]byte{0, 1}, h(1)...), true},
		{"undigested unit answered", undigested, append([]byte{2}, h(3)...), true},
		{"no bitmap", two, h(2), false},
		{"bitmap alone", two, []byte{1}, false},
		{"empty bitmap", two, append([]byte{0}, h(2)...), false},
		{"unit past the units", two, append([]byte{5}, h(2)...), false},
		{"ninth unit's bitmap cut", nine, []byte{0}, false},
		{"a hash short", two, append([]byte{3}, h(5)[1:]...), false},
		{"a hash long", two, append([]byte{1}, h(3)...), false},
		{"undigested unit unanswered", undigested, nil, false},
		{"undigested unit left out", undigested, append([]byte{1}, h(2)...), false},
	} {
		units := slices.Clone(tc.units)
		units[0].Hashes = []uint64{42}
		err := decodeHashAnswer(units, tc.answer)
		if tc.ok != (err == nil) || err != nil && !errors.Is(err, ErrShortFrame) {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		n := 0
		for _, u := range units {
			n += len(u.Hashes)
		}
		if want := (len(tc.answer) - (len(units)+7)/8) / HashSize; tc.ok && len(tc.answer) > 0 && n != want || !tc.ok && n != 0 {
			t.Errorf("%s: %d hashes set", tc.name, n)
		}
	}
}

// FuzzDecodeHashUnits fuzzes the target's unit-list decoder with a
// command's first unit and list. No input panics; a refusal is
// ErrBadFrame or ErrShortFrame; an accepted command's units each hold at
// least one block, ascend without overlapping or wrapping and hold at
// most maxHashBatch blocks in all, the first is the header's, and
// encoding them again gives back the same list: decoding is strict,
// minimal varints included.
func FuzzDecodeHashUnits(f *testing.F) {
	list, err := appendHashUnits(nil, []HashUnit{{LBA: 3, Count: 5}, {LBA: 12, Count: 2, Digest: 0xD16E57}, {LBA: 14, Count: 1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint64(3), uint32(5), uint64(1), list)
	f.Add(uint64(3), uint32(5), uint64(1), []byte{})
	f.Add(uint64(0), uint32(0), uint64(0), []byte{})                             // an empty first unit
	f.Add(uint64(3), uint32(5), uint64(1), list[:len(list)-1])                   // a digest cut short
	f.Add(uint64(3), uint32(5), uint64(1), append(list, 0))                      // a trailing byte
	f.Add(uint64(3), uint32(5), uint64(1), append([]byte{0x84, 0}, list[1:]...)) // an overlong gap
	f.Add(uint64(3), uint32(5), uint64(1), append([]byte{4, 0}, list[2:]...))    // an empty unit
	f.Add(uint64(3), uint32(maxHashBatch), uint64(1), list)                      // one block too many
	f.Add(^uint64(0)-5, uint32(5), uint64(1), list)                              // an LBA that wraps
	f.Add(uint64(0), uint32(1), uint64(0), append(overlong, 1, 0, 0, 0, 0, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, lba uint64, blocks uint32, digest uint64, list []byte) {
		units, err := decodeHashUnits(nil, lba, blocks, digest, list)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrShortFrame) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if len(units) == 0 || units[0].LBA != lba || units[0].Count != blocks || units[0].Digest != digest {
			t.Fatalf("first unit %+v, want the header's", units)
		}
		total, end := uint64(0), uint64(0)
		for k, u := range units {
			if u.Count == 0 || u.LBA+uint64(u.Count) < u.LBA || k > 0 && u.LBA < end {
				t.Fatalf("unit %d: %+v after one ending at %d", k, u, end)
			}
			total += uint64(u.Count)
			end = u.LBA + uint64(u.Count)
		}
		if total > maxHashBatch {
			t.Fatalf("accepted %d blocks", total)
		}
		if again, err := appendHashUnits(nil, units); err != nil || !bytes.Equal(again, list) {
			t.Fatalf("re-encoded list %x, decoded from %x", again, list)
		}
	})
}

// restamp frames p as putHeader would, then stamps it version v with a
// digest to match.
func restamp(t *testing.T, p *PDU, v byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[1] = v
	binary.BigEndian.PutUint32(b[44:], 0)
	binary.BigEndian.PutUint32(b[44:], digest(b[:headerLen], b[headerLen:]))
	return b
}

// serveOldTarget serves conn as a target that predates unit lists and
// copy lists: it drops the session on a version other than 3, 5 or 8,
// as any target does on a version it does not know, and otherwise reads
// a command's header alone, answering every one with an empty OK: the
// answer to a hash command whose first unit matched.
func serveOldTarget(conn net.Conn, bs int) {
	defer conn.Close()
	hdr := make([]byte, headerLen)
	for {
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return
		}
		switch hdr[1] {
		case baseVersion, streamVersion, entryListVersion:
		default:
			return
		}
		if _, err := io.CopyN(io.Discard, conn, int64(binary.BigEndian.Uint32(hdr[24:]))); err != nil {
			return
		}
		resp := PDU{Op: OpResp, ITT: binary.BigEndian.Uint32(hdr[8:])}
		if Opcode(hdr[2]) == OpLoginReq {
			resp.Op, resp.Data = OpLoginResp, encodeLoginResp(bs, 1024)
		}
		if _, err := resp.WriteTo(conn); err != nil {
			return
		}
	}
}

// TestPackedVersion: a hash command of more than one unit and a span
// with copies go out as v9, a one-unit command and a span without
// copies as v3; a target refuses either list under another version and
// v9 without one; and a target that predates the lists fails the v9
// commands instead of answering a packed command for its first unit
// alone, which an initiator would read as every unit matching.
func TestPackedVersion(t *testing.T) {
	store, want := hashUnitsStore(t)
	digest := func(lba uint64, count uint32) uint64 {
		return HashBlock(AppendHashes(nil, want[lba:lba+uint64(count)]))
	}
	one := []HashUnit{{LBA: 2, Count: 3, Digest: digest(2, 3)}}
	two := []HashUnit{{LBA: 2, Count: 3, Digest: digest(2, 3)}, {LBA: 9, Count: 2, Digest: digest(9, 2) ^ 1}}
	plain, copies := goldenSpan(true, false), goldenSpan(true, true)

	hashInit, hashRec := startRecordedPair(t, &StoreBackend{Store: store})
	spanInit, spanRec := startRecordedPair(t, &extentSink{bs: goldenSpanBS, nb: 1024})
	for _, tc := range []struct {
		name string
		want byte
		rec  *recordingConn
		send func() error
	}{
		{"hash, one unit", baseVersion, hashRec, func() error { return hashInit.ReadHashUnits(&HashCmd{Units: one}) }},
		{"hash, two units", packedVersion, hashRec, func() error { return hashInit.ReadHashUnits(&HashCmd{Units: two}) }},
		{"span", baseVersion, spanRec, func() error { _, err := spanInit.WriteSpan(&plain); return err }},
		{"span, copies", packedVersion, spanRec, func() error { _, err := spanInit.WriteSpan(&copies); return err }},
	} {
		if err := tc.send(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if wire := tc.rec.take(); len(wire) < headerLen || wire[1] != tc.want {
			t.Errorf("%s: stamped %x, want version %d", tc.name, wire[:min(2, len(wire))], tc.want)
		}
	}

	// Each list under the other version, sent raw to a target.
	list, err := appendHashUnits(nil, two)
	if err != nil {
		t.Fatal(err)
	}
	spanSeg := func(s Span) []byte {
		seg, err := encodeSpan(&s, goldenSpanBS)
		if err != nil {
			t.Fatal(err)
		}
		return seg
	}
	hashCmd := func(data []byte) *PDU {
		return &PDU{Op: OpHashCmd, ITT: 7, LBA: two[0].LBA, Blocks: two[0].Count, Hash: two[0].Digest, Data: data}
	}
	spanCmd := func(s Span) *PDU {
		return &PDU{Op: OpWriteSpan, ITT: 7, LBA: s.LBA, Blocks: s.Blocks, Seq: uint64(len(s.Copies)), Data: spanSeg(s)}
	}
	for _, tc := range []struct {
		name    string
		backend Backend
		pdu     *PDU
		version byte
	}{
		{"hash units under v3", &StoreBackend{Store: store}, hashCmd(list), baseVersion},
		{"one-unit hash under v9", &StoreBackend{Store: store}, hashCmd(nil), packedVersion},
		{"span copies under v3", &extentSink{bs: goldenSpanBS, nb: 1024}, spanCmd(copies), baseVersion},
		{"plain span under v9", &extentSink{bs: goldenSpanBS, nb: 1024}, spanCmd(plain), packedVersion},
	} {
		target := NewTarget()
		target.Export("r", tc.backend)
		client, server := net.Pipe()
		go target.ServeConn(server)
		for _, req := range [][]byte{restamp(t, &PDU{Op: OpLoginReq, Data: encodeLoginReq("r")}, baseVersion), restamp(t, tc.pdu, tc.version)} {
			if _, err := client.Write(req); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			resp, err := ReadPDU(client)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if resp.Op == OpResp && resp.Status != StatusBadRequest {
				t.Errorf("%s: status %v, want BAD-REQUEST", tc.name, resp.Status)
			}
		}
		client.Close()
	}

	for _, tc := range []struct {
		name   string
		packed bool
		send   func(*Initiator) error
	}{
		{"hash, one unit", false, func(i *Initiator) error { return i.ReadHashUnits(&HashCmd{Units: slices.Clone(one)}) }},
		{"hash, two units", true, func(i *Initiator) error { return i.ReadHashUnits(&HashCmd{Units: slices.Clone(two)}) }},
		{"span", false, func(i *Initiator) error { _, err := i.WriteSpan(&plain); return err }},
		{"span, copies", true, func(i *Initiator) error { _, err := i.WriteSpan(&copies); return err }},
	} {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			serveOldTarget(server, goldenSpanBS)
		}()
		init := NewInitiator(client)
		if err := init.Login("r"); err != nil {
			t.Fatal(err)
		}
		err := tc.send(init)
		if tc.packed && err == nil {
			t.Errorf("%s: an old target's answer passed", tc.name)
		}
		if !tc.packed && err != nil {
			t.Errorf("%s: an old target refused it: %v", tc.name, err)
		}
		init.Close()
		<-done
	}
}
