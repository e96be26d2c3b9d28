package iscsi

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
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

// TestReadHashesStrictDecoding: with a digest, ReadHashes accepts
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
			hashes, match, err := init.ReadHashes(n, count, digest)
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
