package parity

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestXORBasic(t *testing.T) {
	tests := []struct {
		name string
		a, b []byte
		want []byte
	}{
		{name: "empty", a: nil, b: nil, want: []byte{}},
		{name: "single", a: []byte{0xFF}, b: []byte{0x0F}, want: []byte{0xF0}},
		{name: "identity", a: []byte{1, 2, 3}, b: []byte{0, 0, 0}, want: []byte{1, 2, 3}},
		{name: "self cancels", a: []byte{9, 9, 9}, b: []byte{9, 9, 9}, want: []byte{0, 0, 0}},
		{
			name: "crosses word boundary",
			a:    []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
			b:    []byte{10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
			want: []byte{11, 11, 11, 3, 3, 3, 3, 11, 11, 11},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := XORBytes(tt.a, tt.b)
			if err != nil {
				t.Fatalf("XORBytes: %v", err)
			}
			if !bytes.Equal(got, tt.want) {
				t.Errorf("XORBytes(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestXORLengthMismatch(t *testing.T) {
	if _, err := XORBytes([]byte{1}, []byte{1, 2}); err == nil {
		t.Error("XORBytes with mismatched lengths: want error, got nil")
	}
	if err := XOR(make([]byte, 3), []byte{1, 2}, []byte{1, 2}); err == nil {
		t.Error("XOR with short dst: want error, got nil")
	}
}

func TestXORAliasing(t *testing.T) {
	a := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	b := []byte{9, 8, 7, 6, 5, 4, 3, 2, 1}
	want, _ := XORBytes(a, b)

	aCopy := append([]byte(nil), a...)
	if err := XOR(aCopy, aCopy, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aCopy, want) {
		t.Errorf("dst aliasing a: got %v, want %v", aCopy, want)
	}

	bCopy := append([]byte(nil), b...)
	if err := XOR(bCopy, a, bCopy); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bCopy, want) {
		t.Errorf("dst aliasing b: got %v, want %v", bCopy, want)
	}
}

func TestKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := []int{511, 512, 513, 4096, 8192}
	for n := 0; n <= 97; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		a := make([]byte, n)
		b := make([]byte, n)
		rng.Read(a)
		rng.Read(b)
		want := make([]byte, n)
		xorBytewise(want, a, b)

		// dst fresh, dst == a, dst == b: the only aliasings XOR allows.
		fresh, overA, overB := make([]byte, n), bytes.Clone(a), bytes.Clone(b)
		for what, args := range map[string][3][]byte{
			"fresh dst": {fresh, a, b}, "dst == a": {overA, overA, b}, "dst == b": {overB, a, overB},
		} {
			if err := XOR(args[0], args[1], args[2]); err != nil || !bytes.Equal(args[0], want) {
				t.Errorf("n=%d %s: XOR disagrees with the bytewise oracle (err %v)", n, what, err)
			}
		}
		inPlace := bytes.Clone(a)
		if err := XORInPlace(inPlace, b); err != nil || !bytes.Equal(inPlace, want) {
			t.Errorf("n=%d: XORInPlace disagrees with the bytewise oracle (err %v)", n, err)
		}
	}

	a, b, dst := make([]byte, 4096), make([]byte, 4096), make([]byte, 4096)
	if got := testing.AllocsPerRun(100, func() {
		_ = XOR(dst, a, b)
		_ = XORInPlace(dst, a)
		_, _ = XORCountNonZero(dst, a, b)
	}); got != 0 {
		t.Errorf("XOR kernels allocate: %.1f allocs per run, want 0", got)
	}
}

// TestForwardBackwardRoundTrip is the central PRINS invariant: the
// replica recovers exactly the primary's new block from the shipped
// parity and its own old copy.
func TestForwardBackwardRoundTrip(t *testing.T) {
	f := func(oldData, newData []byte) bool {
		if len(oldData) > len(newData) {
			oldData, newData = newData, oldData
		}
		newData = newData[:len(oldData)]
		p, err := Forward(newData, oldData)
		if err != nil {
			return false
		}
		got, err := Backward(p, oldData)
		if err != nil {
			return false
		}
		return bytes.Equal(got, newData)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestXORProperties checks the algebraic laws the protocol relies on.
func TestXORProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}

	commutative := func(a, b [32]byte) bool {
		x, _ := XORBytes(a[:], b[:])
		y, _ := XORBytes(b[:], a[:])
		return bytes.Equal(x, y)
	}
	if err := quick.Check(commutative, cfg); err != nil {
		t.Errorf("commutativity: %v", err)
	}

	associative := func(a, b, c [32]byte) bool {
		ab, _ := XORBytes(a[:], b[:])
		abc1, _ := XORBytes(ab, c[:])
		bc, _ := XORBytes(b[:], c[:])
		abc2, _ := XORBytes(a[:], bc)
		return bytes.Equal(abc1, abc2)
	}
	if err := quick.Check(associative, cfg); err != nil {
		t.Errorf("associativity: %v", err)
	}

	selfInverse := func(a [32]byte) bool {
		x, _ := XORBytes(a[:], a[:])
		return IsZero(x)
	}
	if err := quick.Check(selfInverse, cfg); err != nil {
		t.Errorf("self-inverse: %v", err)
	}
}

func TestIsZero(t *testing.T) {
	tests := []struct {
		name string
		in   []byte
		want bool
	}{
		{name: "empty", in: nil, want: true},
		{name: "zeros short", in: make([]byte, 5), want: true},
		{name: "zeros long", in: make([]byte, 4096), want: true},
		{name: "bit in head", in: append([]byte{1}, make([]byte, 100)...), want: false},
		{name: "bit in tail", in: append(make([]byte, 100), 1), want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IsZero(tt.in); got != tt.want {
				t.Errorf("IsZero = %v, want %v", got, tt.want)
			}
		})
	}

	// A single non-zero byte at any position must be detected.
	buf := make([]byte, 129)
	for i := range buf {
		buf[i] = 0xA5
		if IsZero(buf) {
			t.Fatalf("IsZero missed byte at offset %d", i)
		}
		buf[i] = 0
	}
}

func TestNonZeroBytes(t *testing.T) {
	if got := NonZeroBytes([]byte{0, 1, 0, 2, 0}); got != 2 {
		t.Errorf("NonZeroBytes = %d, want 2", got)
	}
	if got := NonZeroBytes(nil); got != 0 {
		t.Errorf("NonZeroBytes(nil) = %d, want 0", got)
	}
}

// TestNonZeroBytesMatchesBytewise cross-checks the word-wide counter
// against the byte-wise oracle (mirrors TestKernelsAgree for the XOR
// kernels): word-boundary sizes, unaligned tails, zero, sparse and
// dense blocks.
func TestNonZeroBytesMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 4096, 4099} {
		dense := make([]byte, n)
		rng.Read(dense)
		sparse := make([]byte, n)
		for i := 0; i < n; i += 17 {
			sparse[i] = byte(1 + rng.Intn(255))
		}
		for name, buf := range map[string][]byte{
			"zero": make([]byte, n), "dense": dense, "sparse": sparse,
		} {
			if got, want := NonZeroBytes(buf), nonZeroBytesBytewise(buf); got != want {
				t.Errorf("n=%d %s: NonZeroBytes = %d, oracle = %d", n, name, got, want)
			}
		}
	}

	// A single non-zero byte at any position — head, tail, and both
	// sides of every word boundary — must be counted exactly once.
	buf := make([]byte, 25)
	for i := range buf {
		buf[i] = 0xA5
		if got := NonZeroBytes(buf); got != 1 {
			t.Fatalf("lone byte at offset %d counted as %d", i, got)
		}
		buf[i] = 0
	}
}

// benchCount keeps the counting benchmarks' results observable.
var benchCount int

// BenchmarkNonZeroBytes is the ablation for the word-wide counting
// kernel (DESIGN.md): the branch-free word kernel against the
// byte-wise oracle, on sparse (10%, clustered) and dense blocks.
func BenchmarkNonZeroBytes(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	kernels := []struct {
		name string
		fn   func([]byte) int
	}{
		{name: "words", fn: NonZeroBytes},
		{name: "bytewise", fn: nonZeroBytesBytewise},
	}
	for _, size := range []int{4 << 10, 64 << 10} {
		sparse := make([]byte, size)
		for changed := 0; changed < size/10; {
			run := 8 + rng.Intn(48)
			off := rng.Intn(size - run)
			for i := off; i < off+run; i++ {
				sparse[i] = byte(1 + rng.Intn(255))
			}
			changed += run
		}
		dense := make([]byte, size)
		rng.Read(dense)
		for _, in := range []struct {
			name string
			buf  []byte
		}{
			{name: "sparse", buf: sparse},
			{name: "dense", buf: dense},
		} {
			for _, k := range kernels {
				b.Run(fmt.Sprintf("%s-%s-%dKB", k.name, in.name, size>>10), func(b *testing.B) {
					b.SetBytes(int64(size))
					for i := 0; i < b.N; i++ {
						benchCount = k.fn(in.buf)
					}
				})
			}
		}
	}
}

func TestStripeParity(t *testing.T) {
	if _, err := StripeParity(); err == nil {
		t.Error("StripeParity(): want error for empty stripe")
	}

	a := []byte{1, 2, 3, 4}
	b := []byte{4, 3, 2, 1}
	c := []byte{5, 5, 5, 5}
	p, err := StripeParity(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1 ^ 4 ^ 5, 2 ^ 3 ^ 5, 3 ^ 2 ^ 5, 4 ^ 1 ^ 5}
	if !bytes.Equal(p, want) {
		t.Errorf("StripeParity = %v, want %v", p, want)
	}

	// Reconstruction: drop b, rebuild it from parity and survivors.
	rebuilt, err := ReconstructBlock(p, a, c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt, b) {
		t.Errorf("ReconstructBlock = %v, want %v", rebuilt, b)
	}
}

// TestRAIDSmallWriteUpdate verifies that the small-write parity update
// (the computation PRINS piggybacks on) leaves the stripe consistent.
func TestRAIDSmallWriteUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	blocks := make([][]byte, 4)
	for i := range blocks {
		blocks[i] = make([]byte, 64)
		rng.Read(blocks[i])
	}
	p, err := StripeParity(blocks...)
	if err != nil {
		t.Fatal(err)
	}

	// Overwrite block 2.
	newBlock := make([]byte, 64)
	rng.Read(newBlock)
	fp, err := Forward(newBlock, blocks[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := UpdateParity(p, fp); err != nil {
		t.Fatal(err)
	}
	blocks[2] = newBlock

	wantP, err := StripeParity(blocks...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, wantP) {
		t.Error("incremental parity update diverged from full-stripe recompute")
	}
}

func TestStripeParityLengthMismatch(t *testing.T) {
	if _, err := StripeParity([]byte{1, 2}, []byte{1}); err == nil {
		t.Error("StripeParity with ragged blocks: want error")
	}
}

// TestXORCountNonZeroMatchesOracle cross-checks the fused XOR+count
// kernel against the two reference kernels composed: the result bytes
// must equal the byte-wise XOR and the count must equal the byte-wise
// scan of that result, across word boundaries, unaligned tails, and
// sparse and dense parity.
func TestXORCountNonZeroMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 4096, 4099} {
		a := make([]byte, n)
		rng.Read(a)
		sparse := append([]byte(nil), a...)
		for i := 0; i < n; i += 13 {
			sparse[i] ^= byte(1 + rng.Intn(255))
		}
		dense := make([]byte, n)
		rng.Read(dense)
		for name, b := range map[string][]byte{
			"identical": append([]byte(nil), a...), "sparse": sparse, "dense": dense,
		} {
			got := make([]byte, n)
			count, err := XORCountNonZero(got, a, b)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			want := make([]byte, n)
			xorBytewise(want, a, b)
			if !bytes.Equal(got, want) {
				t.Errorf("n=%d %s: fused XOR diverged from bytewise oracle", n, name)
			}
			if oracle := nonZeroBytesBytewise(want); count != oracle {
				t.Errorf("n=%d %s: count = %d, oracle = %d", n, name, count, oracle)
			}
		}
	}
}

// TestXORCountNonZeroAliasing proves the fused kernel tolerates dst
// aliasing either operand, which the engine relies on when the parity
// scratch doubles as an input.
func TestXORCountNonZeroAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := make([]byte, 100)
	b := make([]byte, 100)
	rng.Read(a)
	rng.Read(b)
	want, _ := XORBytes(a, b)
	wantCount := nonZeroBytesBytewise(want)

	aCopy := append([]byte(nil), a...)
	if count, err := XORCountNonZero(aCopy, aCopy, b); err != nil || count != wantCount || !bytes.Equal(aCopy, want) {
		t.Errorf("dst aliasing a: count=%d err=%v", count, err)
	}
	bCopy := append([]byte(nil), b...)
	if count, err := XORCountNonZero(bCopy, a, bCopy); err != nil || count != wantCount || !bytes.Equal(bCopy, want) {
		t.Errorf("dst aliasing b: count=%d err=%v", count, err)
	}
}

func TestXORCountNonZeroLengthMismatch(t *testing.T) {
	if _, err := XORCountNonZero(make([]byte, 3), []byte{1, 2}, []byte{1, 2}); err == nil {
		t.Error("short dst: want error, got nil")
	}
	if _, err := XORCountNonZero(make([]byte, 2), []byte{1, 2}, []byte{1}); err == nil {
		t.Error("ragged operands: want error, got nil")
	}
}

// BenchmarkXORCountNonZero times the encode path's XOR + density count
// on a 10%-changed 4 KiB block.
func BenchmarkXORCountNonZero(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	const size = 4 << 10
	oldData := make([]byte, size)
	rng.Read(oldData)
	newData := append([]byte(nil), oldData...)
	for i := 0; i < size/10; i++ {
		newData[rng.Intn(size)] ^= byte(1 + rng.Intn(255))
	}
	dst := make([]byte, size)
	b.SetBytes(size)
	for i := 0; i < b.N; i++ {
		benchCount, _ = XORCountNonZero(dst, newData, oldData)
	}
}

// xorBytewise is the reference XOR kernel: the oracle for XOR and the
// count kernels.
func xorBytewise(dst, a, b []byte) {
	for i := range a {
		dst[i] = a[i] ^ b[i]
	}
}

// nonZeroBytesBytewise is the reference count kernel: the oracle for
// NonZeroBytes and XORCountNonZero and the baseline arm of
// BenchmarkNonZeroBytes.
func nonZeroBytesBytewise(p []byte) int {
	count := 0
	for _, v := range p {
		if v != 0 {
			count++
		}
	}
	return count
}

// TestCountKernelsMatchBytewise runs the branch-free count kernels over
// the table the ZRL encoder's differential test uses (internal/xcode
// TestZRLEncodeMatchesBytewise): zero gaps of 1..5 bytes in a non-zero
// block and literals of 1..5 bytes in a zero block, at every offset —
// block start, every offset mod 8, across word and 4-word-step
// boundaries, touching the end — for lengths on and around the word
// size. nonZeroByteMask must count each lane exactly whatever its
// neighbours hold.
func TestCountKernelsMatchBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	check := func(pattern, base []byte, what string) {
		t.Helper()
		want := nonZeroBytesBytewise(pattern)
		if got := NonZeroBytes(pattern); got != want {
			t.Fatalf("%s: NonZeroBytes = %d, oracle = %d", what, got, want)
		}
		// base XOR (base XOR pattern) == pattern.
		other := make([]byte, len(pattern))
		xorBytewise(other, base, pattern)
		dst := make([]byte, len(pattern))
		got, err := XORCountNonZero(dst, base, other)
		if err != nil || got != want || !bytes.Equal(dst, pattern) {
			t.Fatalf("%s: XORCountNonZero = %d (err %v), oracle = %d", what, got, err, want)
		}
	}
	for _, n := range []int{0, 1, 7, 8, 9, 511, 512, 8192} {
		full := make([]byte, n)
		for i := range full {
			full[i] = byte(1 + rng.Intn(255))
		}
		base := make([]byte, n)
		rng.Read(base)
		check(full, base, fmt.Sprintf("n=%d no zeros", n))
		check(make([]byte, n), base, fmt.Sprintf("n=%d all zeros", n))

		block := make([]byte, n)
		for off := 0; off < n; off++ {
			if n > 512 && off >= 40 && (off < 4076 || off >= 4116) && off < n-40 {
				continue
			}
			for gap := 1; gap <= 5 && off+gap <= n; gap++ {
				copy(block, full)
				clear(block[off : off+gap])
				check(block, base, fmt.Sprintf("n=%d gap=%d at %d", n, gap, off))

				clear(block)
				copy(block[off:off+gap], full[off:])
				check(block, base, fmt.Sprintf("n=%d literal=%d at %d", n, gap, off))
			}
		}
	}
	// Lanes whose value borrows in the haszero formulation: 0x01 and
	// 0x80 next to zero lanes, in every lane position.
	for lane := 0; lane < 8; lane++ {
		for _, v := range []byte{0x01, 0x80, 0xFF} {
			block := make([]byte, 16)
			block[lane], block[8+(lane+1)%8] = v, v
			check(block, make([]byte, 16), fmt.Sprintf("value %#x in lane %d", v, lane))
		}
	}
}
