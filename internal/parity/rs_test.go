package parity

import (
	"bytes"
	"math/rand"
	"testing"
)

// subsets enumerates every k-subset of [0, n).
func subsets(n, k int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(0, nil)
	return out
}

func TestRSRoundTripAllSurvivorSets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ k, n, bs int }{
		{1, 1, 512}, {1, 3, 512}, {2, 2, 512}, {2, 4, 512},
		{3, 5, 1000}, {4, 4, 4096}, {3, 7, 777},
	} {
		rs, err := NewRS(tc.k, tc.n)
		if err != nil {
			t.Fatalf("NewRS(%d,%d): %v", tc.k, tc.n, err)
		}
		block := make([]byte, tc.bs)
		rng.Read(block)
		units, err := rs.Encode(block)
		if err != nil {
			t.Fatalf("encode k=%d n=%d: %v", tc.k, tc.n, err)
		}
		for _, set := range subsets(tc.n, tc.k) {
			got := make([]byte, tc.bs)
			su := make([][]byte, tc.k)
			for m, s := range set {
				su[m] = units[s]
			}
			if err := rs.ReconstructInto(got, set, su); err != nil {
				t.Fatalf("reconstruct k=%d n=%d from %v: %v", tc.k, tc.n, set, err)
			}
			if !bytes.Equal(got, block) {
				t.Fatalf("k=%d n=%d survivors %v: reconstructed block differs", tc.k, tc.n, set)
			}
		}
	}
}

// The code must be linear over XOR: Encode(a^b) == Encode(a)^Encode(b)
// unit-wise. PRINS delta-striping depends on it — the primary ships
// RS-encoded deltas and the replica folds them into stored units.
func TestRSLinearity(t *testing.T) {
	rs, err := NewRS(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	a := make([]byte, 4096)
	b := make([]byte, 4096)
	rng.Read(a)
	rng.Read(b)
	ab := make([]byte, 4096)
	for i := range ab {
		ab[i] = a[i] ^ b[i]
	}
	ua, _ := rs.Encode(a)
	ub, _ := rs.Encode(b)
	uab, _ := rs.Encode(ab)
	for j := range uab {
		for i := range uab[j] {
			if uab[j][i] != ua[j][i]^ub[j][i] {
				t.Fatalf("unit %d byte %d: encode not linear", j, i)
			}
		}
	}
}

func TestRSRejectsBadShapes(t *testing.T) {
	if _, err := NewRS(0, 4); err == nil {
		t.Fatal("NewRS(0,4) accepted")
	}
	if _, err := NewRS(5, 4); err == nil {
		t.Fatal("NewRS(5,4) accepted")
	}
	if _, err := NewRS(2, 300); err == nil {
		t.Fatal("NewRS(2,300) accepted")
	}
	rs, _ := NewRS(2, 3)
	units := [][]byte{make([]byte, 4), make([]byte, 4)}
	if err := rs.ReconstructInto(make([]byte, 8), []int{1, 1}, units); err == nil {
		t.Fatal("duplicate survivor accepted")
	}
	if err := rs.ReconstructInto(make([]byte, 8), []int{1, 3}, units); err == nil {
		t.Fatal("out-of-range survivor accepted")
	}
	if err := GFMulAdd(make([]byte, 3), make([]byte, 4), 2); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestRSUnitSizePadding(t *testing.T) {
	rs, _ := NewRS(3, 4)
	if got := rs.UnitSize(10); got != 4 {
		t.Fatalf("UnitSize(10) = %d, want 4", got)
	}
	block := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	units, err := rs.Encode(block)
	if err != nil {
		t.Fatal(err)
	}
	// Last data unit carries the 2-byte pad.
	if !bytes.Equal(units[2], []byte{9, 10, 0, 0}) {
		t.Fatalf("padded data unit = %v", units[2])
	}
	got := make([]byte, len(block))
	if err := rs.ReconstructInto(got, []int{0, 1, 3}, [][]byte{units[0], units[1], units[3]}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block) {
		t.Fatalf("padded reconstruction differs: %v", got)
	}
}

// TestRSEncodeUnit: the one-unit encoder equals unit j of EncodeInto
// for every (k, n, j), block sizes that do not divide by k included,
// and both equal the generator-row definition computed bytewise over a
// zero-padded copy of the block. The destination starts dirty, so a
// unit that is not wholly written shows.
func TestRSEncodeUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for k := 1; k <= 5; k++ {
		for n := k; n <= k+4; n++ {
			rs, err := NewRS(k, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, bs := range []int{1, k, 4*k + 1, 512, 1000, 4099} {
				block := make([]byte, bs)
				rng.Read(block)
				u := rs.UnitSize(bs)
				units := make([][]byte, n)
				for j := range units {
					units[j] = make([]byte, u)
				}
				if err := rs.EncodeInto(units, block); err != nil {
					t.Fatal(err)
				}
				padded := make([]byte, k*u)
				copy(padded, block)
				for j := 0; j < n; j++ {
					want := make([]byte, u)
					for i, c := range rs.row(j) {
						for b := range want {
							want[b] ^= gfMul(c, padded[i*u+b])
						}
					}
					got := bytes.Repeat([]byte{0xA5}, u)
					if err := rs.EncodeUnit(got, block, j); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) || !bytes.Equal(units[j], want) {
						t.Fatalf("k=%d n=%d bs=%d unit %d: EncodeUnit %x, EncodeInto %x, generator row %x", k, n, bs, j, got, units[j], want)
					}
				}
			}
			if err := rs.EncodeUnit(make([]byte, rs.UnitSize(8)), make([]byte, 8), n); err == nil {
				t.Errorf("k=%d n=%d: unit %d encoded", k, n, n)
			}
			if err := rs.EncodeUnit(make([]byte, rs.UnitSize(8)+1), make([]byte, 8), 0); err == nil {
				t.Errorf("k=%d n=%d: oversized unit buffer accepted", k, n)
			}
		}
	}
}

func BenchmarkRSEncode(b *testing.B) {
	rs, _ := NewRS(2, 4)
	block := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(block)
	u := rs.UnitSize(len(block))
	units := make([][]byte, 4)
	for j := range units {
		units[j] = make([]byte, u)
	}
	b.SetBytes(int64(len(block)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rs.EncodeInto(units, block); err != nil {
			b.Fatal(err)
		}
	}
}
