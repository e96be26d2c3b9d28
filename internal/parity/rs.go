package parity

import "fmt"

// GF(256) Reed–Solomon striping for k-of-n replica groups.
//
// A block is split into k data units (the last one zero-padded) and
// expanded to n units with n-k parity units computed over GF(256) with
// a Cauchy generator matrix: unit j of the systematic generator
// G = [I; C] is e_j for j < k and the Cauchy row
//
//	C[j-k][i] = 1 / (x_j XOR y_i),  x_j = j (j >= k), y_i = i (i < k)
//
// otherwise. Every k×k submatrix of G is invertible (the Cauchy
// property), so ANY k of the n units reconstruct the block.
//
// The code is linear over GF(2): Encode(a XOR b) = Encode(a) XOR
// Encode(b) unit-wise, which is what lets PRINS ship delta-striped
// units — the RS encoding of the forward parity P' = A_new XOR A_old —
// that a replica folds into its stored unit with one XOR, exactly like
// the full-block backward computation.
//
// A lost unit is rebuilt by re-encoding: the primary holds every
// logical block, so unit r of block b is row r of Encode(b), shipped by
// resync at u bytes per block rather than gathered from k survivors.

// gfPoly is the AES field polynomial x^8+x^4+x^3+x+1.
const gfPoly = 0x11d

var (
	gfExp [512]byte // generator powers, doubled to skip a mod
	gfLog [256]byte
	// gfMulTab[a][b] = a·b in GF(256); 64 KiB buys table-speed
	// multiply-accumulate kernels for encode and reconstruct.
	gfMulTab [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			gfMulTab[a][b] = gfExp[int(gfLog[a])+int(gfLog[b])]
		}
	}
}

func gfMul(a, b byte) byte { return gfMulTab[a][b] }

// gfInv returns the multiplicative inverse; a must be nonzero.
func gfInv(a byte) byte {
	return gfExp[255-int(gfLog[a])]
}

// GFMulAdd folds c·src into dst byte-wise: dst[i] ^= c·src[i]. It is
// the multiply-accumulate kernel the encoder and the decoder share.
// c==0 is a no-op; c==1 degenerates to XOR. Lengths must match.
func GFMulAdd(dst, src []byte, c byte) error {
	if len(dst) != len(src) {
		return fmt.Errorf("parity: gfmuladd length mismatch: %d != %d", len(dst), len(src))
	}
	switch c {
	case 0:
		return nil
	case 1:
		return XORInPlace(dst, src)
	}
	tab := &gfMulTab[c]
	for i, s := range src {
		dst[i] ^= tab[s]
	}
	return nil
}

// MaxGroupUnits bounds n: the Cauchy point set x_j = j needs
// j <= 255.
const MaxGroupUnits = 255

// RS is a k-of-n systematic Reed–Solomon code over GF(256).
type RS struct {
	k, n int
	// parityRows[j][i] is the coefficient of data unit i in parity
	// unit k+j (the Cauchy block C).
	parityRows [][]byte
}

// NewRS builds the k-of-n code. 1 <= k <= n <= MaxGroupUnits.
func NewRS(k, n int) (*RS, error) {
	if k < 1 || n < k || n > MaxGroupUnits {
		return nil, fmt.Errorf("parity: invalid RS group k=%d n=%d", k, n)
	}
	r := &RS{k: k, n: n}
	r.parityRows = make([][]byte, n-k)
	for j := range r.parityRows {
		row := make([]byte, k)
		for i := 0; i < k; i++ {
			// x_j = k+j and y_i = i never collide (k+j >= k > i), so the
			// difference is nonzero and invertible.
			row[i] = gfInv(byte(k+j) ^ byte(i))
		}
		r.parityRows[j] = row
	}
	return r, nil
}

// K returns the data-unit count (the reconstruction quorum).
func (r *RS) K() int { return r.k }

// N returns the total unit count.
func (r *RS) N() int { return r.n }

// UnitSize returns the per-unit byte size for a block of blockSize
// bytes: ceil(blockSize/k). The last data unit is zero-padded to it.
func (r *RS) UnitSize(blockSize int) int {
	return (blockSize + r.k - 1) / r.k
}

// row returns generator row j (unit j's coefficients over the k data
// units): a unit vector for data units, the Cauchy row for parity.
func (r *RS) row(j int) []byte {
	if j < r.k {
		row := make([]byte, r.k)
		row[j] = 1
		return row
	}
	return r.parityRows[j-r.k]
}

// EncodeInto splits block into k data units and computes the n-k
// parity units, writing all n units into units (each exactly
// UnitSize(len(block)) bytes, caller-allocated): unit j is
// EncodeUnit's unit j.
func (r *RS) EncodeInto(units [][]byte, block []byte) error {
	if len(units) != r.n {
		return fmt.Errorf("parity: encode wants %d unit buffers, got %d", r.n, len(units))
	}
	for j := range units {
		if err := r.EncodeUnit(units[j], block, j); err != nil {
			return err
		}
	}
	return nil
}

// EncodeUnit writes unit j of block's encoding into dst (exactly
// UnitSize(len(block)) bytes) without computing the others: a data
// unit is its slice of block copied with zero padding, a parity unit
// the Cauchy combination of the k data slices. It is what a rebuild of
// one lost unit needs per block.
func (r *RS) EncodeUnit(dst, block []byte, j int) error {
	u := r.UnitSize(len(block))
	if j < 0 || j >= r.n {
		return fmt.Errorf("parity: unit %d outside a %d-unit group", j, r.n)
	}
	if len(dst) != u {
		return fmt.Errorf("parity: unit %d is %d bytes, want %d", j, len(dst), u)
	}
	if j < r.k {
		n := copy(dst, dataUnit(block, j, u))
		clear(dst[n:])
		return nil
	}
	clear(dst)
	for i, c := range r.parityRows[j-r.k] {
		// The padding past the block's end is zero and adds nothing.
		src := dataUnit(block, i, u)
		if err := GFMulAdd(dst[:len(src)], src, c); err != nil {
			return err
		}
	}
	return nil
}

// dataUnit returns data unit i's bytes of block, u bytes or fewer: the
// last unit's zero padding is not there.
func dataUnit(block []byte, i, u int) []byte {
	lo := min(i*u, len(block))
	return block[lo:min(lo+u, len(block))]
}

// Encode is EncodeInto with freshly allocated unit buffers.
func (r *RS) Encode(block []byte) ([][]byte, error) {
	u := r.UnitSize(len(block))
	units := make([][]byte, r.n)
	for j := range units {
		units[j] = make([]byte, u)
	}
	if err := r.EncodeInto(units, block); err != nil {
		return nil, err
	}
	return units, nil
}

// invertMatrix inverts a k×k GF(256) matrix in place via Gauss-Jordan
// elimination, returning the inverse. m is consumed.
func invertMatrix(m [][]byte, k int) ([][]byte, error) {
	inv := make([][]byte, k)
	for i := range inv {
		inv[i] = make([]byte, k)
		inv[i][i] = 1
	}
	for col := 0; col < k; col++ {
		pivot := -1
		for row := col; row < k; row++ {
			if m[row][col] != 0 {
				pivot = row
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("parity: singular reconstruction matrix")
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		if pv := m[col][col]; pv != 1 {
			pvInv := gfInv(pv)
			for c := 0; c < k; c++ {
				m[col][c] = gfMul(m[col][c], pvInv)
				inv[col][c] = gfMul(inv[col][c], pvInv)
			}
		}
		for row := 0; row < k; row++ {
			if row == col || m[row][col] == 0 {
				continue
			}
			f := m[row][col]
			for c := 0; c < k; c++ {
				m[row][c] ^= gfMul(f, m[col][c])
				inv[row][c] ^= gfMul(f, inv[col][c])
			}
		}
	}
	return inv, nil
}

// decodeMatrix returns A⁻¹ for the survivor set: A's rows are the
// generator rows of the k survivors, so data = A⁻¹ · survivor_units.
// Survivor indices must be distinct, in [0, n).
func (r *RS) decodeMatrix(survivors []int) ([][]byte, error) {
	if len(survivors) != r.k {
		return nil, fmt.Errorf("parity: reconstruction needs %d survivors, got %d", r.k, len(survivors))
	}
	seen := make(map[int]bool, r.k)
	a := make([][]byte, r.k)
	for m, s := range survivors {
		if s < 0 || s >= r.n || seen[s] {
			return nil, fmt.Errorf("parity: bad survivor set %v", survivors)
		}
		seen[s] = true
		a[m] = append([]byte(nil), r.row(s)...)
	}
	return invertMatrix(a, r.k)
}

// ReconstructInto rebuilds the original block (blockSize bytes) from
// any k survivor units. survivors lists the unit indices, units the
// matching unit payloads in the same order.
func (r *RS) ReconstructInto(dst []byte, survivors []int, units [][]byte) error {
	if len(units) != r.k {
		return fmt.Errorf("parity: reconstruction needs %d units, got %d", r.k, len(units))
	}
	u := r.UnitSize(len(dst))
	for m := range units {
		if len(units[m]) != u {
			return fmt.Errorf("parity: survivor unit %d is %d bytes, want %d", m, len(units[m]), u)
		}
	}
	ainv, err := r.decodeMatrix(survivors)
	if err != nil {
		return err
	}
	scratch := make([]byte, u)
	for i := 0; i < r.k; i++ { // data unit i = row i of A⁻¹ · units
		for b := range scratch {
			scratch[b] = 0
		}
		for m := 0; m < r.k; m++ {
			if err := GFMulAdd(scratch, units[m], ainv[i][m]); err != nil {
				return err
			}
		}
		lo := i * u
		if lo >= len(dst) {
			continue
		}
		copy(dst[lo:], scratch)
	}
	return nil
}
