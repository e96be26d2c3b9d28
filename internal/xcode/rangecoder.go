package xcode

import "encoding/binary"

// The binary range coder under a stream segment, LZMA's: every symbol
// is a run of binary decisions, each coded against an adaptive 11-bit
// probability that moves a fixed fraction of the way towards every bit
// it codes.
// lz.go lays the symbols out; this file codes bits and the trees of
// bits that literals, lengths and distances are made of.

const (
	probBits  = 11
	probOne   = 1 << probBits // a probability of 1
	probInit  = probOne / 2
	rangeTop  = 1 << 24 // the range is renormalised below this
	coderTail = 4       // the bytes the decoder loads before its first decision, and the flush leaves after the last
)

// How far a model moves towards each bit it codes: 1/2^move of the
// way. Most models move LZMA's 1/32. A literal's move 1/128: the bytes
// between a stream's repeats keep to their statistics for the stream's
// life, and a slower model codes a random byte in about 8.02 bits where
// LZMA's pays 8.09. isMatch moves 1/16, so that its floor, what a
// literal in a long run of them pays for the flag, is 0.011 bits, not
// 0.022.
const (
	moveBits      = 5
	litMoveBits   = 7
	matchMoveBits = 4
)

// prob is one adaptive binary model: the chance, in 1/probOne, that the
// next bit it codes is 0. The move is a shift, and stops short of
// either end: a model that moves 1/2^move stays within [2^move - 1,
// probOne - 2^move + 1].
type prob uint16

// rangeEncoder appends the coded bytes of a run of decisions to out.
// low is the interval's base, 33 bits wide so that a carry shows; the
// bytes of it that have left the top wait in cache and pending until no
// carry can reach them. LZMA's first byte, always 0, is never written.
type rangeEncoder struct {
	out     []byte
	low     uint64
	rng     uint32
	cache   byte
	pending int  // 0xFF bytes behind cache
	started bool // cache holds a byte to write: false until the first byte has left low
}

// reset starts a run of decisions whose bytes flush appends to out.
func (e *rangeEncoder) reset(out []byte) {
	*e = rangeEncoder{out: out, rng: 0xFFFFFFFF}
}

// shiftLow moves low's top byte out, writing what no carry can change
// any more.
func (e *rangeEncoder) shiftLow() {
	if uint32(e.low) < 0xFF000000 || e.low >= 1<<32 {
		carry := byte(e.low >> 32)
		if e.started {
			e.out = append(e.out, e.cache+carry)
		}
		for ; e.pending > 0; e.pending-- {
			e.out = append(e.out, 0xFF+carry)
		}
		e.cache, e.started = byte(e.low>>24), true
	} else {
		e.pending++
	}
	e.low = (e.low & 0x00FFFFFF) << 8
}

// bit codes b (0 or 1) against p and moves p towards it by moveBits.
func (e *rangeEncoder) bit(p *prob, b uint32) { e.bitMove(p, b, moveBits) }

// bitMove codes b against p and moves p 1/2^move of the way towards it.
//
// It computes both outcomes and selects one by b, which compiles to
// conditional moves: a bit of a random byte is a branch no predictor
// learns.
func (e *rangeEncoder) bitMove(p *prob, b uint32, move uint) {
	v := uint32(*p)
	bound := (e.rng >> probBits) * v
	r1, l1, v1 := e.rng-bound, e.low+uint64(bound), v-v>>move
	rng, low := bound, e.low
	v += (probOne - v) >> move
	if b != 0 {
		rng, low, v = r1, l1, v1
	}
	e.rng, e.low, *p = rng, low, prob(v)
	if e.rng < rangeTop {
		e.renormalize()
	}
}

// renormalize shifts a range that fell under rangeTop back up, and low's
// top byte out. Kept out of line, so that bitMove inlines.
//
//go:noinline
func (e *rangeEncoder) renormalize() {
	e.rng <<= 8
	e.shiftLow()
}

// direct codes the low n bits of v, high bit first, at even odds.
func (e *rangeEncoder) direct(v uint32, n int) {
	for n > 0 {
		n--
		e.rng >>= 1
		if v>>n&1 != 0 {
			e.low += uint64(e.rng)
		}
		if e.rng < rangeTop {
			e.rng <<= 8
			e.shiftLow()
		}
	}
}

// tree codes the low n bits of v, high bit first, each against the
// model its higher bits pick: probs has 1<<n models.
func (e *rangeEncoder) tree(probs []prob, v uint32, n int) {
	m := uint32(1)
	for n > 0 {
		n--
		b := v >> n & 1
		e.bit(&probs[m], b)
		m = m<<1 | b
	}
}

// reverseTree is tree with v's bits low bit first.
func (e *rangeEncoder) reverseTree(probs []prob, v uint32, n int) {
	m := uint32(1)
	for ; n > 0; n-- {
		b := v & 1
		v >>= 1
		e.bit(&probs[m], b)
		m = m<<1 | b
	}
}

// flush ends the run: it writes enough of low that the decoder, having
// loaded every byte, lands inside the final interval. The run is then
// exactly as long as the decoder reads: coderTail bytes, and one for
// every renormalisation.
func (e *rangeEncoder) flush() []byte {
	for range coderTail + 1 {
		e.shiftLow()
	}
	return e.out
}

// rangeDecoder reads the decisions a rangeEncoder coded from in. A read
// past the end of in yields zeros and sets bad, as does a value no
// encoder could have written: the caller refuses the segment, and
// nothing outside in is ever read.
type rangeDecoder struct {
	in   []byte
	pos  int
	rng  uint32
	code uint32
	bad  bool
}

// reset loads the first coderTail bytes of in. The caller has checked
// that in holds them.
func (d *rangeDecoder) reset(in []byte) {
	*d = rangeDecoder{in: in, pos: coderTail, rng: 0xFFFFFFFF, code: binary.BigEndian.Uint32(in)}
}

// next returns the next input byte.
func (d *rangeDecoder) next() uint32 {
	if d.pos < len(d.in) {
		d.pos++
		return uint32(d.in[d.pos-1])
	}
	d.bad = true
	return 0
}

// bit reads one decision against p and moves p towards it by moveBits.
func (d *rangeDecoder) bit(p *prob) uint32 { return d.bitMove(p, moveBits) }

// bitMove reads one decision against p and moves p 1/2^move of the way
// towards it. Like rangeEncoder.bitMove, it does not branch on the bit:
// it selects by a mask of it.
func (d *rangeDecoder) bitMove(p *prob, move uint) uint32 {
	v := uint32(*p)
	bound := (d.rng >> probBits) * v
	b := uint32((uint64(d.code)-uint64(bound))>>63) ^ 1 // 0 when code < bound
	one := -b
	d.code -= bound & one
	d.rng = bound ^ (bound^(d.rng-bound))&one
	v0, v1 := v+(probOne-v)>>move, v-v>>move
	*p = prob(v0 ^ (v0^v1)&one)
	if d.rng < rangeTop {
		d.renormalize()
	}
	return b
}

// direct reads n bits at even odds, high bit first.
func (d *rangeDecoder) direct(n int) uint32 {
	var v uint32
	for ; n > 0; n-- {
		d.rng >>= 1
		var b uint32
		if d.code >= d.rng {
			d.code -= d.rng
			b = 1
		}
		v = v<<1 | b
		if d.rng < rangeTop {
			d.rng <<= 8
			d.code = d.code<<8 | d.next()
		}
	}
	return v
}

// renormalize shifts a range that fell under rangeTop back up, and the
// next input byte into code. Kept out of line, so that bitMove inlines.
//
//go:noinline
func (d *rangeDecoder) renormalize() {
	d.rng <<= 8
	d.code = d.code<<8 | d.next()
}

// tree reads n bits coded by rangeEncoder.tree.
func (d *rangeDecoder) tree(probs []prob, n int) uint32 {
	m := uint32(1)
	for range n {
		m = m<<1 | d.bit(&probs[m])
	}
	return m - 1<<n
}

// reverseTree reads n bits coded by rangeEncoder.reverseTree.
func (d *rangeDecoder) reverseTree(probs []prob, n int) uint32 {
	m, v := uint32(1), uint32(0)
	for i := range n {
		b := d.bit(&probs[m])
		m = m<<1 | b
		v |= b << i
	}
	return v
}
