package xcode

import (
	"encoding/binary"
	"math/bits"
)

// The LZ layer of a stream segment: one parse of the segment's
// plaintext against the stream's last StreamWindow bytes and its own
// earlier bytes into literals and matches, coded LZMA's way
// (rangecoder.go) with models that every segment of the stream goes on
// adapting. A repeat of a replication stream may sit anywhere in its
// last megabyte — a re-serialised B-tree node carries its shifted keys
// again, a WAL ring logs the same rows again — and the bytes between
// repeats are rows and page headers whose statistics the stream keeps
// to: so the matches reach the whole window, and the models carry what
// the stream taught them from one segment to the next.
//
// A body is a run of tokens, each one of:
//
//	literal     isMatch 0, then the byte: 8 decisions against the models
//	            of the previous byte's top litCtxBits bits; after a match,
//	            each decision also sees the byte rep0 back (a "matched
//	            literal"), until the first bit where the two differ
//	match       isMatch 1, isRep 0, a length, a distance; the distance
//	            becomes rep0 and the reps shift down
//	rep         isMatch 1, isRep 1, then which of the four last
//	            distances (isRepG0, isRepG1, isRepG2), moved to rep0,
//	            and a length
//	short rep   isMatch 1, isRep 1, isRepG0 0, isRep0Long 0: one byte
//	            from rep0 back
//
// A length (2..maxMatchLen) is a choice bit or two and a 3-, 3- or
// 8-bit tree. The 8-bit tree's last value, lenExtLen (273), carries an
// extension x, the length less 273: the bit length of x+1 less one, n,
// in a 4-bit tree, then x+1's n low bits as direct bits, so that a
// repeat of up to maxMatchLen bytes is one token, and its cost grows
// with the log of its length, not with the length. A
// distance is a 6-bit slot under the length's first bits, then the
// slot's low bits: a reverse tree of its own models below 128, direct
// bits and a 4-bit reverse tree above. The state (which of 12 recent
// token patterns came last) and the position's low posBits pick among
// the flags' models.
//
// Models, state and reps are the stream's, kept at both ends: a segment
// starts where the last one the receiver took in left them, the stream
// position, and the byte before it, as its own first token's context.

const (
	numStates    = 12
	posBits      = 2
	posStates    = 1 << posBits
	litCtxBits   = 3
	lenLowBits   = 3
	lenHighBits  = 8
	minMatchLen  = 2
	lenExtLen    = minMatchLen + 2<<lenLowBits + 1<<lenHighBits - 1 // 273: the high tree's last value, which carries an extension
	lenExtBits   = 4                                                // the extension's bit count is a tree of this many bits
	lenExtMax    = 12                                               // and at most this
	maxMatchLen  = lenExtLen + 2<<lenExtMax - 2                     // 8463
	lenStates    = 4                                                // distance slots are modelled by the length's first lenStates values
	slotBits     = 6
	slotModelEnd = 14 // slots from here on code their distance's low bits as direct bits and an alignment tree
	fullDists    = 1 << (slotModelEnd / 2)
	alignBits    = 4
	numReps      = 4
)

// lenModel codes a match's length less minMatchLen: below 8 in low, then
// 8 more in mid, the rest in high, and from lenExtLen on the extension's
// bit count in ext.
type lenModel struct {
	choice, choice2 prob
	low, mid        [posStates][1 << lenLowBits]prob
	high            [1 << lenHighBits]prob
	ext             [1 << lenExtBits]prob
}

// models is a stream's whole coder state: every adaptive model, the
// state and the four last distances. It is a value: copying it is how a
// segment that is not kept is rolled back.
type models struct {
	isMatch    [numStates][posStates]prob
	isRep      [numStates]prob
	isRepG0    [numStates]prob
	isRepG1    [numStates]prob
	isRepG2    [numStates]prob
	isRep0Long [numStates][posStates]prob
	slot       [lenStates][1 << slotBits]prob
	dist       [fullDists - slotModelEnd + 1]prob // slot s's trees start at its base - s
	align      [1 << alignBits]prob
	len        lenModel
	repLen     lenModel
	lit        [1 << litCtxBits][0x300]prob
	state      int
	reps       [numReps]int // the last four distances, rep0 most recent
}

// freshModels is a stream with no history: every model even, the state
// a literal's, every rep a distance of 1.
var freshModels = func() (m models) {
	fill := func(p []prob) {
		for i := range p {
			p[i] = probInit
		}
	}
	for s := range numStates {
		fill(m.isMatch[s][:])
		fill(m.isRep0Long[s][:])
	}
	fill(m.isRep[:])
	fill(m.isRepG0[:])
	fill(m.isRepG1[:])
	fill(m.isRepG2[:])
	for s := range lenStates {
		fill(m.slot[s][:])
	}
	fill(m.dist[:])
	fill(m.align[:])
	for _, l := range []*lenModel{&m.len, &m.repLen} {
		l.choice, l.choice2 = probInit, probInit
		for s := range posStates {
			fill(l.low[s][:])
			fill(l.mid[s][:])
		}
		fill(l.high[:])
		fill(l.ext[:])
	}
	for c := range m.lit {
		fill(m.lit[c][:])
	}
	m.reps = [numReps]int{1, 1, 1, 1}
	return m
}()

// afterLit, afterMatch, afterRep and afterShortRep are the state a
// token leaves. A state below litStates came after a literal.
const litStates = 7

func (m *models) afterLit() {
	switch {
	case m.state < 4:
		m.state = 0
	case m.state < 10:
		m.state -= 3
	default:
		m.state -= 6
	}
}

func (m *models) afterMatch() { m.state = 7 + 3*b2i(m.state >= litStates) }

func (m *models) afterRep() { m.state = 8 + 3*b2i(m.state >= litStates) }

func (m *models) afterShortRep() { m.state = 9 + 2*b2i(m.state >= litStates) }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// useRep moves rep r to the front.
func (m *models) useRep(r int) {
	d := m.reps[r]
	copy(m.reps[1:r+1], m.reps[:r])
	m.reps[0] = d
}

// distSlot returns the slot of distance code c (a distance less 1):
// c itself below 4, then two slots per power of two.
func distSlot(c uint32) uint32 {
	if c < 4 {
		return c
	}
	n := uint32(bits.Len32(c)) - 1
	return 2*n | c>>(n-1)&1
}

// lenState is the distance slot models' context: the length's first
// values, the rest sharing the last.
func lenState(length int) int { return min(length-minMatchLen, lenStates-1) }

// encodeLen codes length (minMatchLen..maxMatchLen) under lm.
func (e *rangeEncoder) encodeLen(lm *lenModel, length, posState int) {
	l := uint32(length - minMatchLen)
	switch {
	case l < 1<<lenLowBits:
		e.bit(&lm.choice, 0)
		e.tree(lm.low[posState][:], l, lenLowBits)
	case l < 2<<lenLowBits:
		e.bit(&lm.choice, 1)
		e.bit(&lm.choice2, 0)
		e.tree(lm.mid[posState][:], l-1<<lenLowBits, lenLowBits)
	case length < lenExtLen:
		e.bit(&lm.choice, 1)
		e.bit(&lm.choice2, 1)
		e.tree(lm.high[:], l-2<<lenLowBits, lenHighBits)
	default:
		e.bit(&lm.choice, 1)
		e.bit(&lm.choice2, 1)
		e.tree(lm.high[:], 1<<lenHighBits-1, lenHighBits)
		x := uint32(length-lenExtLen) + 1
		n := bits.Len32(x) - 1
		e.tree(lm.ext[:], uint32(n), lenExtBits)
		e.direct(x, n)
	}
}

// decodeLen reads a length encodeLen coded.
func (d *rangeDecoder) decodeLen(lm *lenModel, posState int) int {
	if d.bit(&lm.choice) == 0 {
		return minMatchLen + int(d.tree(lm.low[posState][:], lenLowBits))
	}
	if d.bit(&lm.choice2) == 0 {
		return minMatchLen + 1<<lenLowBits + int(d.tree(lm.mid[posState][:], lenLowBits))
	}
	length := minMatchLen + 2<<lenLowBits + int(d.tree(lm.high[:], lenHighBits))
	if length < lenExtLen {
		return length
	}
	n := int(d.tree(lm.ext[:], lenExtBits))
	if n > lenExtMax { // no encoder writes it
		d.bad = true
		return length
	}
	return lenExtLen - 1 + (1<<n | int(d.direct(n)))
}

// encodeDist codes dist (1 or more) for a match of length.
func (e *rangeEncoder) encodeDist(m *models, dist, length int) {
	c := uint32(dist - 1)
	slot := distSlot(c)
	e.tree(m.slot[lenState(length)][:], slot, slotBits)
	if slot < 4 {
		return
	}
	footer := int(slot>>1) - 1
	base := (2 | slot&1) << footer
	low := c - base
	if slot < slotModelEnd {
		e.reverseTree(m.dist[base-slot:], low, footer)
		return
	}
	e.direct(low>>alignBits, footer-alignBits)
	e.reverseTree(m.align[:], low&(1<<alignBits-1), alignBits)
}

// decodeDist reads a distance encodeDist coded for a match of length.
// It may be any value up to 1<<32; the caller bounds it.
func (d *rangeDecoder) decodeDist(m *models, length int) int {
	slot := d.tree(m.slot[lenState(length)][:], slotBits)
	if slot < 4 {
		return int(slot) + 1
	}
	footer := int(slot>>1) - 1
	base := (2 | slot&1) << footer
	if slot < slotModelEnd {
		return int(base+d.reverseTree(m.dist[base-slot:], footer)) + 1
	}
	high := d.direct(footer - alignBits)
	return int(base+high<<alignBits+d.reverseTree(m.align[:], alignBits)) + 1
}

// encodeLit codes the literal b, whose previous byte is prev, against
// match, the byte rep0 back, when the state came after a match.
//
// A literal is the coder's hot loop, a bit per model for every byte no
// match covers, so it keeps the range in locals and codes each bit as
// rangeEncoder.bitMove does, inline. A plain literal is a matched one whose offs
// starts at 0: its models are then picked by sym alone.
func (e *rangeEncoder) encodeLit(m *models, b, prev, match byte) {
	probs := &m.lit[prev>>(8-litCtxBits)]
	offs := uint32(0)
	if m.state >= litStates {
		offs = 0x100
	}
	mb, sym := uint32(match), uint32(b)|0x100
	rng, low := e.rng, e.low
	for sym < 0x10000 {
		mb <<= 1
		p := &probs[offs+mb&offs+sym>>8]
		v := uint32(*p)
		bound := (rng >> probBits) * v
		r1, l1, v1 := rng-bound, low+uint64(bound), v-v>>litMoveBits
		rng, v = bound, v+(probOne-v)>>litMoveBits
		if sym&0x80 != 0 { // compiled to conditional moves: no branch on the bit
			rng, low, v = r1, l1, v1
		}
		*p = prob(v)
		if rng < rangeTop {
			rng <<= 8
			e.low = low
			e.shiftLow()
			low = e.low
		}
		sym <<= 1
		offs &^= mb ^ sym
	}
	e.rng, e.low = rng, low
	m.afterLit()
}

// decodeLit reads a literal encodeLit coded, with the range in locals
// and each bit read as rangeDecoder.bitMove does.
func (d *rangeDecoder) decodeLit(m *models, prev, match byte) byte {
	probs := &m.lit[prev>>(8-litCtxBits)]
	offs := uint32(0)
	if m.state >= litStates {
		offs = 0x100
	}
	mb, sym := uint32(match), uint32(1)
	rng, code := d.rng, d.code
	for sym < 0x100 {
		mb <<= 1
		bit := mb & offs
		p := &probs[offs+bit+sym]
		v := uint32(*p)
		bound := (rng >> probBits) * v
		b := uint32((uint64(code)-uint64(bound))>>63) ^ 1
		one := -b
		code -= bound & one
		rng = bound ^ (bound^(rng-bound))&one
		v0, v1 := v+(probOne-v)>>litMoveBits, v-v>>litMoveBits
		*p = prob(v0 ^ (v0^v1)&one)
		if rng < rangeTop {
			d.rng, d.code = rng, code
			d.renormalize()
			rng, code = d.rng, d.code
		}
		sym = sym<<1 | b
		offs &^= bit ^ b<<8
	}
	d.rng, d.code = rng, code
	m.afterLit()
	return byte(sym)
}

// ring is the last StreamWindow bytes of a stream's plaintext, kept
// circularly so that taking a segment in costs the segment's length,
// not the window's.
type ring struct {
	hist []byte // nil until the stream's first segment, then StreamWindow bytes
	end  uint64 // bytes the stream ever took in: the next goes at hist[end%StreamWindow]
	held int    // how many of the bytes before end are history (at most StreamWindow)
}

// take appends p to the history.
func (r *ring) take(p []byte) {
	if r.hist == nil {
		r.hist = make([]byte, StreamWindow)
	}
	r.held = min(StreamWindow, r.held+len(p))
	if len(p) > StreamWindow {
		r.end += uint64(len(p) - StreamWindow)
		p = p[len(p)-StreamWindow:]
	}
	n := copy(r.hist[r.end%StreamWindow:], p)
	copy(r.hist, p[n:])
	r.end += uint64(len(p))
}

// at returns the history byte back bytes before its end (1 <= back <=
// held).
func (r *ring) at(back int) byte {
	return r.hist[(r.end-uint64(back))%StreamWindow]
}

// back returns the byte dist before p[i], in p or, when dist > i, in
// the history; 0 when it is neither (dist > held + i), the one value
// both ends agree on for a match byte they do not hold.
func (r *ring) back(p []byte, i, dist int) byte {
	switch {
	case dist <= i:
		return p[i-dist]
	case dist <= r.held+i:
		return r.at(dist - i)
	}
	return 0
}

// copyFrom fills dst from the history, starting back bytes before its
// end (len(dst) <= back <= held).
func (r *ring) copyFrom(dst []byte, back int) {
	n := copy(dst, r.hist[(r.end-uint64(back))%StreamWindow:])
	copy(dst[n:], r.hist)
}

// copyMatch writes dst[pos:pos+n] as the bytes dist before each of
// them: from the history while dist reaches past dst's start, then from
// dst itself, where a dist shorter than n repeats the last dist bytes
// (a run). The caller has checked pos+n <= len(dst) and dist <= held +
// pos.
func (r *ring) copyMatch(dst []byte, pos, n, dist int) {
	if dist > pos {
		k := min(n, dist-pos)
		r.copyFrom(dst[pos:pos+k], dist-pos)
		pos, n = pos+k, n-k
	}
	// dst[start:pos] is periodic in dist, so each copy may read all of
	// it, doubling what one copy moves.
	start := pos - dist
	for n > 0 {
		k := copy(dst[pos:pos+n], dst[start:pos])
		pos, n = pos+k, n-k
	}
}

// The sender's index: by the hash of the hashLen bytes there, the last
// indexWays positions that hashed to each bucket, newest first. Every
// position goes in, so a repeat of hashLen bytes or more is found while
// fewer than indexWays later positions have taken its bucket. A slot is
// a position's low slotPosBits bits under slotTagBits more bits of its
// hash: a candidate whose tag differs is passed over without reading
// the window, which on bytes that do not repeat is most of the
// candidates, and each read a cache miss a megabyte away. A slot may
// still be stale or a collision: a candidate counts only as far as its
// bytes really match, within the history.
const (
	hashLen     = 4
	indexWays   = 4
	indexBits   = 16 // buckets: with indexWays, a 1 MiB index
	slotTagBits = 8
	slotPosBits = 32 - slotTagBits
	slotPosMask = 1<<slotPosBits - 1
	niceLen     = 64 // a match this long is taken without looking further
	lazyPenalty = 7  // change-of-distance rule: a distance 2^lazyPenalty times shorter is worth a byte
)

// lzEncoder is a stream writer's history: the ring, its index and the
// models, and the pending segment's plaintext and coder.
type lzEncoder struct {
	ring
	tab []uint32 // 1<<indexBits buckets of indexWays slots
	m   models
	rc  rangeEncoder
	p   []byte // the segment's plaintext
	// next caches the lookahead's search at i+1, which inserted i+1
	// into the index, for the step that lands there.
	next struct {
		i, length, dist int
	}
}

// hash4 returns the bucket of the hashLen bytes at b's start, and the
// tag their slot carries.
func hash4(b []byte) (bucket int, tag uint32) {
	h := binary.LittleEndian.Uint32(b) * 2654435761
	return int(h>>(32-indexBits)) * indexWays, h << indexBits >> slotPosBits << slotPosBits
}

// slot returns the slot of p[i], whose bucket's tag is tag.
func (e *lzEncoder) slot(i int, tag uint32) uint32 {
	return tag | uint32(e.end+uint64(i))&slotPosMask
}

// matchLen returns how many bytes from p[i] on, up to limit, repeat the
// bytes dist before them (1 <= dist <= held + i).
func (e *lzEncoder) matchLen(i, dist, limit int) int {
	p := e.p
	n := 0
	if dist > i { // the source starts in the history
		back := dist - i
		at := int((e.end - uint64(back)) % StreamWindow)
		for n < back && n < limit {
			k := min(back-n, limit-n, StreamWindow-at)
			c := commonPrefix(e.hist[at:at+k], p[i+n:i+n+k])
			n += c
			if c < k {
				return n
			}
			if at += k; at == StreamWindow {
				at = 0
			}
		}
		if n == limit {
			return n
		}
	}
	return n + commonPrefix(p[i+n-dist:i+limit-dist], p[i+n:i+limit])
}

// commonPrefix returns how many leading bytes a and b (as long as a)
// share.
func commonPrefix(a, b []byte) int {
	n := 0
	for ; n+8 <= len(a); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(a) && a[n] == b[n] {
		n++
	}
	return n
}

// changePair reports whether a match at distance small beats one a byte
// longer at distance big: big is 2^lazyPenalty times further.
func changePair(small, big int) bool { return big>>lazyPenalty > small }

// find returns the longest match at p[i] the index knows, preferring the
// nearer of two of a length and a byte shorter when it is much nearer,
// and inserts i. A length under hashLen is no match.
func (e *lzEncoder) find(i int) (length, dist int) {
	p := e.p
	if i+hashLen > len(p) {
		return 0, 0
	}
	b, tag := hash4(p[i:])
	slots := e.tab[b : b+indexWays : b+indexWays]
	at := e.slot(i, tag)
	limit := min(len(p)-i, maxMatchLen)
	var lens, dists [indexWays]int
	for w, cand := range slots {
		d := int((at - cand) & slotPosMask)
		if cand&^slotPosMask != tag || d == 0 || d > e.held+i {
			continue
		}
		if d <= i && binary.LittleEndian.Uint32(p[i-d:]) != binary.LittleEndian.Uint32(p[i:]) ||
			d > i && (e.back(p, i, d) != p[i] || e.back(p, i+3, d) != p[i+3]) {
			continue
		}
		n := e.matchLen(i, d, limit)
		lens[w], dists[w] = n, d
		if n > length {
			length, dist = n, d
		}
	}
	copy(slots[1:], slots[:indexWays-1])
	slots[0] = at
	if length < hashLen {
		return 0, 0
	}
	for w := range indexWays {
		if lens[w] == length-1 && length-1 >= hashLen && changePair(dists[w], dist) {
			length, dist = lens[w], dists[w]
		}
	}
	return length, dist
}

// insert puts position i into the index.
func (e *lzEncoder) insert(i int) {
	if i+hashLen > len(e.p) {
		return
	}
	b, tag := hash4(e.p[i:])
	slots := e.tab[b : b+indexWays : b+indexWays]
	copy(slots[1:], slots[:indexWays-1])
	slots[0] = e.slot(i, tag)
}

// unindex takes the pending segment's positions back out of the index.
// The older positions they pushed out of their buckets stay out: the
// index only loses candidates by it, and never holds one past the
// history's end.
func (e *lzEncoder) unindex() {
	for i := 0; i+hashLen <= len(e.p); i++ {
		b, tag := hash4(e.p[i:])
		slots := e.tab[b : b+indexWays : b+indexWays]
		at := e.slot(i, tag)
		for w := range slots {
			if slots[w] == at {
				copy(slots[w:], slots[w+1:])
				slots[indexWays-1] = 0
				break
			}
		}
	}
}

// repMatch returns the longest of the reps at p[i], up to limit, and
// which rep it is.
func (e *lzEncoder) repMatch(i, limit int) (length, r int) {
	p := e.p
	for k, d := range e.m.reps {
		if d > e.held+i || e.back(p, i, d) != p[i] || e.back(p, i+1, d) != p[i+1] {
			continue
		}
		if n := e.matchLen(i, d, limit); n > length {
			length, r = n, k
		}
	}
	return length, r
}

// parse codes e.p as tokens, greedily with one step of lazy evaluation
// (LZMA's fast mode): at each position the longest match the index
// knows and the longest rep, a rep preferred unless the match is
// clearly longer, and a match deferred by a literal when the next
// position has a better one.
func (e *lzEncoder) parse() {
	p := e.p
	e.next.i = -1
	for i := 0; i < len(p); {
		limit := min(len(p)-i, maxMatchLen)
		var mainLen, mainDist int
		if e.next.i == i {
			mainLen, mainDist = e.next.length, e.next.dist
		} else {
			mainLen, mainDist = e.find(i)
		}
		repLen, r := 0, 0
		if limit >= minMatchLen {
			repLen, r = e.repMatch(i, limit)
		}
		switch {
		case repLen >= niceLen || repLen >= minMatchLen && (repLen+1 >= mainLen ||
			repLen+2 >= mainLen && mainDist > 1<<9 ||
			repLen+3 >= mainLen && mainDist > 1<<15):
			e.rep(i, repLen, r)
			e.skip(i, repLen)
			i += repLen
			continue
		case mainLen >= niceLen:
		case mainLen == 0 || e.lazy(i, mainLen, mainDist):
			e.literal(i)
			i++
			continue
		}
		e.match(i, mainLen, mainDist)
		e.skip(i, mainLen)
		i += mainLen
	}
}

// lazy reports whether the match of length at p[i] should wait a byte:
// the next position has a longer one, or as long a one much nearer, or
// a rep that covers all but its first byte.
func (e *lzEncoder) lazy(i, length, dist int) bool {
	nl, nd := e.find(i + 1)
	e.next.i, e.next.length, e.next.dist = i+1, nl, nd
	if nl >= minMatchLen && (nl >= length && nd < dist ||
		nl == length+1 && !changePair(dist, nd) ||
		nl > length+1 ||
		nl+1 >= length && length >= 3 && changePair(nd, dist)) {
		return true
	}
	limit := max(minMatchLen, length-1)
	if i+1+limit > len(e.p) {
		return false
	}
	for _, d := range e.m.reps {
		if d <= e.held+i+1 && e.matchLen(i+1, d, limit) == limit {
			return true
		}
	}
	return false
}

// skip indexes the positions a token of length at p[i] covers after
// its first, which find (or the lookahead) has indexed.
func (e *lzEncoder) skip(i, length int) {
	j := i + 1
	if e.next.i == j {
		j++
	}
	for ; j < i+length; j++ {
		e.insert(j)
	}
}

// posState is the low posBits of p[i]'s stream position.
func (e *lzEncoder) posState(i int) int { return int(e.end+uint64(i)) & (posStates - 1) }

// prev returns the byte before p[i], 0 before the stream's first.
func (e *lzEncoder) prev(i int) byte { return e.back(e.p, i, 1) }

func (e *lzEncoder) literal(i int) {
	m := &e.m
	e.rc.bitMove(&m.isMatch[m.state][e.posState(i)], 0, matchMoveBits)
	var match byte
	if m.state >= litStates {
		match = e.back(e.p, i, m.reps[0])
	}
	e.rc.encodeLit(m, e.p[i], e.prev(i), match)
}

func (e *lzEncoder) match(i, length, dist int) {
	m := &e.m
	ps := e.posState(i)
	e.rc.bitMove(&m.isMatch[m.state][ps], 1, matchMoveBits)
	e.rc.bit(&m.isRep[m.state], 0)
	e.rc.encodeLen(&m.len, length, ps)
	e.rc.encodeDist(m, dist, length)
	copy(m.reps[1:], m.reps[:numReps-1])
	m.reps[0] = dist
	m.afterMatch()
}

func (e *lzEncoder) rep(i, length, r int) {
	m := &e.m
	ps := e.posState(i)
	e.rc.bitMove(&m.isMatch[m.state][ps], 1, matchMoveBits)
	e.rc.bit(&m.isRep[m.state], 1)
	if r == 0 {
		e.rc.bit(&m.isRepG0[m.state], 0)
		e.rc.bit(&m.isRep0Long[m.state][ps], 1)
	} else {
		e.rc.bit(&m.isRepG0[m.state], 1)
		if r == 1 {
			e.rc.bit(&m.isRepG1[m.state], 0)
		} else {
			e.rc.bit(&m.isRepG1[m.state], 1)
			e.rc.bit(&m.isRepG2[m.state], uint32(r-2))
		}
		m.useRep(r)
	}
	e.rc.encodeLen(&m.repLen, length, ps)
	m.afterRep()
}

// lzDecoder is a stream reader's history: the ring and the models.
type lzDecoder struct {
	ring
	m  models
	rd rangeDecoder
}

// decode rebuilds dst from the coded body, against the history, leaving
// the models where the segment's last token left them. It is strict: a
// body that reads past its end, or leaves bytes unread, or whose tokens
// do not fill dst exactly, or reach past the history held and the bytes
// rebuilt before them, is ErrBadFrame. The caller holds a copy of the
// models to restore on an error, and takes dst into the ring.
func (f *lzDecoder) decode(dst, body []byte) error {
	if len(body) < coderTail {
		return ErrBadFrame
	}
	m, rd := &f.m, &f.rd
	rd.reset(body)
	for pos := 0; pos < len(dst); {
		ps := int(f.end+uint64(pos)) & (posStates - 1)
		if rd.bitMove(&m.isMatch[m.state][ps], matchMoveBits) == 0 {
			var match byte
			if m.state >= litStates {
				match = f.back(dst, pos, m.reps[0])
			}
			dst[pos] = rd.decodeLit(m, f.back(dst, pos, 1), match)
			pos++
		} else {
			length := 1
			if rd.bit(&m.isRep[m.state]) == 0 {
				length = rd.decodeLen(&m.len, ps)
				if length > len(dst)-pos {
					return ErrBadFrame
				}
				dist := rd.decodeDist(m, length)
				if dist > f.held+pos {
					return ErrBadFrame
				}
				copy(m.reps[1:], m.reps[:numReps-1])
				m.reps[0] = dist
				m.afterMatch()
			} else if rd.bit(&m.isRepG0[m.state]) == 0 {
				if rd.bit(&m.isRep0Long[m.state][ps]) == 0 {
					m.afterShortRep()
				} else {
					length = rd.decodeLen(&m.repLen, ps)
					m.afterRep()
				}
			} else {
				r := 1
				if rd.bit(&m.isRepG1[m.state]) != 0 {
					r = 2 + int(rd.bit(&m.isRepG2[m.state]))
				}
				m.useRep(r)
				length = rd.decodeLen(&m.repLen, ps)
				m.afterRep()
			}
			dist := m.reps[0]
			if length > len(dst)-pos || dist > f.held+pos {
				return ErrBadFrame
			}
			f.copyMatch(dst, pos, length, dist)
			pos += length
		}
		if rd.bad {
			return ErrBadFrame
		}
	}
	if rd.pos != len(body) {
		return ErrBadFrame
	}
	return nil
}
