package xcode

import (
	"encoding/binary"
	"math/bits"
)

// Long-range matching ahead of DEFLATE. DEFLATE refers back at most
// 32 KiB, and the repeats of a replication stream sit further back
// than that: a re-serialised B-tree node carries its shifted keys
// again, a WAL ring logs the same rows again, each some hundreds of
// KiB of stream after the last time. So both ends of a stream keep the
// last StreamWindow bytes of its plaintext (a ring), the writer indexes
// every matchStride-th position of it by the hash of the matchHashLen
// bytes there, and a segment's runs of minMatch or more bytes that
// repeat the history, or the segment's own earlier bytes, go as
// (gap, length, distance) triples; DEFLATE then codes the triples and
// the bytes between them (stream.go has the segment layout). It is the
// design of zstd's --long mode and of rzip: a coarse, far-reaching
// match pass in front of a short-window coder.
//
// A repeat of minMatch = matchStride + matchHashLen bytes or more is
// always found while its source is still indexed: some indexed
// position lies in its first matchStride bytes, with the whole of its
// hashed run inside the repeat.

const (
	minMatch       = 24
	matchStride    = 8
	matchHashLen   = 16
	matchTableBits = 17 // one slot per indexed position of a full window
	// maxMatchOp is the most one triple takes in a segment's match list.
	maxMatchOp = 3 * binary.MaxVarintLen64
)

// ring is the last StreamWindow bytes of a stream's plaintext, kept
// circularly so that taking a push in costs the push's length, not the
// window's.
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

// matcher is a stream writer's history: the ring and its index.
type matcher struct {
	ring
	// tab holds, by the hash of the matchHashLen bytes there, the
	// stream position (mod 2^32) of every matchStride-th position the
	// stream carried. A slot may be stale or a collision: a candidate
	// counts only as far as its bytes really match, within the history.
	tab []uint32
}

// matchHash hashes the matchHashLen bytes at the start of b into a tab
// slot.
func matchHash(b []byte) uint32 {
	b = b[:matchHashLen]
	x := binary.LittleEndian.Uint64(b) * 0x9E3779B185EBCA87
	y := binary.LittleEndian.Uint64(b[8:]) * 0xC2B2AE3D27D4EB4F
	return uint32((x ^ bits.RotateLeft64(y, 31)) * 0x165667B19E3779F9 >> (64 - matchTableBits))
}

// match splits p, the plaintext of the stream's next segment, into
// repeats of the history or of p's own earlier bytes and the bytes
// between them. It appends each repeat's triple (uvarint gap since the
// last repeat's end, length, distance) to ops and the bytes between to
// lits, then takes p into the history, and returns the repeat count.
func (m *matcher) match(ops, lits, p []byte) ([]byte, []byte, int) {
	if m.tab == nil {
		m.tab = make([]uint32, 1<<matchTableBits)
	}
	base := m.end // stream position of p[0]
	count, lit := 0, 0
	for i := 0; i+matchHashLen <= len(p); i++ {
		h := matchHash(p[i:])
		pos := base + uint64(i)
		cand := m.tab[h]
		if pos%matchStride == 0 {
			m.tab[h] = uint32(pos)
		}
		d := uint64(uint32(pos) - cand)
		if d == 0 || d > uint64(m.held+i) {
			continue
		}
		dist := int(d)
		n := m.extend(p, i, dist)
		if n < matchHashLen {
			continue
		}
		k := 0 // the repeat may start up to matchStride-1 bytes before i
		for k < i-lit && k < m.held+i-dist && m.before(p, i-k-1-dist) == p[i-k-1] {
			k++
		}
		if n+k < minMatch {
			continue
		}
		ops = binary.AppendUvarint(ops, uint64(i-k-lit))
		ops = binary.AppendUvarint(ops, uint64(n+k))
		ops = binary.AppendUvarint(ops, uint64(dist))
		lits = append(lits, p[lit:i-k]...)
		count++
		// Index what the repeat covers: it is history for what follows.
		end := i + n
		j := i + 1
		j += int((matchStride - (base+uint64(j))%matchStride) % matchStride)
		for ; j < end && j+matchHashLen <= len(p); j += matchStride {
			m.tab[matchHash(p[j:])] = uint32(base + uint64(j))
		}
		lit, i = end, end-1
	}
	lits = append(lits, p[lit:]...)
	m.take(p)
	return ops, lits, count
}

// before returns the byte at offset s of the segment p, where a
// negative s is -s bytes before p, in the history.
func (m *matcher) before(p []byte, s int) byte {
	if s >= 0 {
		return p[s]
	}
	return m.at(-s)
}

// extend returns how many bytes from p[i] on repeat the bytes dist
// before them.
func (m *matcher) extend(p []byte, i, dist int) int {
	n := 0
	if dist > i { // the source starts in the history
		back := dist - i
		at := int((m.end - uint64(back)) % StreamWindow)
		for n < back && i+n < len(p) && m.hist[at] == p[i+n] {
			n++
			if at++; at == StreamWindow {
				at = 0
			}
		}
		if n < back {
			return n
		}
	}
	for i+n < len(p) && p[i+n-dist] == p[i+n] {
		n++
	}
	return n
}
