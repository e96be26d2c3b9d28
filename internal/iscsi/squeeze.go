package iscsi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"

	"prins/internal/xcode"
)

// Squeezed entry lists: a backlogged stream's entry list as one
// compressed segment, built against what the stream already carried: a
// match pass that names the repeats of its last 1 MiB, then DEFLATE
// (xcode/stream.go).
//
// A squeezed list is an entry-list PDU (either opcode, v8) whose header
// Seq field (off 28), which a plain list leaves zero, is nonzero: the
// push's history tag (below). Its data segment is
//
//	count    (uvarint)  entries in the list
//	plainLen (uvarint)  bytes the stream segment rebuilds
//	digest   (uint64)   HashBlock of the by-value entries' checks
//	stream segment (to the end of the data segment)
//
// and the segment's plaintext, plainLen bytes, is the whole entry
// list, batch.go's with the hashes taken out:
//
//	per entry:
//	  seq      (varint)  as in a plain list
//	  lba      (varint)  as in a plain list
//	  len      (uvarint) the frame's length; 0 = a reference
//	  hash     (uint64)  a reference's content hash, its address
//	                     (byref.go); only when len = 0
//	  frame    (len bytes) the entry's frame, or its masked twin
//
// Every entry's header streams, so do the references' hashes, which
// repeat wherever a working set's copies repeat, and every frame, a
// raw-floored one too: the bytes ZRL could not shrink are often text
// that DEFLATE can. What stays out is each by-value entry's 8-byte
// hash, which no compressor shrinks: the list carries one digest for
// all of them instead.
//
// Masks. An entry whose ZRL frame has a masked twin (BatchEntry.Mask)
// streams the twin instead: a parity frame's zero runs with A_new's
// bytes for literals, which repeat what the stream already carried
// where the parity's XOR against changing old bytes does not. Its
// check is BatchEntry.Check, HashBlock(A_new) XOR HashBlock(the parity
// frame the twin was made from); the replica lands the mask on its
// pre-image and rebuilds that frame from the bytes it overwrote
// (xcode.MaskInto): a wrong pre-image byte under the mask changes the
// rebuilt frame, one elsewhere changes A_new, so the check catches
// exactly what the parity's own hash check does.
//
// The digest. An entry's check is its Hash, or a twin's Check; the
// digest is HashBlock of the list's by-value entries' checks, 8 bytes
// big-endian each, laid end to end in entry order. The replica stages
// the whole list before it writes anything, recomputing each check
// from the block it staged (and a twin's rebuilt frame), and applies
// the list only when the digest of its checks is the one sent. One
// digest is as strong as the checks it folds: a diverged entry changes
// its check, and a changed check changes the digest but for a
// collision of HashBlock, which a pre-image damaged by a torn write or
// bit rot does not choose (DESIGN.md §6, "The push digest"). A list
// the replica cannot verify — a digest that does not match, a
// duplicate seq whose pre-image is gone, a by-value entry behind an
// unresolved reference at its LBA, an entry that does not stage — is
// answered StatusUnverified entry by entry, with nothing applied, and
// the initiator re-ships it plain, whose per-entry hashes give each
// entry its own verdict. A reference the replica cannot resolve is not that:
// the by-value entries around it stage and verify, and the list is
// answered as a plain one would be, the prefix applied and the suffix
// from the miss on StatusRefMiss.
//
// History. Each (shard, vol) stream of a session keeps, at both ends,
// the last xcode.StreamWindow (1 MiB) bytes of squeezed plaintext it
// carried and the last 32 KiB its DEFLATE carried, and a segment may
// refer back into both (xcode/stream.go). The tag names the history a
// push was built on: 1 + the squeezed pushes the stream took in since
// its history was last reset. Tag 1 is a fresh push, built on nothing,
// and resets the target's history before it is read; any other tag
// must be exactly one more than the pushes the target took in, or the
// target refuses the push whole, before anything is applied, with
// StatusStaleHistory, and the initiator resets its history and
// re-ships the push fresh. Both ends take a push in only when the
// target answers it StatusOK — an unverified list too, since its
// statuses, not its header, refuse it — and the history lives with the
// session, so a redial starts both ends empty. The replica never
// inflates against a history it does not hold.

// ErrStaleHistory reports a squeezed push built on a history the
// target does not hold: nothing was applied, and the push re-ships
// fresh.
var ErrStaleHistory = errors.New("iscsi: squeezed push built on a stale history")

// SqueezeBackend is the extension of Backend a squeezed list needs: its
// by-value entries arrive without hashes (their Hash is zero), so the
// backend stages them all and verifies the list's digest itself, as
// the top of squeeze.go says, answering StatusUnverified for every
// entry when it cannot. A squeezed list at a backend without it is
// answered so by the target, and the initiator re-ships it plain.
// Implementations return exactly one status per entry, in entry order.
type SqueezeBackend interface {
	Backend
	HandleReplicaSqueezed(mode, shard uint8, vol uint16, entries []BatchEntry, digest uint64) []Status
}

// InStream returns the frame a squeezed list streams for e: its mask
// twin when it has one, else its frame (nil for a reference).
func (e *BatchEntry) InStream() []byte {
	if len(e.Mask) > 0 {
		return e.Mask
	}
	return e.Frame
}

// check returns what a squeezed list's digest folds for by-value entry
// e: its twin's check when it streams a twin, else its hash.
func (e *BatchEntry) check() uint64 {
	if len(e.Mask) > 0 {
		return e.Check
	}
	return e.Hash
}

// appendStreamEntry appends e's part of a squeezed list's plaintext,
// coded against prev, with at most frameMax bytes of its frame.
func appendStreamEntry(dst []byte, prev, e *BatchEntry, frameMax int) []byte {
	in := e.InStream()
	dst = binary.AppendVarint(dst, int64(e.Seq-prev.Seq))
	dst = binary.AppendVarint(dst, int64(e.LBA-prev.LBA))
	dst = binary.AppendUvarint(dst, uint64(len(in)))
	if len(in) == 0 {
		return binary.BigEndian.AppendUint64(dst, e.Hash)
	}
	return append(dst, in[:min(len(in), frameMax)]...)
}

// StreamLen returns the plaintext bytes a squeezed list of entries
// streams, given plain, the data-segment bytes of their plain list
// (BatchWireLen): the plain list less its count and the by-value
// entries' hashes. A twin is as long as its frame.
func StreamLen(entries []BatchEntry, plain int) int {
	n := plain - uvarintLen(uint64(len(entries)))
	for k := range entries {
		if !entries[k].ByRef() {
			n -= HashSize
		}
	}
	return n
}

// AppendStream appends to dst what a squeezed list of entries streams,
// each entry's part of the plaintext with at most frameMax bytes of its
// frame: the whole plaintext when no frame is longer, and otherwise a
// sample of it that reads every entry.
func AppendStream(dst []byte, entries []BatchEntry, frameMax int) []byte {
	prev := &BatchEntry{}
	for k := range entries {
		dst = appendStreamEntry(dst, prev, &entries[k], frameMax)
		prev = &entries[k]
	}
	return dst
}

// SqueezeSender is the initiator's end of one stream's squeeze
// history. After every Encode that returned ok, exactly one of Commit
// (the target answered the push StatusOK) or Reset (anything else)
// must follow before the next Encode. The zero value is a stream with
// no history.
type SqueezeSender struct {
	def    xcode.StreamDeflater
	pushes uint64 // squeezed pushes the target took in since the last Reset
	open   bool   // an Encode awaits its Commit or Reset
	seg    []byte
	plain  []byte // the list's plaintext
	checks []byte // its by-value entries' checks, the digest's input
}

// Encode lays entries out as a squeezed list built on the stream's
// history and returns its data segment, valid until the next Encode,
// and its tag. ok is false when the list should ship plain: it came
// out no smaller than the plain one (the history then starts over).
func (s *SqueezeSender) Encode(entries []BatchEntry) (seg []byte, tag uint64, ok bool, err error) {
	plainLen, _, err := entryListLen(entries)
	if err != nil {
		return nil, 0, false, err
	}
	if s.open { // the last push was never settled: its history is unknown
		s.Reset()
	}
	if s.pushes == 0 {
		s.def.Reset()
	}
	s.plain = AppendStream(s.plain[:0], entries, MaxDataSegment)
	s.checks = s.checks[:0]
	for k := range entries {
		if !entries[k].ByRef() {
			s.checks = binary.BigEndian.AppendUint64(s.checks, entries[k].check())
		}
	}
	seg = binary.AppendUvarint(s.seg[:0], uint64(len(entries)))
	seg = binary.AppendUvarint(seg, uint64(len(s.plain)))
	seg = binary.BigEndian.AppendUint64(seg, HashBlock(s.checks))
	if err = s.def.Start(seg); err == nil {
		err = s.def.Write(s.plain)
	}
	if err == nil {
		seg, err = s.def.End()
	}
	if err != nil {
		s.Reset()
		return nil, 0, false, err
	}
	s.seg = seg
	if len(seg) >= plainLen {
		s.Reset()
		return nil, 0, false, nil
	}
	s.open = true
	return seg, s.pushes + 1, true, nil
}

// Commit records that the target took in the last encoded push.
func (s *SqueezeSender) Commit() {
	if s.open {
		s.open = false
		s.pushes++
	}
}

// Reset forgets the history: the next push is fresh.
func (s *SqueezeSender) Reset() { s.pushes, s.open = 0, false }

// SqueezeReceiver is the target's end of one stream's squeeze history.
// The zero value is a stream with no history.
type SqueezeReceiver struct {
	inf    xcode.StreamInflater
	pushes uint64 // squeezed pushes taken in since the last reset
	plain  []byte // the last push's plaintext; its frames alias it
	digest uint64 // the last push's digest
	used   uint64 // the session's squeezed-push count at this stream's last push
}

// Decode checks tag against the stream's history and parses a squeezed
// list into entries' backing array (see decodeEntryList), inflating its
// stream segment into the receiver's buffer: the returned frames alias
// that buffer, which the next Decode overwrites, and Digest returns the
// list's digest. A tag that does not match is ErrStaleHistory, with
// nothing decoded. Decoding is strict and bounded: the count must be in
// (0, MaxBatchFrames]; the declared plaintext must fit MaxDataSegment
// and hold count minimal entries; the segment must rebuild exactly
// those bytes (xcode.StreamInflater), which is checked before anything
// is allocated for them; and the plaintext must parse as exactly count
// entries, as strictly as a plain list. A segment's repeats may rebuild
// far more than DEFLATE alone could carry, so the bound on what one
// byte of it may inflate to holds its match list and literals, not the
// bytes they rebuild. On success the history takes the push in; a
// segment that fails to inflate leaves the history as it was, and one
// that rebuilds a plaintext that does not parse resets it.
func (r *SqueezeReceiver) Decode(entries []BatchEntry, data []byte, tag uint64) ([]BatchEntry, error) {
	switch {
	case tag == 1:
		r.pushes = 0
		r.inf.Reset()
	case tag != r.pushes+1:
		return nil, fmt.Errorf("%w: tag %d, %d pushes held", ErrStaleHistory, tag, r.pushes)
	}
	count, off, err := decodeUvarint(data, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: squeezed count of a %d-byte segment", err, len(data))
	}
	plainLen, off, err := decodeUvarint(data, off)
	if err != nil {
		return nil, fmt.Errorf("%w: squeezed plaintext length", err)
	}
	if count == 0 || count > MaxBatchFrames || plainLen > MaxDataSegment || plainLen < count*minPlainEntryLen {
		return nil, fmt.Errorf("%w: %d entries in %d bytes of plaintext", ErrBadFrame, count, plainLen)
	}
	if len(data)-off < HashSize {
		return nil, fmt.Errorf("%w: squeezed digest", ErrShortFrame)
	}
	digest := binary.BigEndian.Uint64(data[off:])
	if err := r.inf.Load(data[off+HashSize:], int(plainLen)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if cap(r.plain) < int(plainLen) {
		r.plain = make([]byte, plainLen)
	}
	plain := r.plain[:plainLen]
	if err := r.inf.Rebuild(plain); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if entries, err = decodeEntries(entries, plain, count, true); err != nil {
		r.pushes = 0 // the history took in a plaintext the sender cannot have built
		r.inf.Reset()
		return nil, err
	}
	r.digest = digest
	r.pushes++
	return entries, nil
}

// Digest returns the digest of the list the last successful Decode
// returned.
func (r *SqueezeReceiver) Digest() uint64 { return r.digest }

// squeezeStream is one (shard, vol) stream's sending history on one
// session of an Initiator. Its fields other than tx are guarded by
// Initiator.mu; tx belongs to the push that claimed it.
type squeezeStream struct {
	tx   SqueezeSender
	sess *session
	key  uint32
	used uint64 // the session's claim count at this stream's last claim
	busy bool   // a push has claimed tx
	drop bool   // ResetSqueeze came while busy: forget the history when the push settles
}

// streamID packs a (shard, vol) stream tag.
func streamID(shard uint8, vol uint16) uint32 { return uint32(vol)<<8 | uint32(shard) }

// claimSqueeze returns session s's history for the stream key, claimed
// for one push, or nil when another push holds it or, for a stream new
// to the session, when pushes hold every history the cap allows (that
// push then ships plain).
func (i *Initiator) claimSqueeze(s *session, key uint32) *squeezeStream {
	i.mu.Lock()
	defer i.mu.Unlock()
	if s.squeeze == nil {
		s.squeeze = make(map[uint32]*squeezeStream)
	}
	st := s.squeeze[key]
	if st == nil {
		if st = s.evictSqueeze(); st == nil {
			return nil
		}
		st.key = key
		s.squeeze[key] = st
	}
	if st.busy {
		return nil
	}
	s.squeezed++
	st.used, st.busy = s.squeezed, true
	return st
}

// evictSqueeze returns a history for a stream new to the session: a
// new one under maxSqueezeStreams, else the least recently claimed one
// no push holds, forgotten by its stream, whose next push goes out
// fresh; nil when pushes hold them all. Called with Initiator.mu held.
func (s *session) evictSqueeze() *squeezeStream {
	if len(s.squeeze) < maxSqueezeStreams {
		return &squeezeStream{sess: s}
	}
	var lru *squeezeStream
	for _, st := range s.squeeze {
		if !st.busy && (lru == nil || st.used < lru.used) {
			lru = st
		}
	}
	if lru != nil {
		delete(s.squeeze, lru.key)
		lru.tx.Reset()
	}
	return lru
}

// settleSqueeze releases a claim. A squeezed push the target answered
// StatusOK (took) was taken in at both ends; any other squeezed push
// resets the history, and a push that went plain leaves it as it was.
// A history ResetSqueeze asked to forget is forgotten.
func (i *Initiator) settleSqueeze(st *squeezeStream, squeezed, took bool) {
	if st == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	switch {
	case squeezed && took:
		st.tx.Commit()
	case squeezed:
		st.tx.Reset()
	}
	st.busy = false
	if st.drop {
		st.tx.Reset()
		st.drop = false
	}
}

// ReplicaWriteSqueezed is ReplicaWriteBatchStream with the entry list
// compressed as one segment against the (vol, shard) stream's history
// on this session (see the top of squeeze.go), under the opcode the
// content picks (listOp), and it also returns the data-segment bytes
// the push put on the wire. The list ships plain — the same PDU the
// plain verb sends, multi-entry framing even for one entry — when squeezing
// did not make it smaller, or when another push of the stream's is in
// flight: a stream's squeezed pushes are meant to go one at a time, as
// an async pipe's do. A push the target refuses as built on a stale
// history is re-shipped once, fresh; one it answers StatusUnverified
// entry by entry is re-shipped once, plain, and the bytes returned
// count both pushes.
func (i *Initiator) ReplicaWriteSqueezed(mode, shard uint8, vol uint16, entries []BatchEntry) ([]Status, int, error) {
	if len(entries) == 0 {
		return nil, 0, fmt.Errorf("iscsi: empty squeezed push")
	}
	op := listOp(entries)
	key := streamID(shard, vol)
	for fresh := false; ; fresh = true {
		var st *squeezeStream
		var sent int
		squeezed := false
		resp, err := i.exchange(nil, func(s *session, itt uint32) (net.Buffers, error) {
			i.settleSqueeze(st, squeezed, false) // a resend: the history went with the failed session
			st, squeezed = i.claimSqueeze(s, key), false
			p := PDU{Op: op, Mode: mode, Shard: shard, Vol: vol, ITT: itt}
			if st != nil {
				seg, tag, ok, err := st.tx.Encode(entries)
				if err != nil {
					return nil, err
				}
				if ok {
					p.Seq, p.Data = tag, seg
					sent, squeezed = len(seg), true
					return p.buffers()
				}
			}
			sent = BatchWireLen(entries)
			return entryListPDU(&p, entries)
		})
		i.settleSqueeze(st, squeezed, err == nil && resp.Status == StatusOK)
		if err != nil {
			return nil, 0, err
		}
		if resp.Status == StatusStaleHistory && squeezed && !fresh {
			continue // settled as a reset: the resend is fresh
		}
		if resp.Status != StatusOK {
			return nil, 0, fmt.Errorf("%w: squeezed %v of %d: %v", ErrStatus, op, len(entries), resp.Status)
		}
		statuses, err := DecodeBatchStatuses(resp.Data, len(entries))
		if err != nil || !squeezed || slices.ContainsFunc(statuses, func(s Status) bool { return s != StatusUnverified }) {
			return statuses, sent, err
		}
		statuses, err = i.pushEntryList(PDU{Op: op, Mode: mode, Shard: shard, Vol: vol}, entries)
		return statuses, sent + BatchWireLen(entries), err
	}
}

// ResetSqueeze forgets the (vol, shard) stream's squeeze history on the
// current session: its next squeezed push is fresh. A push in flight
// keeps the history until it settles. The stream keeps its encoder's
// memory, as the target keeps its receiver's, to save the CPU of
// building another: that takes 0.4-1.6 ms, a third of a push behind T3,
// and a stream whose history was reset is likely to squeeze again.
// maxSqueezeStreams bounds what the session holds.
func (i *Initiator) ResetSqueeze(shard uint8, vol uint16) {
	i.mu.Lock()
	defer i.mu.Unlock()
	st := i.sess.squeeze[streamID(shard, vol)]
	switch {
	case st == nil:
	case st.busy:
		st.drop = true
	default:
		st.tx.Reset()
	}
}

// maxSqueezeStreams caps the squeeze histories one session keeps at
// each end, some 1.1 MiB each at the target and 2.3 MiB at the
// initiator once its stream has pushed. At the target a stream past the
// cap takes over the history of the one that pushed least recently,
// whose next push then comes back StatusStaleHistory and re-ships
// fresh. The initiator evicts the same way, but never a history a
// push holds, and an evicted stream's next push goes out fresh.
const maxSqueezeStreams = 64

// unsqueeze decodes the squeezed list rq holds against its stream's
// history on this session, and returns its entries and digest.
func (rq *request) unsqueeze() ([]BatchEntry, uint64, error) {
	pdu := &rq.pdu
	key := streamID(pdu.Shard, pdu.Vol)
	if rq.squeeze == nil {
		rq.squeeze = make(map[uint32]*SqueezeReceiver)
	}
	rx := rq.squeeze[key]
	if rx == nil {
		rx = rq.evictSqueeze()
		rq.squeeze[key] = rx
	}
	rq.squeezed++
	rx.used = rq.squeezed
	entries, err := rx.Decode(rq.entries, pdu.Data, pdu.Seq)
	return entries, rx.digest, err
}

// evictSqueeze returns a receiver with no history for a stream new to
// the session: a new one under the cap, else the least recently used
// one, forgotten by its stream.
func (rq *request) evictSqueeze() *SqueezeReceiver {
	if len(rq.squeeze) < maxSqueezeStreams {
		return new(SqueezeReceiver)
	}
	var lru uint32
	var rx *SqueezeReceiver
	for key, r := range rq.squeeze {
		if rx == nil || r.used < rx.used {
			lru, rx = key, r
		}
	}
	delete(rq.squeeze, lru)
	rx.pushes = 0
	rx.inf.Reset()
	return rx
}
