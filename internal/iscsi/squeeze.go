package iscsi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"

	"prins/internal/xcode"
)

// Squeezed entry lists: a backlogged stream's by-value frames as one
// compressed segment, built against what the stream already carried: a
// match pass that names the repeats of its last 1 MiB, then DEFLATE
// (xcode/stream.go).
//
// A squeezed list is an entry-list PDU (either opcode, v8) whose header
// Seq field (off 28), which a plain list leaves zero, is nonzero: the
// push's history tag (below). Its data segment is batch.go's entry list
// with two changes. An entry's length field is frameLen<<1 | s, where
// s = 1 says the frame is not inline but in the list's stream segment;
// and that segment, the s-frames' bytes in entry order as one
// xcode.StreamDeflater segment, fills the data segment after the last
// entry:
//
//	count    (uvarint)
//	then, per entry:
//	  seq      (varint)  as in a plain list
//	  lba      (varint)  as in a plain list
//	  hash     (uint64)  as in a plain list
//	  len      (uvarint) frameLen<<1 | s
//	  frame    (frameLen bytes, only when s = 0)
//	stream segment (to the end of the data segment)
//
// The frames that go in the stream are the by-value CodecZRL frames, a
// parity's zero-run form, whose literals are the rows and log records a
// working set rewrites; references carry no frame, and raw-floored
// frames, which DEFLATE finds nothing in, stay inline.
//
// Masks. An entry whose ZRL frame has a masked twin (BatchEntry.Mask)
// streams the twin instead: a parity frame's zero runs with A_new's
// bytes for literals, which repeat what the stream already carried
// where the parity's XOR against changing old bytes does not. Its hash
// field then carries the twin's check (BatchEntry.Check),
// HashBlock(A_new) XOR HashBlock(the parity frame the twin was made
// from), and the replica verifies it by landing the mask on its
// pre-image and rebuilding that frame from the bytes it overwrote
// (xcode.MaskInto): a wrong pre-image byte under the mask changes the
// rebuilt frame, one elsewhere changes A_new, so the check catches
// exactly what the parity's own hash check does.
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
// target answers it StatusOK, and the history lives with the session,
// so a redial starts both ends empty. The replica never inflates
// against a history it does not hold.

// ErrStaleHistory reports a squeezed push built on a history the
// target does not hold: nothing was applied, and the push re-ships
// fresh.
var ErrStaleHistory = errors.New("iscsi: squeezed push built on a stale history")

// Streamed reports whether a squeezed list carries e's frame in its
// stream segment rather than inline: a by-value CodecZRL or CodecMask
// frame.
func (e *BatchEntry) Streamed() bool {
	if len(e.Frame) == 0 {
		return false
	}
	c := xcode.Codec(e.Frame[0])
	return c == xcode.CodecZRL || c == xcode.CodecMask
}

// InStream returns what a squeezed list's stream segment carries for e:
// its mask twin when it has one, else its frame, and nil when e is not
// Streamed.
func (e *BatchEntry) InStream() []byte {
	switch {
	case !e.Streamed():
		return nil
	case len(e.Mask) > 0:
		return e.Mask
	default:
		return e.Frame
	}
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
}

// Encode lays entries out as a squeezed list built on the stream's
// history and returns its data segment, valid until the next Encode,
// and its tag. ok is false when the list should ship plain: no entry
// has a frame for the stream, or the squeezed list came out no smaller
// than the plain one (the history then starts over).
func (s *SqueezeSender) Encode(entries []BatchEntry, refs bool) (seg []byte, tag uint64, ok bool, err error) {
	plainLen, _, err := entryListLen(entries, refs)
	if err != nil {
		return nil, 0, false, err
	}
	if !slices.ContainsFunc(entries, func(e BatchEntry) bool { return e.Streamed() }) {
		return nil, 0, false, nil
	}
	if s.open { // the last push was never settled: its history is unknown
		s.Reset()
	}
	if s.pushes == 0 {
		s.def.Reset()
	}
	seg = binary.AppendUvarint(s.seg[:0], uint64(len(entries)))
	prev := &BatchEntry{}
	for k := range entries {
		e := &entries[k]
		if in := e.InStream(); in != nil {
			w := BatchEntry{Seq: e.Seq, LBA: e.LBA, Hash: e.Hash}
			if len(e.Mask) > 0 {
				w.Hash = e.Check // a streamed twin carries its check
			}
			seg = appendEntryFields(seg, prev, &w, uint64(len(in))<<1|1)
		} else {
			seg = append(appendEntryFields(seg, prev, e, uint64(len(e.Frame))<<1), e.Frame...)
		}
		prev = e
	}
	if err = s.def.Start(seg); err == nil {
		for k := range entries {
			if in := entries[k].InStream(); err == nil && in != nil {
				err = s.def.Write(in)
			}
		}
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
	plain  []byte // the last push's stream plaintext; its frames alias it
	frames []streamedFrame
	used   uint64 // the session's squeezed-push count at this stream's last push
}

// streamedFrame is a squeezed list's entry whose frame is in the stream:
// its index and frame length.
type streamedFrame struct{ k, n int }

// Decode checks tag against the stream's history and parses a squeezed
// list into entries' backing array (see decodeEntryList), inflating its
// stream segment into the receiver's buffer: the returned frames alias
// data and that buffer, which the next Decode overwrites. A tag that
// does not match is ErrStaleHistory, with nothing decoded. Decoding is
// strict and bounded like a plain list's, and besides: an entry whose
// frame is in the stream declares a nonzero length; the stream's
// declared bytes must fit MaxDataSegment; and the segment must rebuild
// exactly those bytes (xcode.StreamInflater), which is checked before
// anything is allocated for them. A segment's repeats may rebuild far
// more than DEFLATE alone could carry, so the bound on what one byte
// of it may inflate to holds its match list and literals, not the
// bytes they rebuild. On success the history takes the push in.
func (r *SqueezeReceiver) Decode(entries []BatchEntry, data []byte, tag uint64, refs bool) ([]BatchEntry, error) {
	switch {
	case tag == 1:
		r.pushes = 0
		r.inf.Reset()
	case tag != r.pushes+1:
		return nil, fmt.Errorf("%w: tag %d, %d pushes held", ErrStaleHistory, tag, r.pushes)
	}
	r.frames = r.frames[:0]
	entries, z, err := decodeEntries(entries, data, refs, &r.frames)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, f := range r.frames {
		total += f.n
	}
	if err := r.inf.Load(z, total); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if cap(r.plain) < total {
		r.plain = make([]byte, total)
	}
	plain := r.plain[:total]
	if err := r.inf.Rebuild(plain); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	for _, f := range r.frames {
		entries[f.k].Frame, plain = plain[:f.n:f.n], plain[f.n:]
	}
	r.pushes++
	return entries, nil
}

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

// ReplicaWriteSqueezed is ReplicaWriteBatchStream (or, with refs set,
// ReplicaWriteByRef) with the entries' by-value CodecZRL frames
// compressed as one segment against the (vol, shard) stream's history
// on this session (see the top of squeeze.go), and it also returns the
// data-segment bytes the push put on the wire. The list ships plain —
// the same PDU the plain verb sends, multi-entry framing even for one
// entry — when nothing in it is for the stream, when squeezing did not
// make it smaller, or when another push of the stream's is in flight: a
// stream's squeezed pushes are meant to go one at a time, as an async
// pipe's do. A push the target refuses as built on a stale history is
// re-shipped once, fresh.
func (i *Initiator) ReplicaWriteSqueezed(mode, shard uint8, vol uint16, entries []BatchEntry, refs bool) ([]Status, int, error) {
	if len(entries) == 0 {
		return nil, 0, fmt.Errorf("iscsi: empty squeezed push")
	}
	op := OpReplicaWriteBatch
	if refs {
		op = OpReplicaWriteByRef
	}
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
				seg, tag, ok, err := st.tx.Encode(entries, refs)
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
		return statuses, sent, err
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
// history on this session.
func (rq *request) unsqueeze(refs bool) ([]BatchEntry, error) {
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
	return rx.Decode(rq.entries, pdu.Data, pdu.Seq, refs)
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
