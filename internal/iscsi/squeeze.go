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
// DEFLATE segment, compressed against what the stream already carried.
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
// History. Each (shard, vol) stream of a session keeps, at both ends,
// the last xcode.StreamWindow bytes of squeezed plaintext it carried,
// and a segment may refer back into them. The tag names the history a
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

// maxDeflateRatio bounds how many bytes one byte of DEFLATE can
// inflate to (a 258-byte match in two one-bit codes): a list that
// declares more stream bytes than its segment could carry is refused
// before anything is allocated for them.
const maxDeflateRatio = 1032

// ErrStaleHistory reports a squeezed push built on a history the
// target does not hold: nothing was applied, and the push re-ships
// fresh.
var ErrStaleHistory = errors.New("iscsi: squeezed push built on a stale history")

// Streamed reports whether a squeezed list carries e's frame in its
// stream segment rather than inline: a by-value CodecZRL frame.
func (e *BatchEntry) Streamed() bool {
	return len(e.Frame) > 0 && xcode.Codec(e.Frame[0]) == xcode.CodecZRL
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
		if e.Streamed() {
			seg = appendEntryFields(seg, prev, e, uint64(len(e.Frame))<<1|1)
		} else {
			seg = append(appendEntryFields(seg, prev, e, uint64(len(e.Frame))<<1), e.Frame...)
		}
		prev = e
	}
	if err = s.def.Start(seg); err == nil {
		for k := range entries {
			if err == nil && entries[k].Streamed() {
				err = s.def.Write(entries[k].Frame)
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
// declared bytes must fit MaxDataSegment, and what maxDeflateRatio lets
// the segment carry, before anything is allocated for them; and the
// segment must inflate to exactly those bytes (xcode.StreamInflater).
// On success the history takes the push in.
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
	if total == 0 || total > maxDeflateRatio*len(z) {
		return nil, fmt.Errorf("%w: a %d-byte stream segment declared to carry %d bytes", ErrBadFrame, len(z), total)
	}
	if cap(r.plain) < total {
		r.plain = make([]byte, total)
	}
	plain := r.plain[:total]
	if err := r.inf.Inflate(plain, z); err != nil {
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
	busy bool // a push has claimed tx
	drop bool // ResetSqueeze came while busy: forget the stream when the push settles
}

// streamID packs a (shard, vol) stream tag.
func streamID(shard uint8, vol uint16) uint32 { return uint32(vol)<<8 | uint32(shard) }

// claimSqueeze returns session s's history for the stream key, claimed
// for one push, or nil when another push holds it (that push then
// ships plain).
func (i *Initiator) claimSqueeze(s *session, key uint32) *squeezeStream {
	i.mu.Lock()
	defer i.mu.Unlock()
	if s.squeeze == nil {
		s.squeeze = make(map[uint32]*squeezeStream)
	}
	st := s.squeeze[key]
	if st == nil {
		st = &squeezeStream{sess: s, key: key}
		s.squeeze[key] = st
	}
	if st.busy {
		return nil
	}
	st.busy = true
	return st
}

// settleSqueeze releases a claim. A squeezed push the target answered
// StatusOK (took) was taken in at both ends; any other squeezed push
// resets the history, and a push that went plain leaves it as it was.
// A stream ResetSqueeze asked to forget is forgotten.
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
	if st.drop && st.sess.squeeze[st.key] == st {
		delete(st.sess.squeeze, st.key)
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
// current session, encoder included: its next squeezed push is fresh.
// A push in flight keeps the history until it settles.
func (i *Initiator) ResetSqueeze(shard uint8, vol uint16) {
	i.mu.Lock()
	defer i.mu.Unlock()
	key := streamID(shard, vol)
	st := i.sess.squeeze[key]
	switch {
	case st == nil:
	case st.busy:
		st.drop = true
	default:
		delete(i.sess.squeeze, key)
	}
}

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
		rx = new(SqueezeReceiver)
		rq.squeeze[key] = rx
	}
	return rx.Decode(rq.entries, pdu.Data, pdu.Seq, refs)
}
