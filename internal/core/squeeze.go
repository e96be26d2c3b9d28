package core

import (
	"prins/internal/iscsi"
	"prins/internal/xcode"
)

// Squeezing a backlog (DESIGN.md §4 has the argument in full).
//
// The write path encodes ZRL alone, under the shard lock. A pipe whose
// queue has backed up behind a slow link has CPU to spare and bytes to
// shed, so its shipper may run the second stage there: a backlog run
// ships as a squeezed list (SqueezeReplicaClient), the whole entry list
// — headers, references and frames — one range-coded segment primed
// with what the pipe's stream already carried, and one digest in place
// of the by-value entries' hashes, which the replica rebuilds, parses
// and verifies as one push. A frame with a masked twin (encodeFrames) goes
// in the stream as the twin: the new bytes repeat the stream's history
// where their XOR against the old ones does not. Whether a pipe
// squeezes is its squeezeGate's call, made from the bytes its squeezed
// lists save and nothing else.

// A probe is due after squeezeMinSpacing plain runs at first, twice as
// many after every probe that loses, up to squeezeMaxSpacing: a pipe
// whose lists do not shrink pays for a probe on under 0.1% of its
// backlog runs. Not knobs: a pipe on which they are wrong is a pipe the
// gate's rule is wrong for.
const (
	squeezeMinSpacing = 2
	squeezeMaxSpacing = 1024
)

// squeezeGate decides whether a pipe's backlog runs ship squeezed, by
// bytes alone: the second stage is there to take bytes off the link, so
// a pipe squeezes for as long as its squeezed lists come out smaller
// than the plain ones. An on gate squeezes every run; a run whose list
// comes out no smaller turns it off. An off gate ships plain and, when
// its spacing has run out, probes with one squeezed run; a probe whose
// list shrank turns it on, and one that lost doubles the spacing.
//
// No clock is read, so a pipe whose parities compress squeezes even
// over a link that would carry them plain faster than the coder can
// shrink them. No workload has such a link; a per-pipe link estimate is
// where the time would come back in.
//
// The zero value is a gate that is off and has seen nothing.
type squeezeGate struct {
	on      bool
	spacing int // plain runs between probes; 0 reads as squeezeMinSpacing
	since   int // plain runs since the last probe
}

// next reports whether the next backlog run should squeeze: always on an
// on gate, and on an off one when a probe is due. It changes nothing, so
// a run that ends up teaching the gate nothing (a failed push) is simply
// asked for again.
func (g *squeezeGate) next() bool {
	return g.on || g.since >= max(g.spacing, squeezeMinSpacing)
}

// learn feeds the gate one delivered backlog run — asked to squeeze or
// not, and whether its squeezed list came out smaller — and reports
// whether the pipe switched mode on it.
func (g *squeezeGate) learn(squeezed, shrank bool) (switched bool) {
	was := g.on
	switch {
	case !squeezed:
		g.since++
	case shrank:
		*g = squeezeGate{on: true}
	default:
		g.lose()
	}
	return g.on != was
}

// lose records a squeezed run that could not pay: the gate is off, and
// its next probe is due twice as many plain runs later, up to
// squeezeMaxSpacing.
func (g *squeezeGate) lose() {
	g.on, g.since = false, 0
	g.spacing = min(2*max(g.spacing, squeezeMinSpacing), squeezeMaxSpacing)
}

// squeezer is what an async pipe's one shipper owns to squeeze with:
// the gate. The encoder and the stream's history belong to the client
// (iscsi's squeezed lists keep them per session), which builds the
// encoder on a stream's first squeezed push and rolls back a list that
// did not shrink, so a run that could not pay leaves the history as it
// was, to be built on by the next squeezed run.
type squeezer struct {
	gate  squeezeGate
	probe []byte // compressible's scratch
}

// probeBytes is how much of a probe run's squeezed plaintext the
// compressibility check reads. One ZRL frame of a few hundred bytes is
// too short for a Huffman pass to shrink even when it is text: of
// TPC-C's frames (squeezeCorpora), 2506 of 6073 pass on their own,
// while a 4 KiB sample (compressible) of every one of its 190 runs of
// up to 32 passes, twins or none, and none of the incompressible
// corpus's does.
const probeBytes = 4 << 10

// compressible reports whether a sample of what the run's squeezed list
// would stream (iscsi.AppendStream: every entry's header, a
// reference's hash, and the first bytes of each frame, or of its masked
// twin where it has one) shrinks under xcode.Compressible's Huffman-only
// pass. The sample is some probeBytes, cut evenly across the run's
// entries, so that a run led by frames that do not compress (raw
// floors of random bytes, say) is judged by the rest of it too. The run
// streams enough to tell (see begin).
func (sq *squeezer) compressible(entries []iscsi.BatchEntry) bool {
	sq.probe = iscsi.AppendStream(sq.probe[:0], entries, probeBytes/len(entries))
	return xcode.Compressible(sq.probe)
}

// squeezeRun is one backlog run's passage through its pipe's squeezer,
// from begin to end. The zero value is a run the gate does not see: its
// end does nothing.
type squeezeRun struct {
	sq       *squeezer
	squeezed bool // the gate asked for a squeezed push
	plain    int  // the run's list's wire bytes unsqueezed
}

// squeezeMinStream is the fewest bytes a run must put in a squeezed
// list's stream for the gate to see it. A shorter stream (a few
// references, or the tar workload's runs whose one frame is a metadata
// block's 12 changed bytes) cannot pay for the list's digest and the
// segment's own framing, its 4-byte check and the coder's 4-byte flush:
// squeezed, such a list comes out no smaller and ships plain.
const squeezeMinStream = 64

// streamsEnough reports whether entries, whose plain list is plain
// bytes, put at least squeezeMinStream bytes in a squeezed list's
// stream.
func streamsEnough(entries []iscsi.BatchEntry, plain int) bool {
	return iscsi.StreamLen(entries, plain) >= squeezeMinStream
}

// begin starts a backlog run whose list is plain wire bytes unsqueezed
// and reports, in the run's squeezed, whether it ships squeezed: the
// gate's call, except that a probe whose sampled stream does not
// compress (see compressible) is lost on the spot. It ships plain, as
// any plain run, and the gate spaces its next probe as for any lost
// probe; no encoder is built for it. A run that streams too little to
// shrink (see squeezeMinStream) is not the gate's: it ships plain and
// teaches nothing, and a probe due waits for a run that can tell.
func (sq *squeezer) begin(entries []iscsi.BatchEntry, plain int) squeezeRun {
	if !streamsEnough(entries, plain) {
		return squeezeRun{}
	}
	r := squeezeRun{sq: sq, squeezed: sq.gate.next(), plain: plain}
	if r.squeezed && !sq.gate.on && !sq.compressible(entries) {
		sq.gate.lose()
		r.squeezed = false
	}
	return r
}

// end is called when the run's push has returned: delivered reports
// that it went through, sent the data-segment bytes of the PDU that
// settled it (a re-ship's, when a first one was refused). A squeezed
// run shrank when sent is under its plain bytes: a client
// ships a squeezed list only when it comes out smaller, and ships the
// plain one otherwise (SqueezeReplicaClient). A delivered run teaches
// the gate (learn); a failed one teaches it nothing. It reports whether
// the pipe changed mode on the run.
func (r squeezeRun) end(delivered bool, sent int) (switched bool) {
	if r.sq == nil || !delivered {
		return false
	}
	return r.sq.gate.learn(r.squeezed, r.squeezed && sent < r.plain)
}
