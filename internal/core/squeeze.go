package core

import (
	"time"

	"prins/internal/iscsi"
	"prins/internal/xcode"
)

// Squeezing a backlog (DESIGN.md §4 has the argument in full).
//
// The write path encodes ZRL alone, under the shard lock. A pipe whose
// queue has backed up behind a slow link has CPU to spare and bytes to
// shed, so its shipper may run the second stage there: a backlog run
// ships as a squeezed list (SqueezeReplicaClient), its by-value CodecZRL
// frames one DEFLATE segment primed with what the pipe's stream already
// carried, which the replica inflates and slices back into the frames
// its stage path lands. A frame with a masked twin (encodeFrames) goes
// in the stream as the twin: the new bytes repeat the stream's history
// where their XOR against the old ones does not. Whether a pipe
// squeezes is its squeezeGate's call, made from what the shipper
// measures and nothing else.

// Gate constants. Not knobs: a pipe on which they are wrong is a pipe
// the gate's rule is wrong for.
const (
	// squeezeWin is by how much a probe's goodput must beat the
	// incumbent mode's to count as a win, and squeezeConfirm how many
	// probes in a row must win before the pipe switches. One 10% sample
	// is within run-to-run noise on a CPU-bound pipe; two in a row are
	// not.
	squeezeWin     = 1.10
	squeezeConfirm = 2
	// A probe is due after squeezeMinSpacing incumbent runs at first,
	// twice as many after every probe that loses, up to
	// squeezeMaxSpacing: a pipe that squeezing cannot help pays for a
	// probe on under 0.1% of its backlog runs, and a pipe whose link
	// changed finds out within that many runs.
	squeezeMinSpacing = 2
	squeezeMaxSpacing = 1024
	// squeezeForget is the weight a run of the incumbent mode keeps
	// in its cost model per later run: the model is about the last
	// sixteen runs.
	squeezeForget = 15.0 / 16
)

// squeezeGate decides whether a pipe's backlog runs ship squeezed. It is
// a pure function of the samples it is fed — one per delivered backlog
// run: the mode it shipped in, the bytes it would have put on the wire
// unsqueezed, and how long squeeze plus push took — and compares the
// pipe's goodput in those SOURCE bytes per second between the incumbent
// mode and a probe run in the other one. Source bytes, not frames or
// wire bytes: frames per second moves with the write mix (a WAL run and
// a checkpoint run differ in frame size), and wire bytes per second is
// the link rate in either mode.
//
// The incumbent's goodput is read off a cost model of its recent runs,
// took = a + b*bytes by least squares, at the probe's own size. A plain
// mean would do on a link that is all bandwidth (a = 0) and on one whose
// runs are all the same size; on a latency-bound link with runs of
// mixed sizes, bytes per second is mostly the size of the run, and a
// probe on a big run would win on that alone.
//
// The zero value is a gate that is off and has seen nothing.
type squeezeGate struct {
	on bool // incumbent mode: squeeze
	// Forgetting sums over the incumbent's runs: weight, bytes, seconds,
	// bytes squared, bytes*seconds.
	n, sx, sy, sxx, sxy float64
	spacing             int // incumbent runs between probes; 0 reads as squeezeMinSpacing
	since               int // incumbent runs since the last probe or switch
	wins                int // consecutive probes that beat the incumbent
}

// next reports whether the next backlog run should squeeze: the
// incumbent mode, or the other one when a probe is due — the spacing
// has run out, or the last probe won and wants confirming. It changes
// nothing, so a run that ends up teaching the gate nothing (see
// observe's caller) is simply asked for again.
func (g *squeezeGate) next() bool {
	probe := g.wins > 0 || g.since >= max(g.spacing, squeezeMinSpacing)
	return g.on != probe
}

// observe feeds one delivered backlog run — shipped squeezed or not,
// srcBytes its wire length before any squeeze, took from the start of
// the squeeze to the push's acknowledgement — and reports whether the
// pipe switched mode on it.
func (g *squeezeGate) observe(squeezed bool, srcBytes int, took time.Duration) (switched bool) {
	if srcBytes <= 0 || took <= 0 {
		return false
	}
	x, y := float64(srcBytes), took.Seconds()
	if squeezed == g.on {
		g.learn(x, y)
		g.since++
		return false
	}
	if g.predict(x) < squeezeWin*y {
		g.lose()
		return false
	}
	g.since = 0
	if g.wins++; g.wins < squeezeConfirm {
		return false
	}
	*g = squeezeGate{on: !g.on}
	g.learn(x, y)
	return true
}

// lose records a probe that lost: the next one is due twice as many
// incumbent runs later, up to squeezeMaxSpacing.
func (g *squeezeGate) lose() {
	g.since, g.wins = 0, 0
	g.spacing = min(2*max(g.spacing, squeezeMinSpacing), squeezeMaxSpacing)
}

// learn adds one run of the incumbent mode to its cost model.
func (g *squeezeGate) learn(x, y float64) {
	const f = squeezeForget
	g.n, g.sx, g.sy, g.sxx, g.sxy = f*g.n+1, f*g.sx+x, f*g.sy+y, f*g.sxx+x*x, f*g.sxy+x*y
}

// predict returns how long the incumbent mode would have taken over a
// run of x source bytes. The fit is held to what a link can be: no
// negative cost per byte (then the mean duration is the model, as it is
// when the runs seen were all one size), no negative fixed cost (then
// the mean rate is).
func (g *squeezeGate) predict(x float64) float64 {
	mx, my := g.sx/g.n, g.sy/g.n
	b := 0.0
	if vx := g.sxx/g.n - mx*mx; vx > 1e-6*mx*mx {
		b = max((g.sxy/g.n-mx*my)/vx, 0)
	}
	a := my - b*mx
	if a < 0 {
		a, b = 0, my/mx
	}
	return a + b*x
}

// squeezer is what an async pipe's one shipper owns to squeeze with:
// the gate. The encoder and the stream's history belong to the client
// (iscsi's squeezed lists keep them per session), which builds the
// encoder on a stream's first squeezed push and drops it when the pipe
// asks (resetSqueeze): after a squeezed run that leaves the gate off,
// so only pipes that squeeze hold one.
type squeezer struct {
	gate  squeezeGate
	probe []byte // compressible's scratch
}

// probeBytes is how much of a probe run's streamed frames the
// compressibility check reads. One ZRL frame of a few hundred bytes is
// too short for a Huffman pass to shrink even when it is text: of
// TPC-C's frames (squeezeCorpora), 2506 of 6073 pass on their own,
// while the first 4 KiB of every one of its 189 runs of 32 passes, and
// none of the incompressible corpus's does.
const probeBytes = 4 << 10

// compressible reports whether the first probeBytes of what the run's
// squeezed list would stream (iscsi.BatchEntry.InStream: the masked
// twins, where the frames have them) shrink under xcode.Compressible's
// Huffman-only pass. Inline frames are not read, since DEFLATE never
// sees them; a run that streams nothing has nothing to tell, and
// passes.
func (sq *squeezer) compressible(entries []iscsi.BatchEntry) bool {
	buf := sq.probe[:0]
	for k := 0; k < len(entries) && len(buf) < probeBytes; k++ {
		buf = append(buf, entries[k].InStream()...)
	}
	sq.probe = buf[:0]
	return len(buf) == 0 || xcode.Compressible(buf[:min(len(buf), probeBytes)])
}

// squeezeRun is one backlog run's passage through its pipe's squeezer,
// from begin to end. The zero value is a run the gate does not see: its
// end does nothing.
type squeezeRun struct {
	sq       *squeezer
	squeezed bool
	srcBytes int
	start    time.Time
}

// begin starts the clock on a backlog run of srcBytes on the wire and
// reports, in the run's squeezed, whether it ships squeezed: the gate's
// call, except that a probe whose first streamed bytes do not compress
// (see compressible) is lost on the spot. It ships plain, as an
// incumbent run, and the gate spaces its next probe as for any lost
// probe; no encoder is built for it.
func (sq *squeezer) begin(entries []iscsi.BatchEntry, srcBytes int) squeezeRun {
	r := squeezeRun{sq: sq, squeezed: sq.gate.next(), srcBytes: srcBytes, start: time.Now()}
	if r.squeezed && !sq.gate.on && !sq.compressible(entries) {
		sq.gate.lose()
		r.squeezed = false
	}
	return r
}

// end is called when the run's push has returned: a clean push teaches
// the gate, and switched reports that the pipe changed mode on it.
// forget reports that the gate is off after a run that squeezed, or
// that switched it off: the stream's history, and the encoder, are no
// longer worth keeping.
func (r squeezeRun) end(clean bool) (switched, forget bool) {
	sq := r.sq
	if sq == nil {
		return false, false
	}
	if clean {
		switched = sq.gate.observe(r.squeezed, r.srcBytes, time.Since(r.start))
	}
	return switched, !sq.gate.on && (r.squeezed || switched)
}
