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
// shed, so its shipper may run the second stage there: each by-value
// CodecZRL entry of a backlog run is transcoded to CodecZRLFlate —
// DEFLATE over the ZRL body, no decode — and kept only when smaller.
// The replica decodes either codec already; no PDU changes. Whether a
// pipe squeezes is its squeezeGate's call, made from what the shipper
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
	g.since = 0
	if g.predict(x) < squeezeWin*y {
		g.wins = 0
		g.spacing = min(2*max(g.spacing, squeezeMinSpacing), squeezeMaxSpacing)
		return false
	}
	if g.wins++; g.wins < squeezeConfirm {
		return false
	}
	*g = squeezeGate{on: !g.on}
	g.learn(x, y)
	return true
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
// the gate, the DEFLATE encoder and the arena the squeezed frames of
// the run in flight live in (reused from run to run, so a pipe that
// squeezes allocates nothing in the steady state; one that does not
// holds neither between probes — see end). The shared, reference-counted
// frameBufs are never written.
type squeezer struct {
	gate  squeezeGate
	def   xcode.Deflater
	arena []byte
}

// squeeze transcodes the by-value entries of one run in place: an
// entry whose frame got smaller ships (and is accounted as) the
// squeezed frame, and its group remembers how many bytes that saved.
// References, raw-floored frames and frames DEFLATE cannot shrink are
// left as they are.
func (sq *squeezer) squeeze(entries []iscsi.BatchEntry, groups []batchGroup) {
	sq.arena = sq.arena[:0]
	for k := range entries {
		src := entries[k].Frame
		at := len(sq.arena)
		var ok bool
		if sq.arena, ok = sq.def.AppendSqueezed(sq.arena, src); !ok {
			continue
		}
		// Capped, so nothing appended later can run into it; a grown
		// arena leaves earlier frames valid in the array it outgrew.
		out := sq.arena[at:len(sq.arena):len(sq.arena)]
		entries[k].Frame, groups[k].entry.Frame = out, out
		groups[k].squeezed = len(src) - len(out)
	}
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
// squeezes it if the gate says so.
func (sq *squeezer) begin(entries []iscsi.BatchEntry, groups []batchGroup, srcBytes int) squeezeRun {
	r := squeezeRun{sq: sq, squeezed: sq.gate.next(), srcBytes: srcBytes, start: time.Now()}
	if r.squeezed {
		sq.squeeze(entries, groups)
	}
	return r
}

// end is called when the run's push has returned: a clean push teaches
// the gate, and switched reports that the pipe changed mode on it. A
// squeezed run that leaves the gate off was a probe on a pipe that does
// not squeeze: the encoder's tables (about 800 KiB) and the arena go
// back to the collector until the next probe, so only pipes that
// squeeze hold them. (The run's squeezed frames stay alive through its
// entries.)
func (r squeezeRun) end(clean bool) (switched bool) {
	sq := r.sq
	if sq == nil {
		return false
	}
	if clean {
		switched = sq.gate.observe(r.squeezed, r.srcBytes, time.Since(r.start))
	}
	if r.squeezed && !sq.gate.on {
		sq.def, sq.arena = xcode.Deflater{}, nil
	}
	return switched
}
