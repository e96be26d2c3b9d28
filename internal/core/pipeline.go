package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"prins/internal/dedupe"
	"prins/internal/iscsi"
	"prins/internal/metrics"
	"prins/internal/wan"
	"prins/internal/window"
	"prins/internal/xcode"
)

// Per-(shard, replica) ship pipelines.
//
// Every attached replica owns one bounded FIFO queue per shard, drained
// by that pipe's own shipper, so delivery to one replica never waits
// on another replica's round trips — fan-out latency is the slowest
// replica, not the sum — and one shard's backlog never blocks another
// shard's pipeline to the same replica. The write path enqueues onto
// every pipe of the owning shard while holding that shard's lock, so
// frames enter each queue in per-shard sequence order, but never
// performs network I/O under the lock: synchronous writes wait for
// per-write acks after the lock is released.
//
// A pipe takes runs off its queue in that order and admits them to its
// ship window one at a time (see pipe and shipper). An async pipe's
// window is one run: the replica receives the stream in seq order, one
// push after the other. A sync pipe's window is shipWindow runs whose
// round trips overlap on the multiplexed session and land in any order,
// which the replica's per-stream seq window dedupes and the same-LBA
// admission rule keeps correct.
//
// Degraded state and sticky async errors live on the replica (shared
// across its pipes — a dead session is dead for every shard); dirty maps
// live on the pipe, so recovery can resync shard ranges independently,
// and so do the delivery counters, so no two shippers share one.

// repMsg is one queued replication job for one replica.
type repMsg struct {
	seq   uint64
	lba   uint64
	hash  uint64 // content hash of the decoded new block; 0 = unverified
	frame *frameBuf
	// ack receives the delivery result in synchronous mode; nil in
	// async mode, where errors stick to the replica until Drain.
	ack chan<- error
}

// replicaState is one attached replica's shared delivery health; the
// per-shard queues and counters hang off its pipes. The degraded flag is
// atomic because shippers race with ClearDegraded and the Degraded
// accessors.
type replicaState struct {
	client ReplicaClient
	// lists is client's entry-list extension when it has one; nil keeps
	// the single-frame ship path.
	lists StreamBatchReplicaClient
	// framed is client's zero-copy extension; when set, a single-frame
	// ship whose pipeline holds the pooled buffer exclusively hands the
	// whole pre-assembled PDU over instead of staging a copy.
	framed FramedReplicaClient
	// dedupe, when non-nil (Config.DedupeEntries set and the client
	// ships lists), is the bounded (lba -> content hash) index of what
	// the engine believes this replica holds — the ship-by-reference
	// fast path's consult source, fed by acknowledged ships and resync,
	// invalidated wherever an LBA goes dirty or the replica degrades.
	dedupe *dedupe.Index
	// squeeze is client's compressing extension; an async pipe squeezes
	// its backlog runs only through it.
	squeeze SqueezeReplicaClient

	pipes []*pipe // one per shard, shard order

	degraded atomic.Bool

	// pending counts frames enqueued but not yet fully processed,
	// across all of this replica's pipes; Drain and Close wait on it
	// per replica.
	pending sync.WaitGroup

	errMu sync.Mutex
	err   error // first async delivery error, sticky until ClearDegraded
}

// setErr records the first sticky async delivery error.
func (rs *replicaState) setErr(err error) {
	rs.errMu.Lock()
	if rs.err == nil {
		rs.err = err
	}
	rs.errMu.Unlock()
}

// firstErr returns the sticky error, if any.
func (rs *replicaState) firstErr() error {
	rs.errMu.Lock()
	defer rs.errMu.Unlock()
	return rs.err
}

// clearErr forgets the sticky error (part of the recovery lifecycle).
func (rs *replicaState) clearErr() {
	rs.errMu.Lock()
	rs.err = nil
	rs.errMu.Unlock()
}

// degrade takes the replica out of the ship path and resets its dedupe
// index: once frames are being dropped, nothing further about the
// replica's content can be assumed until a resync re-warms it.
func (rs *replicaState) degrade() {
	rs.degraded.Store(true)
	if rs.dedupe != nil {
		rs.dedupe.Reset()
	}
}

// shipWindow is how many runs a synchronous pipe keeps in flight at
// once. A constant, not a knob: a shard with fewer concurrent writers
// never fills it, and one with more batches the excess into the runs it
// does ship.
const shipWindow = 8

// batchBytes soft-caps the encoded payload bytes of one drained run:
// draining stops once the run's frames reach it (the frame that crosses
// the line still rides along). A constant, not a knob: at the default
// BatchFrames it binds only on runs of frames averaging over 32 KiB.
const batchBytes = 1 << 20

// pipe is one (shard, replica) ship pipeline: the shard's frames to
// that replica flow through its queue in seq order, and the blocks the
// replica is missing from that shard accumulate in its dirty map.
//
// A pipe has one shipper goroutine (see shipper), which owns the pipe's
// ship window: it takes runs off the queue in seq order, admits each
// past the rules in admissible, and issues its delivery on the window.
// How many deliveries the window overlaps is the engine's mode, for two
// reasons (DESIGN.md, "Ordering on a stream", has the argument in full).
// Correctness: an async WriteBlock returns before its push, so the order
// of the stream is all that keeps the replica a prefix of what the
// application wrote, and an async pipe's window is therefore one push,
// for which both admission rules are vacuous; a sync writer's order is
// carried by its acks, and writes un-acked at the same time have no
// order the application can observe, so a sync pipe's window is
// shipWindow pushes. Efficiency: one outstanding push is what lets an
// async pipe's backlog build into full batches and coalesce same-LBA
// parities.
type pipe struct {
	rs    *replicaState
	shard *shard
	queue chan repMsg
	dirty *dirtyMap
	// batches reports whether this pipe ships its drained backlog as
	// entry-list pushes: when BatchFrames allows it (1 disables batching
	// everywhere) and the client has the entry-list extension. Fixed at
	// attach.
	batches bool
	// sq decides whether this pipe's backlog runs ship squeezed (see
	// squeeze.go). Set on an async pipe that batches through a client
	// that squeezes; its shipper runs its one push itself and is sq's
	// sole user. A sync pipe has at most one frame per writer queued, so
	// it seldom has a backlog to squeeze, and its shipWindow overlaps
	// pushes where a stream's squeezed pushes go one at a time.
	sq *squeezer
	// m is the pipe's counter bank: every delivery, retry, drop and
	// admission wait of this pipe is booked here and nowhere else, and
	// the replica, shard and engine views fold it on read.
	m metrics.Bank
}

// fold sums the banks of pipes: a replica's view of its ship path when
// they are its pipes, a shard's view of its deliveries when its own.
func fold(pipes []*pipe) (c metrics.Counts) {
	for _, p := range pipes {
		c = c.Add(&p.m)
	}
	return c
}

// markDirty records lba as not-known-held by this pipe's replica and
// drops it from the primary's dedupe index: whatever the replica holds
// there is no longer a safe by-ref copy source.
func (p *pipe) markDirty(lba uint64) {
	p.dirty.mark(lba)
	if d := p.rs.dedupe; d != nil {
		d.Forget(lba)
	}
}

// streamTag returns the (shard, vol) tag this pipe's pushes carry.
// Shard 0 of a volume-0 engine is stream (0, 0), which ships untagged,
// byte-identical to the pre-sharding wire format.
func (e *Engine) streamTag(p *pipe) (shard uint8, vol uint16) {
	return p.shard.id, e.cfg.Volume
}

// resetSqueeze makes the client forget p's stream's squeeze history,
// when p squeezes at all.
func (e *Engine) resetSqueeze(p *pipe) {
	if p.sq != nil {
		p.rs.squeeze.ResetSqueeze(e.streamTag(p))
	}
}

// frameBuf is a pooled, reference-counted encode buffer. One frame is
// shared by every replica's queue; the last pipeline to finish with it
// returns it to the pool, killing the per-write frame allocation.
//
// buf is a complete wire PDU in the making: iscsi.FrameHeadroom bytes
// reserved for the replica-write header, then the encoded frame. The
// encode path appends the frame after the headroom, frame() exposes
// just the frame, and a FramedReplicaClient stamps the header into the
// headroom and sends buf whole — zero copies between encode and wire.
//
// twin is the frame's CodecMask twin and check its check, which a
// squeezed list ships in place of the frame and its hash (see
// encodeFrames); twin is empty when the frame has none.
type frameBuf struct {
	buf   []byte
	twin  []byte
	check uint64
	refs  atomic.Int32
}

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// getFrame fetches a frame buffer from the pool with the header
// headroom reserved and no frame bytes.
func getFrame() *frameBuf {
	fb, ok := framePool.Get().(*frameBuf)
	if !ok {
		fb = new(frameBuf)
	}
	if cap(fb.buf) < iscsi.FrameHeadroom {
		fb.buf = make([]byte, iscsi.FrameHeadroom, iscsi.FrameHeadroom+512)
	} else {
		fb.buf = fb.buf[:iscsi.FrameHeadroom]
	}
	fb.twin, fb.check = fb.twin[:0], 0
	return fb
}

// frame returns the encoded frame, without the reserved header bytes.
func (fb *frameBuf) frame() []byte { return fb.buf[iscsi.FrameHeadroom:] }

// release drops n references and returns the buffer to the pool when
// none remain.
func (fb *frameBuf) release(n int32) {
	if fb.refs.Add(-n) == 0 {
		framePool.Put(fb)
	}
}

// shipper is a pipe's one goroutine: it takes the next run off the
// queue (FIFO = per-shard sequence order), admits it to the ship window
// and issues it there, so the pipe's runs are admitted in seq order and
// their deliveries overlap as far as the window allows. Close settles
// every queued frame before it closes done, so a shipper that sees done
// closed has nothing left to ship.
func (e *Engine) shipper(p *pipe) {
	defer e.shippers.Done()
	calls := shipWindow
	if e.cfg.Async {
		calls = 1
	}
	// spare is a settled run's buffer, so that a run of one costs no
	// allocation: a window of one hands its buffer back every time.
	var spare []repMsg
	w := window.New(calls, 0, func(r shipRun) { e.process(p, r.msgs, r.backlog) },
		func(r shipRun) { spare = r.msgs[:0] })
	defer w.Drain()
	for {
		var first repMsg
		select {
		case first = <-p.queue:
		case <-e.done:
			return
		}
		// Settle what has finished before draining: an async pipe's one
		// push ran inline and has settled by now, so its backlog is
		// drained behind it, which is what fills its batches.
		w.Poll()
		run, backlog := e.drain(p, spare, first)
		spare = nil
		if !p.admissible(w, run) {
			p.m.Add(metrics.AdmitWaits, 1) // counted when the wait begins, so a stalled window shows while it is stalled
			for !p.admissible(w, run) {
				w.Wait()
			}
		}
		w.Go(shipRun{run, backlog}, 0)
	}
}

// shipRun is one drained run on its way through the ship window.
type shipRun struct {
	msgs    []repMsg
	backlog bool
}

// drain opportunistically drains p's queue behind first into run, up to
// Config.BatchFrames frames and batchBytes bytes, without ever blocking:
// batches form only from backlog already sitting in the queue, so an
// idle pipeline keeps single-write latency while a pipeline behind a
// slow link amortizes its round trips over everything that queued up
// meanwhile.
// A pipe that does not batch delivers frame by frame. backlog reports
// that the run stopped at a cap, not at an empty queue: the pipe is
// behind, which is when squeezing its bytes can pay.
func (e *Engine) drain(p *pipe, run []repMsg, first repMsg) (_ []repMsg, backlog bool) {
	run = append(run, first)
	if !p.batches {
		return run, false
	}
	bytes := len(first.frame.frame())
	for len(run) < e.cfg.BatchFrames && bytes < batchBytes {
		select {
		case msg := <-p.queue:
			run = append(run, msg)
			bytes += len(msg.frame.frame())
		default:
			return run, false
		}
	}
	return run, true
}

// admissible reports whether run may ship beside the runs in flight.
// Two rules, both about pushes that leave the session in any order
// (each sleeps out the link on its own goroutine, and a real socket
// orders them no better). Same LBA: two PRINS parities for one block
// applied out of order fail the replica's hash check as diverged, and a
// whole-block frame applied late silently undoes its successor, so a
// run waits for every in-flight run that carries one of its LBAs. Span:
// a push stuck in its retry loop must still find its seqs inside the
// replica's window when it finally lands — aged out, they would be
// acknowledged as duplicates without ever having been applied — so a
// run whose last seq is half that window or more past the oldest
// in-flight seq waits. A sync engine has at most one frame per writer
// queued or in flight on a pipe, which bounds the scan. With a window
// of one nothing is in flight here and run is always admissible.
func (p *pipe) admissible(w *window.Window[shipRun], run []repMsg) bool {
	last := run[len(run)-1].seq
	for k := range w.Len() {
		f := w.At(k).msgs
		if last-f[0].seq >= seqWindowSize/2 {
			return false
		}
		for i := range f {
			for j := range run {
				if f[i].lba == run[j].lba {
					return false
				}
			}
		}
	}
	return true
}

// batchGroup is one wire entry of a drained run plus the queued
// messages it settles: more than one when same-LBA parities were
// XOR-merged into a single frame.
type batchGroup struct {
	entry iscsi.BatchEntry
	msgs  []repMsg
	// ref: the entry's first attempt shipped as a content reference.
	// reshipped: the entry sat in a by-ref push's refused REF-MISS
	// suffix and was re-shipped by value.
	ref, reshipped bool
	// streamed: the push that delivered the entry was a squeezed list,
	// and squeezed is the entry's share of what squeezing took off that
	// push (see shareSqueeze); first is that share in the run's first
	// push, for an entry shipped twice.
	streamed        bool
	squeezed, first int
	// err is the entry's delivery outcome, then its messages'
	// settlement: nil delivered, wrapping iscsi.ErrDiverged refused by
	// the replica's hash check, anything else not delivered.
	err error
}

// plainGroups appends one group per message, unmerged. Each group's
// msgs aliases its slot of the run (capped, so a later merge appends
// into fresh memory instead of over the neighbour).
func plainGroups(groups []batchGroup, msgs []repMsg) []batchGroup {
	for i := range msgs {
		groups = append(groups, singleGroup(msgs[i:i+1:i+1]))
	}
	return groups
}

func singleGroup(one []repMsg) batchGroup {
	m := &one[0]
	return batchGroup{
		entry: iscsi.BatchEntry{Seq: m.seq, LBA: m.lba, Hash: m.hash, Frame: m.frame.frame(), Mask: m.frame.twin, Check: m.frame.check},
		msgs:  one,
	}
}

// process is the one ship-settle path: it delivers one drained run of
// queued messages to the pipe's replica in (at most) one round trip —
// dropping it if the replica is degraded — then accounts, then reports
// every message's own outcome: to the waiting writer in sync mode, to
// the sticky per-replica error in async mode.
//
// A run of one frame on a pipe without a dedupe index (and every run
// on a pipe that does not batch) takes the plain replica-write op: on
// the wire the v3 OpReplicaWrite PDU or its stream-tagged v5 form,
// byte-identical to pre-batching shipping. Otherwise same-LBA PRINS
// parities coalesce and the entries ship as one list, each settling on
// its own status — one diverged block marks its LBA dirty without
// failing its batch-mates. With a dedupe index even a run of one goes
// through the entry path: a consult hit turns the whole frame into a
// reference — its entry header alone (wire protocol v8), 11 bytes for
// the next seq at a nearby LBA — which dwarfs what the single-frame
// fast path saves. The first reference the replica cannot resolve
// refuses the entire remaining suffix with StatusRefMiss — entries
// applied ahead of it keep their own statuses — and the refused suffix
// is transparently re-shipped by value as one ordinary batch (replica
// seq-dedupe makes the overlap safe, and the queued frames were
// retained exactly for this).
//
// An entry's outcome is one of three. Delivered: traffic is counted
// only then, so PayloadBytes/WireBytes measure what the replica
// actually acknowledged, and the dedupe index learns the replica holds
// the content. Diverged: detected corruption at one block, not a
// transport failure — retrying the same frame cannot help and degrading
// the whole replica would be overkill — so the LBA lands in the pipe's
// dirty map for a ranged resync and the write stays successful. Not
// delivered (transport failure past the retry budget, or any other
// refusal): the LBA is dirty-mapped, and either the replica degrades
// (AllowDegraded: the frames count as dropped and the writes stay
// successful) or the error is the settlement. DirtyRanges therefore
// always names exactly what recovery must re-ship.
//
// A GroupMode pipe carries one unit of each write down exactly this
// path: RS is linear over XOR, so the XOR of two writes' delta units is
// the delta unit of the combined delta, and units coalesce exactly like
// whole-block parities. A dropped or diverged entry settles a
// synchronous writer with its error, and await decides what that costs
// (nothing to a mirror, one unit of a group's quorum); in async mode it
// settles nil: the dirty maps and lag gauges carry the signal, and
// AllowDegraded's contract (writes keep succeeding; heal via Drain →
// repair → ClearDegraded) holds for groups too.
//
// On an async pipe, a run that came off a backlog may ship as a
// squeezed list, as the pipe's gate says (squeeze.go); each entry of a
// squeezed push is then accounted at its share of the push's bytes
// (shareSqueeze), in the push that delivered it.
//
// Every counter is booked before any message is finished: finish drops
// the replica's pending count (so Drain returns and a caller reads the
// counters) and releases the pooled frame the accounting reads the
// length of.
func (e *Engine) process(p *pipe, msgs []repMsg, backlog bool) {
	rs := p.rs
	degraded := rs.degraded.Load()
	if p.batches && !degraded { // a degraded pipe's run never reaches the wire
		p.m.Add(metrics.Bucket(len(msgs)), 1)
	}
	single := !p.batches || (len(msgs) == 1 && rs.dedupe == nil)

	var one [1]batchGroup
	groups := one[:0] // a run of one stays off the heap
	if len(msgs) > 1 {
		groups = make([]batchGroup, 0, len(msgs))
	}
	if degraded || single || e.cfg.Mode != ModePRINS {
		groups = plainGroups(groups, msgs)
	} else {
		groups = e.coalesce(groups, msgs)
		if merged := int64(len(msgs) - len(groups)); merged > 0 {
			p.m.Add(metrics.Coalesced, merged)
		}
	}

	// Deliver. wire is the modelled cost of what went out; listed says
	// a status vector came back, so the run is booked as a batch.
	var wire int64
	listed := false
	switch {
	case degraded:
		for k := range groups {
			groups[k].err = errDropped
		}
	case single:
		m := &msgs[0]
		if _, _, err := e.push(p, m, nil, 0, false); err != nil {
			groups[0].err = fmt.Errorf("core: replicate seq %d lba %d: %w", m.seq, m.lba, err)
		}
	default:
		entries := make([]iscsi.BatchEntry, len(groups))
		for k := range groups {
			entries[k] = groups[k].entry
			// Consult the dedupe index: content the replica is believed
			// to already hold ships by reference. A zero hash (unverified
			// push) never hits: there is nothing to address it by.
			if h := entries[k].Hash; rs.dedupe != nil && h != 0 && rs.dedupe.Contains(h) {
				groups[k].ref = true
				entries[k].Frame, entries[k].Mask = nil, nil
			}
		}
		// A backlog run on an async pipe is the gate's: squeezed or not
		// as it says.
		plain := iscsi.BatchWireLen(entries)
		var sr squeezeRun
		if backlog && p.sq != nil {
			sr = p.sq.begin(entries, plain)
		}
		statuses, sent, err := e.push(p, nil, entries, plain, sr.squeezed)
		listed = err == nil
		wire = pduWire(sent)
		shareSqueeze(groups, entries, squeezeSaved(sr.squeezed, plain, sent))
		for k := range groups {
			groups[k].first = groups[k].squeezed
		}
		missAt := len(groups)
		for k, st := range statuses {
			if st == iscsi.StatusRefMiss {
				missAt = k
				break
			}
		}
		// A push that went through teaches the gate what its list's
		// bytes came to; a failed one teaches nothing.
		if sr.end(err == nil, sent.Last()) {
			p.m.Add(metrics.SqueezeSwitches, 1)
		}
		var fberr error
		if missAt < len(groups) {
			// Everything from the first refusal was refused unapplied and
			// re-ships by value. Only that first refusal is a genuine miss
			// verdict — the rest of the suffix is refused unexamined, so
			// the whole repair is one push — so only its hash is provably
			// stale. A squeezed run's re-ship starts its stream's history
			// over.
			if groups[missAt].ref {
				rs.dedupe.ForgetHash(entries[missAt].Hash)
			}
			for k := missAt; k < len(groups); k++ {
				groups[k].reshipped = true
				entries[k] = groups[k].entry
			}
			if sr.squeezed {
				e.resetSqueeze(p)
			}
			suffix := entries[missAt:]
			splain := iscsi.BatchWireLen(suffix)
			fstat, fsent, ferr := e.push(p, nil, suffix, splain, sr.squeezed)
			if ferr != nil {
				fberr = fmt.Errorf("core: by-ref fallback batch of %d: %w", len(groups)-missAt, ferr)
			} else {
				copy(statuses[missAt:], fstat)
				wire += pduWire(fsent)
				shareSqueeze(groups[missAt:], suffix, squeezeSaved(sr.squeezed, splain, fsent))
			}
		}
		for k := range groups {
			g := &groups[k]
			switch {
			case err != nil:
				// Transport-level failure: the replica acknowledged nothing.
				g.err = fmt.Errorf("core: replicate batch of %d: %w", len(entries), err)
			case k >= missAt && fberr != nil:
				g.err = fberr
			case statuses[k] != iscsi.StatusOK:
				g.err = fmt.Errorf("core: replicate seq %d lba %d: %w",
					g.entry.Seq, g.entry.LBA, iscsi.ReplicaStatusErr(g.entry.LBA, statuses[k]))
			}
		}
	}

	// Settle each entry on its own outcome. okMsgs counts settled source
	// messages, not wire entries, so Replicated keeps the "logical
	// pushes delivered" meaning the Replicated+Dropped accounting
	// identity depends on. unbatchedOK is what shipping each DELIVERED
	// original frame as its own PDU would have cost, coalescing elisions
	// included — a coalesced-then-refused entry saved nothing, since its
	// frames were never shipped at all. Dedupe savings are delivered-only
	// too: an entry must finally land before its elided frame counts as
	// saved, and the overhead of failed reference attempts is charged
	// against the saving, so a miss storm reads negative rather than
	// flattering.
	var okMsgs int
	var payload, unbatchedOK, dHits, dMisses, dSaved, squeezed, sqSaved, dropped int64
	for k := range groups {
		g := &groups[k]
		if g.ref && g.reshipped {
			dMisses++
		}
		switch {
		case g.err == nil:
			okMsgs += len(g.msgs)
			frameCost := int64(len(g.entry.Frame) - g.squeezed) // its share of a squeezed push, where one shipped it
			if g.streamed {
				squeezed++
				sqSaved += int64(g.squeezed)
			}
			switch {
			case g.ref && !g.reshipped:
				// Delivered as a reference: the frame stayed home. A
				// squeezed push's share of the reference is the squeeze's
				// saving, not dedupe's.
				dHits++
				dSaved += int64(len(g.entry.Frame))
			case g.ref:
				// Fallback re-ship: the first attempt's reference was
				// pure overhead.
				payload += frameCost
				dSaved -= firstHeaderLen(groups, k)
			case g.reshipped:
				// A by-value entry dragged into the refused suffix: its
				// whole first attempt was overhead.
				payload += frameCost
				dSaved -= firstHeaderLen(groups, k) + int64(len(g.entry.Frame)-g.first)
			default:
				payload += frameCost
			}
			if rs.dedupe != nil {
				// The replica acknowledged holding this content at this
				// LBA: future ships of the same content can go by-ref.
				rs.dedupe.Put(g.entry.LBA, g.entry.Hash)
			}
			for _, m := range g.msgs {
				unbatchedOK += int64(wan.WireBytesDiscrete(len(m.frame.frame())))
			}
		case errors.Is(g.err, iscsi.ErrDiverged):
			p.markDirty(g.entry.LBA)
			p.m.Add(metrics.Diverged, 1)
			if e.cfg.Async {
				g.err = nil
			}
		default:
			p.markDirty(g.entry.LBA)
			if !degraded && !e.cfg.AllowDegraded {
				break
			}
			if !degraded {
				rs.degrade()
				for _, q := range rs.pipes {
					e.resetSqueeze(q)
				}
			}
			dropped += int64(len(g.msgs)) // all at the LBA just marked dirty
			g.err = nil
			if !e.cfg.Async {
				g.err = errDropped
			}
		}
	}

	// Book the run on the pipe's bank. Batch wire accounting covers every
	// entry the replica processed (matching the single-frame convention
	// of modelling the data segment, not the PDU header), and what the
	// squeeze took off the frames is its own saving, not batching's. A
	// run that was not listed put one frame on the wire as its own PDU,
	// or delivered nothing, and then every sum but dropped is zero.
	if listed {
		p.m.Add(metrics.Batches, 1)
		p.m.Add(metrics.BatchSaved, unbatchedOK-wire-sqSaved)
	} else {
		wire = unbatchedOK
	}
	p.m.Add(metrics.Shipped, int64(okMsgs))
	p.m.Add(metrics.PayloadBytes, payload)
	p.m.Add(metrics.WireBytes, wire)
	p.m.Add(metrics.Squeezed, squeezed)
	p.m.Add(metrics.SqueezeSaved, sqSaved)
	p.m.Add(metrics.DedupeHits, dHits)
	p.m.Add(metrics.DedupeMisses, dMisses)
	p.m.Add(metrics.DedupeSaved, dSaved)
	// A dropped frame is one more the replica is behind: the replica's
	// lag is its pipes' sum, the engine's the worst replica's (see
	// metrics.Counts.Merge).
	p.m.Add(metrics.Dropped, dropped)
	p.m.Add(metrics.Lag, dropped)

	for k := range groups {
		for _, m := range groups[k].msgs {
			e.finish(rs, m, groups[k].err)
		}
	}
}

// pduWire is the modelled wire cost of a push that sent the PDUs sent
// lists: each one's data segment with its own packet headers.
func pduWire(sent iscsi.Sent) int64 {
	var wire int64
	for _, n := range sent.Seg[:sent.N] {
		wire += int64(wan.WireBytesDiscrete(n))
	}
	return wire
}

// squeezeSaved is what squeezing took off a list push whose plain list
// is plain bytes and which sent the PDUs sent lists: none for a push
// not asked to squeeze, whose verb may ship a list of one as a shorter
// single-frame push (see push).
func squeezeSaved(squeezed bool, plain int, sent iscsi.Sent) int {
	if !squeezed {
		return 0
	}
	return plain - sent.Total()
}

// shareSqueeze attributes what squeezing took off one list push, saved
// bytes (the plain list's data segment less the squeezed one's; none
// when the push shipped plain, or squeezed and then plain), to the
// entries of the push: a squeezed list streams every entry, header and
// frame, so each takes a share in proportion to what it cost the plain
// list. The shares are cut from running totals, so they add up to saved
// exactly.
func shareSqueeze(groups []batchGroup, entries []iscsi.BatchEntry, saved int) {
	for k := range groups {
		groups[k].streamed, groups[k].squeezed = false, 0
	}
	if saved <= 0 {
		return
	}
	total := 0
	var prev *iscsi.BatchEntry
	for k := range entries {
		total += iscsi.EntryHeaderLen(prev, &entries[k]) + len(entries[k].Frame)
		prev = &entries[k]
	}
	cum, given := 0, 0
	prev = nil
	for k := range entries {
		cum += iscsi.EntryHeaderLen(prev, &entries[k]) + len(entries[k].Frame)
		prev = &entries[k]
		share := saved*cum/total - given
		given += share
		groups[k].streamed, groups[k].squeezed = true, share
	}
}

// firstHeaderLen is the entry header groups[k] cost in its run's first
// push, where it followed groups[k-1] and a reference carried no frame.
func firstHeaderLen(groups []batchGroup, k int) int64 {
	var prev *iscsi.BatchEntry
	if k > 0 {
		prev = &groups[k-1].entry
	}
	e := groups[k].entry
	if groups[k].ref {
		e.Frame = nil
	}
	return int64(iscsi.EntryHeaderLen(prev, &e))
}

// finish settles one queued message exactly once: report the delivery
// result (to the waiting writer in sync mode, to the sticky
// per-replica error in async mode), release its frame reference, and
// retire it from the pending count.
func (e *Engine) finish(rs *replicaState, msg repMsg, err error) {
	if msg.ack != nil {
		msg.ack <- err
	} else if err != nil {
		rs.setErr(err)
	}
	msg.frame.release(1)
	rs.pending.Done()
}

// push performs the delivery attempts for one wire push under the
// retry policy — the only retry loop — and picks the verb. one, when
// set, ships a single frame as the plain replica-write op on this
// pipe's (vol, shard) stream, zero-copy when the client supports
// framed sends and this pipeline holds the pooled buffer exclusively
// (refs == 1: every other replica's shipper already released its
// reference, and the pool cannot reuse the buffer while we still hold
// ours) — the client stamps the header into the buffer's headroom and
// writes it whole; the bytes on the wire are identical either way.
// Otherwise entries ship as one list, references and all: the client
// picks the opcode from the content.
//
// squeeze ships the list through the client's compressing extension;
// sent is the data segment of every PDU the push put on the wire (see
// SqueezeReplicaClient), one PDU of plain bytes for the other verbs,
// and plain is what the list costs
// plain (iscsi.BatchWireLen), which its caller has already counted. A
// plain list of one by-value entry goes out as a single-frame push, the
// frame alone: that is what iscsi's batch verbs make of it.
//
// Transport failures retry the whole push — entries the replica
// already applied dedupe by seq in the stream's window and come back
// StatusOK, so redelivery cannot double-XOR — while per-entry refusals
// ride the returned status vector and are never retried here. A
// diverged refusal of a single frame short-circuits the loop the same
// way: the replica verified the frame against its own block and said
// no — redelivering the identical frame is deterministic failure, not
// transient loss.
func (e *Engine) push(p *pipe, one *repMsg, entries []iscsi.BatchEntry, plain int, squeeze bool) (statuses []iscsi.Status, sent iscsi.Sent, err error) {
	rs, mode := p.rs, uint8(e.cfg.Mode)
	shard, vol := e.streamTag(p)
	if len(entries) == 1 && !entries[0].ByRef() && !squeeze {
		plain = len(entries[0].Frame) // the batch verbs ship a list of one as a single-frame push
	}
	for attempt := 1; ; attempt++ {
		sent = iscsi.SentOne(plain)
		switch {
		case one != nil && rs.framed != nil && one.frame.refs.Load() == 1:
			err = rs.framed.ReplicaWriteFramed(mode, shard, vol, one.seq, one.lba, one.hash, one.frame.buf)
		case one != nil:
			err = rs.client.ReplicaWriteStream(mode, shard, vol, one.seq, one.lba, one.hash, one.frame.frame())
		case squeeze:
			statuses, sent, err = rs.squeeze.ReplicaWriteSqueezed(mode, shard, vol, entries)
		default:
			statuses, err = rs.lists.ReplicaWriteBatchStream(mode, shard, vol, entries)
		}
		if err == nil || errors.Is(err, iscsi.ErrDiverged) || attempt >= e.retry.Attempts {
			return statuses, sent, err
		}
		p.m.Add(metrics.Retries, 1)
		if d := e.retry.backoff(attempt); d > 0 {
			e.retry.Sleep(d)
		}
	}
}

// coalesce folds a drained ModePRINS run into wire entries, appended to
// groups. Same-LBA parities XOR-merge into one frame — P'1 xor P'2 is
// the combined delta of back-to-back writes — and the merged entry
// keeps the LAST message's seq and hash: the hash describes the block
// after the newest write, and the newest seq keeps the replica's
// dedupe monotonic. Entries are then sorted by seq, because a merged
// entry carries a later seq than frames queued after its first
// appearance; shipping in first-appearance order could put that higher
// seq ahead of a lower one and trip the replica's dedupe into silently
// dropping a batch-mate. (Other modes ship one entry per message
// unmerged: a whole-block frame already supersedes its predecessors,
// and dropping one would skip its ack.)
func (e *Engine) coalesce(groups []batchGroup, msgs []repMsg) []batchGroup {
	idx := make(map[uint64]int, len(msgs)) // lba -> open group index
	parities := make(map[int][]byte)       // group index -> decoded XOR accumulator
	size := e.GroupUnitSize()              // what every frame decodes to: the unit, or the block
	if size == 0 {
		size = e.local.BlockSize()
	}
	for i := range msgs {
		m := &msgs[i]
		gi, seen := idx[m.lba]
		if !seen {
			idx[m.lba] = len(groups)
			groups = append(groups, singleGroup(msgs[i:i+1:i+1]))
			continue
		}
		// Fold this parity into the group's accumulator: zero runs
		// skipped, only the changed bytes touched. A frame that will not
		// decode or fold (cannot happen for frames we encoded ourselves)
		// may leave the accumulator half-folded, so the whole run ships
		// uncoalesced — the replica applies same-LBA entries in seq order
		// regardless. The accumulator is sized by the engine, not by what
		// the first frame declares, so a frame of any other size is
		// refused rather than sized from.
		acc, err := parities[gi], error(nil)
		if acc == nil {
			acc = make([]byte, size)
			err = xcode.DecodeInto(acc, groups[gi].entry.Frame)
		}
		if err == nil {
			err = xcode.XORInto(acc, m.frame.frame())
		}
		if err != nil {
			return plainGroups(groups[:0], msgs)
		}
		parities[gi] = acc
		g := &groups[gi]
		g.entry.Seq, g.entry.Hash = m.seq, m.hash
		g.msgs = append(g.msgs, *m)
	}
	for gi, acc := range parities {
		g := &groups[gi]
		var err error
		if g.entry.Frame, g.entry.Mask, g.entry.Check, err = mergedFrames(acc, g.msgs); err != nil {
			// Cannot happen for a block we decoded; rather than ship a
			// wrong frame, fall back to the uncoalesced batch.
			return plainGroups(groups[:0], msgs)
		}
	}
	slices.SortFunc(groups, func(a, b batchGroup) int { return cmp.Compare(a.entry.Seq, b.entry.Seq) })
	return groups
}

// mergedFrames encodes a coalesced group's merged parity acc, and a
// masked twin with its check when every member has a twin. The
// members' twins, landed on each other in seq order, hold the block
// after the group's last write at every byte some member's frame
// carried as a literal, which covers every byte the merged parity
// changed, but not the zero gaps a ZRL frame absorbs between changes,
// whose new value the primary no longer holds. So the twin is made from
// the merged parity's exact frame (xcode.EncodeExact: only changed
// bytes for literals), and its check hashes that frame; the frame that
// ships plain is the usual one. A group with a member without a twin,
// or whose frame is raw-floored, gets no twin.
func mergedFrames(acc []byte, members []repMsg) (frame, twin []byte, check uint64, err error) {
	frame, err = xcode.EncodeBest(acc, xcode.CodecZRL)
	if err != nil || xcode.Codec(frame[0]) != xcode.CodecZRL ||
		slices.ContainsFunc(members, func(m repMsg) bool { return len(m.frame.twin) == 0 }) {
		return frame, nil, 0, err
	}
	exact, err := xcode.EncodeExact(acc)
	if err != nil || xcode.Codec(exact[0]) != xcode.CodecZRL {
		return frame, nil, 0, err
	}
	over := make([]byte, len(acc))
	var rebuilt []byte
	for _, m := range members {
		if rebuilt, err = xcode.MaskInto(over, m.frame.twin, rebuilt[:0]); err != nil {
			return nil, nil, 0, err
		}
	}
	if twin, err = xcode.AppendMask(nil, exact, over); err != nil {
		return nil, nil, 0, err
	}
	return frame, twin, members[len(members)-1].hash ^ iscsi.HashBlock(exact), nil
}
