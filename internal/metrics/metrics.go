// Package metrics provides the atomic counters the replication engines
// use to account for replication traffic — the quantity every figure in
// the paper's evaluation measures. Counters distinguish raw payload
// bytes from modelled wire bytes (payload plus per-packet protocol
// headers) so both the measured figures (4-7) and the queueing model
// inputs (8-10) come from one source.
package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Traffic accumulates replication statistics for one engine. The zero
// value is ready to use. All methods are safe for concurrent use.
type Traffic struct {
	writes        atomic.Int64 // block writes intercepted
	replicated    atomic.Int64 // replication messages delivered
	skipped       atomic.Int64 // writes skipped (no-change parity)
	payloadBytes  atomic.Int64 // encoded payload bytes delivered
	wireBytes     atomic.Int64 // payload + modelled packet headers
	rawBytes      atomic.Int64 // block bytes that traditional would ship
	encodeNanos   atomic.Int64 // time in parity+encode
	decodeNanos   atomic.Int64 // time in decode+backward parity (replica)
	replicaWrites atomic.Int64 // in-place writes applied at a replica
	retries       atomic.Int64 // replication delivery retries
	dropped       atomic.Int64 // frames dropped across all degraded replicas
	replicaLag    atomic.Int64 // gauge: frames the most-lagged replica is behind
	duplicates    atomic.Int64 // duplicate pushes deduplicated at a replica
	diverged      atomic.Int64 // verified applies a replica refused (hash mismatch)
	batches       atomic.Int64 // multi-frame batch PDUs delivered
	coalesced     atomic.Int64 // frames XOR-merged away inside batches
	batchSaved    atomic.Int64 // modelled wire bytes saved vs single-frame shipping

	dedupeHits   atomic.Int64 // pushes shipped (or applied) by content reference
	dedupeMisses atomic.Int64 // by-ref pushes refused (ref miss) and fallen back
	dedupeSaved  atomic.Int64 // modelled wire bytes saved by shipping by reference

	// batchHist is the frames-per-delivery histogram of the batching
	// shippers, power-of-two buckets: 1, 2, ≤4, ≤8, ≤16, ≤32, ≤64, >64.
	batchHist [BatchHistBuckets]atomic.Int64

	// shards, when attached, holds the per-shard counter banks the
	// sharded engine's write path bumps instead of the shared counters
	// above. Snapshot folds the banks into the engine-wide totals, so
	// readers see one view while writers never share a cache line.
	shards atomic.Pointer[ShardSet]
}

// AttachShards hands Traffic the per-shard counter banks to fold into
// its totals on Snapshot. The engine attaches its ShardSet once at
// construction; per-shard Writes/RawBytes/Skipped/EncodeTime then live
// only in the banks.
func (t *Traffic) AttachShards(s *ShardSet) { t.shards.Store(s) }

// BatchHistBuckets is the number of power-of-two buckets in the
// frames-per-batch histogram: 1, 2, ≤4, ≤8, ≤16, ≤32, ≤64, >64.
const BatchHistBuckets = 8

// AddWrite records one intercepted block write of blockBytes.
func (t *Traffic) AddWrite(blockBytes int) {
	t.writes.Add(1)
	t.rawBytes.Add(int64(blockBytes))
}

// AddReplicated records one successfully delivered replication message
// of payloadBytes encoded payload and wireBytes modelled on-the-wire
// size. Failed or dropped deliveries are never counted here — they go
// through AddDropped — so PayloadBytes/WireBytes measure what actually
// crossed the wire and was acknowledged.
func (t *Traffic) AddReplicated(payloadBytes, wireBytes int) {
	t.replicated.Add(1)
	t.payloadBytes.Add(int64(payloadBytes))
	t.wireBytes.Add(int64(wireBytes))
}

// AddSkipped records a write whose parity was all zeros, which the
// engine did not ship.
func (t *Traffic) AddSkipped() { t.skipped.Add(1) }

// AddEncodeTime accumulates primary-side compute time.
func (t *Traffic) AddEncodeTime(d time.Duration) { t.encodeNanos.Add(int64(d)) }

// AddDecodeTime accumulates replica-side compute time.
func (t *Traffic) AddDecodeTime(d time.Duration) { t.decodeNanos.Add(int64(d)) }

// AddReplicaWrite records one in-place write applied at a replica.
func (t *Traffic) AddReplicaWrite() { t.replicaWrites.Add(1) }

// AddRetry records one re-delivery attempt of a replication frame.
func (t *Traffic) AddRetry() { t.retries.Add(1) }

// AddDropped records one frame not delivered because its replica was
// degraded. The ReplicaLag gauge is maintained separately (see
// RaiseReplicaLag): summing drops across replicas would overstate how
// far behind any one replica is.
func (t *Traffic) AddDropped() { t.dropped.Add(1) }

// RaiseReplicaLag lifts the lag gauge to v if it is currently lower.
// The engine calls it with each replica's own lag after a drop, so the
// gauge always reads the worst (max) per-replica lag — the gap resync
// must close before the slowest replica is current again — rather than
// a sum across replicas.
func (t *Traffic) RaiseReplicaLag(v int64) {
	for {
		cur := t.replicaLag.Load()
		if v <= cur || t.replicaLag.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ResetReplicaLag zeroes the lag gauge — called once a resync has
// re-established the replica (Dropped stays as the historical total).
func (t *Traffic) ResetReplicaLag() { t.replicaLag.Store(0) }

// AddDuplicate records a pushed frame the replica had already applied
// (a retried delivery whose first copy succeeded) and deduplicated.
func (t *Traffic) AddDuplicate() { t.duplicates.Add(1) }

// AddDiverged records a verified apply a replica refused because the
// recovered block failed the shipped content hash — detected
// corruption, repaired later by a ranged resync of the dirty region.
func (t *Traffic) AddDiverged() { t.diverged.Add(1) }

// AddBatch records one delivered multi-frame batch PDU: frames queued
// messages acknowledged OK (coalesced messages count individually, so
// Replicated keeps meaning "logical pushes delivered"), their encoded
// payload bytes, the batch's modelled wire bytes, and the wire bytes
// saved versus shipping each frame as its own PDU. saved can dip
// negative for frames sitting just under a packet boundary, where the
// per-entry headers cost more than the saved packets; it is recorded
// as-is so the gauge stays honest.
func (t *Traffic) AddBatch(frames int, payloadBytes, wireBytes, saved int64) {
	t.batches.Add(1)
	t.replicated.Add(int64(frames))
	t.payloadBytes.Add(payloadBytes)
	t.wireBytes.Add(wireBytes)
	t.batchSaved.Add(saved)
}

// AddCoalesced records n frames XOR-merged away inside batches (hot
// same-LBA parities combined into one wire frame).
func (t *Traffic) AddCoalesced(n int64) { t.coalesced.Add(n) }

// AddDedupeHit records one push shipped (primary) or materialized
// (replica) by content reference instead of a frame.
func (t *Traffic) AddDedupeHit() { t.dedupeHits.Add(1) }

// AddDedupeMiss records one by-ref push the replica could not resolve
// (StatusRefMiss) — on the primary, the entry was re-shipped by value.
func (t *Traffic) AddDedupeMiss() { t.dedupeMisses.Add(1) }

// AddDedupe records the dedupe outcome of one primary push in one
// call; see Replica.AddDedupe for the field semantics (saved is the
// modelled wire bytes the references saved net of fallback re-ships,
// and may be negative).
func (t *Traffic) AddDedupe(hits, misses, saved int64) {
	t.dedupeHits.Add(hits)
	t.dedupeMisses.Add(misses)
	t.dedupeSaved.Add(saved)
}

// ObserveBatch records one shipper delivery of n frames in the
// frames-per-batch histogram (single-frame deliveries included, so the
// histogram shows how often batching actually engages).
func (t *Traffic) ObserveBatch(n int) {
	b := 0
	for b < BatchHistBuckets-1 && n > 1<<b {
		b++
	}
	t.batchHist[b].Add(1)
}

// Snapshot is a consistent-enough point-in-time copy of the counters.
type Snapshot struct {
	Writes        int64
	Replicated    int64
	Skipped       int64
	PayloadBytes  int64
	WireBytes     int64
	RawBytes      int64
	EncodeTime    time.Duration
	DecodeTime    time.Duration
	ReplicaWrites int64
	Retries       int64
	Dropped       int64
	ReplicaLag    int64
	Duplicates    int64
	Diverged      int64
	Batches       int64
	Coalesced     int64
	// BatchSavedWire is the modelled wire bytes batching saved versus
	// single-frame shipping.
	BatchSavedWire int64
	// DedupeHits counts pushes shipped/applied by content reference,
	// DedupeMisses the by-ref pushes that missed and fell back, and
	// DedupeSavedWire the modelled wire bytes the references saved.
	DedupeHits      int64
	DedupeMisses    int64
	DedupeSavedWire int64
	// FramesPerBatch is the delivery-size histogram; see ObserveBatch.
	FramesPerBatch [BatchHistBuckets]int64
}

// Snapshot returns the current counter values.
func (t *Traffic) Snapshot() Snapshot {
	s := Snapshot{
		Writes:         t.writes.Load(),
		Replicated:     t.replicated.Load(),
		Skipped:        t.skipped.Load(),
		PayloadBytes:   t.payloadBytes.Load(),
		WireBytes:      t.wireBytes.Load(),
		RawBytes:       t.rawBytes.Load(),
		EncodeTime:     time.Duration(t.encodeNanos.Load()),
		DecodeTime:     time.Duration(t.decodeNanos.Load()),
		ReplicaWrites:  t.replicaWrites.Load(),
		Retries:        t.retries.Load(),
		Dropped:        t.dropped.Load(),
		ReplicaLag:     t.replicaLag.Load(),
		Duplicates:     t.duplicates.Load(),
		Diverged:       t.diverged.Load(),
		Batches:        t.batches.Load(),
		Coalesced:      t.coalesced.Load(),
		BatchSavedWire: t.batchSaved.Load(),

		DedupeHits:      t.dedupeHits.Load(),
		DedupeMisses:    t.dedupeMisses.Load(),
		DedupeSavedWire: t.dedupeSaved.Load(),
	}
	for i := 0; i < BatchHistBuckets; i++ {
		s.FramesPerBatch[i] = t.batchHist[i].Load()
	}
	if banks := t.shards.Load(); banks != nil {
		for _, b := range banks.Snapshot() {
			s.Writes += b.Writes
			s.Skipped += b.Skipped
			s.RawBytes += b.RawBytes
			s.EncodeTime += b.EncodeTime
		}
	}
	return s
}

// Reset zeroes all counters.
func (t *Traffic) Reset() {
	t.writes.Store(0)
	t.replicated.Store(0)
	t.skipped.Store(0)
	t.payloadBytes.Store(0)
	t.wireBytes.Store(0)
	t.rawBytes.Store(0)
	t.encodeNanos.Store(0)
	t.decodeNanos.Store(0)
	t.replicaWrites.Store(0)
	t.retries.Store(0)
	t.dropped.Store(0)
	t.replicaLag.Store(0)
	t.duplicates.Store(0)
	t.diverged.Store(0)
	t.batches.Store(0)
	t.coalesced.Store(0)
	t.batchSaved.Store(0)
	t.dedupeHits.Store(0)
	t.dedupeMisses.Store(0)
	t.dedupeSaved.Store(0)
	for i := 0; i < BatchHistBuckets; i++ {
		t.batchHist[i].Store(0)
	}
	if banks := t.shards.Load(); banks != nil {
		banks.reset()
	}
}

// MeanPayload returns the mean encoded payload bytes per replication
// message — the S_d the queueing model needs per technique.
func (s Snapshot) MeanPayload() float64 {
	if s.Replicated == 0 {
		return 0
	}
	return float64(s.PayloadBytes) / float64(s.Replicated)
}

// SavingsVsRaw returns how many times smaller the shipped payload is
// than the raw block bytes (the traditional baseline), e.g. 51.5 means
// "51.5 times less data".
func (s Snapshot) SavingsVsRaw() float64 {
	if s.PayloadBytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.PayloadBytes)
}

// String renders a compact summary.
func (s Snapshot) String() string {
	return fmt.Sprintf("writes=%d replicated=%d skipped=%d payload=%s wire=%s raw=%s mean=%0.0fB",
		s.Writes, s.Replicated, s.Skipped,
		FormatBytes(s.PayloadBytes), FormatBytes(s.WireBytes), FormatBytes(s.RawBytes),
		s.MeanPayload())
}

// Replica accumulates delivery statistics for one attached replica.
// Each replica's shipper pipeline owns one; the engine aggregates them
// into the engine-wide Traffic view. The zero value is ready to use
// and all methods are safe for concurrent use.
type Replica struct {
	shipped      atomic.Int64 // frames delivered and acknowledged
	payloadBytes atomic.Int64 // encoded payload bytes delivered
	wireBytes    atomic.Int64 // payload + modelled packet headers
	retries      atomic.Int64 // delivery retries to this replica
	dropped      atomic.Int64 // frames dropped while degraded (historical total)
	lag          atomic.Int64 // gauge: frames this replica is behind the primary
	diverged     atomic.Int64 // verified applies this replica refused
	batches      atomic.Int64 // multi-frame batch PDUs delivered to this replica
	coalesced    atomic.Int64 // frames XOR-merged away en route to this replica
	batchSaved   atomic.Int64 // modelled wire bytes saved vs single-frame shipping
	dedupeHits   atomic.Int64 // pushes this replica accepted by content reference
	dedupeMisses atomic.Int64 // by-ref pushes this replica refused (ref miss)
	dedupeSaved  atomic.Int64 // wire bytes dedupe saved shipping to this replica
	admitWaits   atomic.Int64 // runs whose admission to the ship window had to wait
	squeezed     atomic.Int64 // entries delivered transcoded ZRL -> ZRL+DEFLATE by the shipper
	squeezeSaved atomic.Int64 // frame bytes that transcoding took off them
	squeezeFlips atomic.Int64 // times a pipe's gate turned squeezing on or off
}

// AddDedupe records the dedupe outcome of one push to this replica:
// hits entries delivered by content reference, misses by-ref entries
// the replica refused (and the primary re-shipped by value), and the
// data-segment bytes the references saved net of the fallback cost.
// Only delivered entries are credited toward saved; a miss storm can
// drive it negative (the references were pure overhead) and it is
// recorded as-is so the gauge stays honest.
func (r *Replica) AddDedupe(hits, misses, saved int64) {
	r.dedupeHits.Add(hits)
	r.dedupeMisses.Add(misses)
	r.dedupeSaved.Add(saved)
}

// AddShipped records one successfully delivered frame.
func (r *Replica) AddShipped(payloadBytes, wireBytes int) {
	r.shipped.Add(1)
	r.payloadBytes.Add(int64(payloadBytes))
	r.wireBytes.Add(int64(wireBytes))
}

// AddBatch records one delivered multi-frame batch PDU to this
// replica; see Traffic.AddBatch for the field semantics.
func (r *Replica) AddBatch(frames int, payloadBytes, wireBytes, saved int64) {
	r.batches.Add(1)
	r.shipped.Add(int64(frames))
	r.payloadBytes.Add(payloadBytes)
	r.wireBytes.Add(wireBytes)
	r.batchSaved.Add(saved)
}

// AddCoalesced records n frames XOR-merged away inside batches bound
// for this replica.
func (r *Replica) AddCoalesced(n int64) { r.coalesced.Add(n) }

// AddRetry records one re-delivery attempt to this replica.
func (r *Replica) AddRetry() { r.retries.Add(1) }

// AddAdmitWait records one run that could not join a pipe's ship window
// at once: a run still in flight carried one of its LBAs, or the window
// had reached its sequence span.
func (r *Replica) AddAdmitWait() { r.admitWaits.Add(1) }

// AddSqueezed records n entries delivered to this replica as frames the
// shipper squeezed (see core's squeeze.go), saved bytes smaller in all
// than as encoded. PayloadBytes and WireBytes already count the squeezed
// frames — they are what the replica acknowledged — and BatchSavedWire
// excludes this saving.
func (r *Replica) AddSqueezed(n, saved int64) {
	r.squeezed.Add(n)
	r.squeezeSaved.Add(saved)
}

// AddSqueezeSwitch records one pipe's gate changing its mind.
func (r *Replica) AddSqueezeSwitch() { r.squeezeFlips.Add(1) }

// AddDropped records one frame not delivered because this replica was
// degraded, advances the replica's lag gauge, and returns the new lag —
// the value the engine feeds into Traffic.RaiseReplicaLag.
func (r *Replica) AddDropped() int64 {
	r.dropped.Add(1)
	return r.lag.Add(1)
}

// AddDiverged records a verified apply this replica refused because
// the recovered block failed the shipped content hash.
func (r *Replica) AddDiverged() { r.diverged.Add(1) }

// Lag returns how many frames this replica is behind the primary.
func (r *Replica) Lag() int64 { return r.lag.Load() }

// ResetLag zeroes the lag gauge after a resync has healed the replica
// (Dropped stays as the historical total).
func (r *Replica) ResetLag() { r.lag.Store(0) }

// ReplicaSnapshot is a point-in-time copy of one replica's counters.
type ReplicaSnapshot struct {
	Shipped      int64
	PayloadBytes int64
	WireBytes    int64
	Retries      int64
	Dropped      int64
	Lag          int64
	Diverged     int64
	Batches      int64
	Coalesced    int64
	// BatchSavedWire is the modelled wire bytes batching saved for this
	// replica versus single-frame shipping.
	BatchSavedWire int64
	// DedupeHits counts pushes delivered to this replica by content
	// reference, DedupeMisses the by-ref pushes it refused, and
	// DedupeSavedWire the data-segment bytes the references saved.
	DedupeHits      int64
	DedupeMisses    int64
	DedupeSavedWire int64
	// AdmitWaits counts runs that waited for an in-flight run to land
	// before they could ship: what keeping same-LBA parities in order,
	// and every in-flight seq inside the replica's dedupe window, costs
	// a synchronous pipeline. Always zero on an async engine.
	AdmitWaits int64
	// Squeezed counts entries this replica acknowledged as frames the
	// shipper transcoded from ZRL to ZRL+DEFLATE on a backlogged async
	// pipe, SqueezeSavedWire the frame bytes that took off the wire, and
	// SqueezeSwitches how often a pipe's gate turned squeezing on or off
	// (a handful over a pipe's life is the gate learning its link; a
	// steady climb is a gate flapping).
	Squeezed         int64
	SqueezeSavedWire int64
	SqueezeSwitches  int64
}

// Snapshot returns the current per-replica counter values.
func (r *Replica) Snapshot() ReplicaSnapshot {
	return ReplicaSnapshot{
		Shipped:        r.shipped.Load(),
		PayloadBytes:   r.payloadBytes.Load(),
		WireBytes:      r.wireBytes.Load(),
		Retries:        r.retries.Load(),
		Dropped:        r.dropped.Load(),
		Lag:            r.lag.Load(),
		Diverged:       r.diverged.Load(),
		Batches:        r.batches.Load(),
		Coalesced:      r.coalesced.Load(),
		BatchSavedWire: r.batchSaved.Load(),

		DedupeHits:      r.dedupeHits.Load(),
		DedupeMisses:    r.dedupeMisses.Load(),
		DedupeSavedWire: r.dedupeSaved.Load(),

		AdmitWaits: r.admitWaits.Load(),

		Squeezed:         r.squeezed.Load(),
		SqueezeSavedWire: r.squeezeSaved.Load(),
		SqueezeSwitches:  r.squeezeFlips.Load(),
	}
}

// Scrub accumulates background-scrubber statistics: how much of the
// device has been hash-compared, how much divergence was found, and
// how much of it was repaired. The zero value is ready to use and all
// methods are safe for concurrent use.
type Scrub struct {
	passes   atomic.Int64 // completed full scrub passes
	scanned  atomic.Int64 // blocks hash-compared
	diverged atomic.Int64 // blocks found differing
	repaired atomic.Int64 // blocks rewritten to heal divergence
}

// AddPass records one completed scrub pass over the device.
func (s *Scrub) AddPass() { s.passes.Add(1) }

// AddScanned records n blocks hash-compared.
func (s *Scrub) AddScanned(n int64) { s.scanned.Add(n) }

// AddDiverged records n blocks found differing from the primary.
func (s *Scrub) AddDiverged(n int64) { s.diverged.Add(n) }

// AddRepaired records n diverged blocks rewritten.
func (s *Scrub) AddRepaired(n int64) { s.repaired.Add(n) }

// ScrubSnapshot is a point-in-time copy of the scrubber counters.
type ScrubSnapshot struct {
	Passes   int64
	Scanned  int64
	Diverged int64
	Repaired int64
}

// Snapshot returns the current scrub counter values.
func (s *Scrub) Snapshot() ScrubSnapshot {
	return ScrubSnapshot{
		Passes:   s.passes.Load(),
		Scanned:  s.scanned.Load(),
		Diverged: s.diverged.Load(),
		Repaired: s.repaired.Load(),
	}
}

// String renders a compact scrub summary.
func (s ScrubSnapshot) String() string {
	return fmt.Sprintf("passes=%d scanned=%d diverged=%d repaired=%d",
		s.Passes, s.Scanned, s.Diverged, s.Repaired)
}

// FormatBytes renders n in a human unit (KB/MB/GB, powers of 1024).
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/float64(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
