// Package metrics provides the counters the replication engines use to
// account for replication traffic — the quantity every figure in the
// paper's evaluation measures. Counters distinguish raw payload bytes
// from modelled wire bytes (payload plus per-packet protocol headers) so
// both the measured figures (4-7) and the queueing model inputs (8-10)
// come from one source.
//
// There is one counter type, Bank, and every owner of work has its own:
// each shard of a primary engine (the write path), each pipe (one
// shard's ship path to one replica), each replica engine and each
// scrubber. An event is booked once, on the bank of the goroutine that
// saw it; every view — engine-wide, per replica, per shard — is a fold
// of banks into Counts at the moment it is read.
package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Counter names one counter of a Bank.
type Counter int

// The counters. Which bank books which counter is the owner's business:
// a shard books the write path's, a pipe the delivery ones, a replica
// engine the apply ones and a scrubber its audit's.
const (
	Writes      Counter = iota // block writes intercepted
	Skipped                    // writes elided (no-change parity)
	RawBytes                   // block bytes traditional replication would ship
	EncodeNanos                // time in parity+encode

	Shipped         // logical pushes delivered and acknowledged (a coalesced entry counts each source write)
	PayloadBytes    // encoded payload bytes delivered
	WireBytes       // payload + modelled packet headers
	Retries         // delivery retries
	Dropped         // frames dropped while degraded (historical total)
	Lag             // gauge: frames dropped since the replica was last cleared
	Diverged        // verified applies refused (hash mismatch); blocks a scrub found differing
	Batches         // multi-frame list PDUs delivered
	Coalesced       // frames XOR-merged away inside lists
	BatchSaved      // modelled wire bytes saved vs single-frame shipping
	DedupeHits      // pushes shipped (or applied) by content reference
	DedupeMisses    // by-ref pushes refused (ref miss) and fallen back
	DedupeSaved     // modelled wire bytes saved by shipping by reference
	AdmitWaits      // runs whose admission to the ship window had to wait
	Squeezed        // entries delivered in a squeezed list
	SqueezeSaved    // their shares of the bytes squeezing took off their pushes
	SqueezeSwitches // times a pipe's squeeze gate turned on or off

	ReplicaWrites // in-place writes applied at a replica
	DecodeNanos   // time in decode+backward parity (replica)
	Duplicates    // duplicate pushes deduplicated at a replica

	Passes   // completed scrub passes
	Scanned  // blocks a scrub hash-compared
	Repaired // blocks a scrub rewrote

	// FramesPerBatch is the first of the BatchHistBuckets buckets of the
	// frames-per-delivery histogram; see Bucket.
	FramesPerBatch
	numCounters = FramesPerBatch + BatchHistBuckets
)

// BatchHistBuckets is the number of power-of-two buckets in the
// frames-per-batch histogram: 1, 2, ≤4, ≤8, ≤16, ≤32, ≤64, >64.
const BatchHistBuckets = 8

// Bucket returns the histogram counter that one delivery of n frames
// counts in.
func Bucket(n int) Counter {
	b := 0
	for b < BatchHistBuckets-1 && n > 1<<b {
		b++
	}
	return FramesPerBatch + Counter(b)
}

// cacheLine is the padding around a bank's counters, so that two banks
// owned by different goroutines never share a cache line, whatever the
// alignment of the structs they sit in.
const cacheLine = 64

// Bank is one owner's counters. The zero value is ready to use and all
// methods are safe for concurrent use; a bank must not be copied.
type Bank struct {
	_ [cacheLine]byte
	c [numCounters]atomic.Int64
	_ [cacheLine]byte
}

// Add adds n to counter c.
func (b *Bank) Add(c Counter, n int64) { b.c[c].Add(n) }

// Store sets counter c to v: how a gauge is cleared.
func (b *Bank) Store(c Counter, v int64) { b.c[c].Store(v) }

// Counts is a plain copy of a bank's counters, or the total of several:
// the value every view is folded into.
type Counts [numCounters]int64

// Counts returns b's current values.
func (b *Bank) Counts() Counts { return Counts{}.Add(b) }

// Add returns c with b's current values folded in.
func (c Counts) Add(b *Bank) Counts {
	for i := range c {
		c[i] += b.c[i].Load()
	}
	return c
}

// Merge returns the engine-wide c with one replica's totals o folded
// in. Counters sum, but the Lag gauge keeps the larger: the engine is as
// far behind as its worst replica — the gap resync must close before
// the slowest replica is current again — not as the sum of the
// replicas' gaps.
func (c Counts) Merge(o Counts) Counts {
	lag := max(c[Lag], o[Lag])
	for i := range c {
		c[i] += o[i]
	}
	c[Lag] = lag
	return c
}

// Snapshot is a consistent-enough point-in-time copy of an engine's
// counters.
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
	// single-frame shipping. It can dip negative for frames sitting just
	// under a packet boundary, where the per-entry headers cost more than
	// the saved packets.
	BatchSavedWire int64
	// DedupeHits counts pushes shipped/applied by content reference,
	// DedupeMisses the by-ref pushes that missed and fell back, and
	// DedupeSavedWire the modelled wire bytes the references saved.
	DedupeHits      int64
	DedupeMisses    int64
	DedupeSavedWire int64
	// FramesPerBatch is the delivery-size histogram of the batching
	// shippers: how many runs that went on the wire carried 1, 2, ≤4 …
	// >64 frames (single-frame deliveries included, so it shows how
	// often batching actually engages).
	FramesPerBatch [BatchHistBuckets]int64
}

// Snapshot reads c as an engine's traffic view.
func (c Counts) Snapshot() Snapshot {
	s := Snapshot{
		Writes:          c[Writes],
		Replicated:      c[Shipped],
		Skipped:         c[Skipped],
		PayloadBytes:    c[PayloadBytes],
		WireBytes:       c[WireBytes],
		RawBytes:        c[RawBytes],
		EncodeTime:      time.Duration(c[EncodeNanos]),
		DecodeTime:      time.Duration(c[DecodeNanos]),
		ReplicaWrites:   c[ReplicaWrites],
		Retries:         c[Retries],
		Dropped:         c[Dropped],
		ReplicaLag:      c[Lag],
		Duplicates:      c[Duplicates],
		Diverged:        c[Diverged],
		Batches:         c[Batches],
		Coalesced:       c[Coalesced],
		BatchSavedWire:  c[BatchSaved],
		DedupeHits:      c[DedupeHits],
		DedupeMisses:    c[DedupeMisses],
		DedupeSavedWire: c[DedupeSaved],
	}
	copy(s.FramesPerBatch[:], c[FramesPerBatch:])
	return s
}

// Traffic is an engine's traffic view: Snapshot folds the engine's
// banks at the moment it is called.
type Traffic func() Snapshot

// Snapshot returns the current totals.
func (t Traffic) Snapshot() Snapshot { return t() }

// Traffic returns the view of b alone: an owner with one bank.
func (b *Bank) Traffic() Traffic { return func() Snapshot { return b.Counts().Snapshot() } }

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

// ReplicaSnapshot is a point-in-time copy of one replica's counters,
// summed over its pipes.
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
	// reference, DedupeMisses the by-ref pushes it refused (and the
	// primary re-shipped by value), and DedupeSavedWire the data-segment
	// bytes the delivered references saved net of the fallback cost — a
	// miss storm can drive it negative.
	DedupeHits      int64
	DedupeMisses    int64
	DedupeSavedWire int64
	// AdmitWaits counts runs that waited for an in-flight run to land
	// before they could ship: what keeping same-LBA parities in order,
	// and every in-flight seq inside the replica's dedupe window, costs
	// a synchronous pipeline. Always zero on an async engine.
	AdmitWaits int64
	// Squeezed counts entries this replica acknowledged in a squeezed
	// list, the whole entry list in one DEFLATE stream, which a
	// backlogged async pipe ships against its stream's history.
	// SqueezeSavedWire is those entries' shares of the bytes squeezing
	// took off their pushes: a push's saving (its plain list's bytes less
	// its squeezed list's) is split among its entries in proportion to
	// what each cost the plain list, header and frame; PayloadBytes
	// already counts each by-value frame at its length less its share,
	// and BatchSavedWire excludes this saving.
	// SqueezeSwitches is how often a pipe's gate turned squeezing on or
	// off: on when a probe's list came out smaller, off when a squeezed
	// list did not (a handful over a pipe's life is the gate finding
	// what its traffic compresses to; a steady climb is traffic that
	// shrinks on some runs and not on others).
	Squeezed         int64
	SqueezeSavedWire int64
	SqueezeSwitches  int64
}

// ReplicaSnapshot reads c as one replica's view.
func (c Counts) ReplicaSnapshot() ReplicaSnapshot {
	return ReplicaSnapshot{
		Shipped:          c[Shipped],
		PayloadBytes:     c[PayloadBytes],
		WireBytes:        c[WireBytes],
		Retries:          c[Retries],
		Dropped:          c[Dropped],
		Lag:              c[Lag],
		Diverged:         c[Diverged],
		Batches:          c[Batches],
		Coalesced:        c[Coalesced],
		BatchSavedWire:   c[BatchSaved],
		DedupeHits:       c[DedupeHits],
		DedupeMisses:     c[DedupeMisses],
		DedupeSavedWire:  c[DedupeSaved],
		AdmitWaits:       c[AdmitWaits],
		Squeezed:         c[Squeezed],
		SqueezeSavedWire: c[SqueezeSaved],
		SqueezeSwitches:  c[SqueezeSwitches],
	}
}

// ShardSnapshot is a point-in-time copy of one shard's counters.
type ShardSnapshot struct {
	// Writes is the number of block writes routed to this shard.
	Writes int64
	// Skipped counts writes the shard elided because nothing changed.
	Skipped int64
	// Shipped counts frames this shard's pipelines delivered (across
	// all replicas).
	Shipped int64
	// Dropped counts frames this shard's pipelines elided while a
	// replica was degraded.
	Dropped int64
	// RawBytes is the block bytes written to this shard — what
	// traditional replication would ship.
	RawBytes int64
	// EncodeTime is the parity+encode compute time spent on this shard.
	EncodeTime time.Duration
}

// ShardSnapshot reads c as one shard's view.
func (c Counts) ShardSnapshot() ShardSnapshot {
	return ShardSnapshot{
		Writes:     c[Writes],
		Skipped:    c[Skipped],
		Shipped:    c[Shipped],
		Dropped:    c[Dropped],
		RawBytes:   c[RawBytes],
		EncodeTime: time.Duration(c[EncodeNanos]),
	}
}

// ScrubSnapshot is a point-in-time copy of a scrubber's counters: how
// much of the device has been hash-compared, how much divergence was
// found, and how much of it was repaired.
type ScrubSnapshot struct {
	Passes   int64
	Scanned  int64
	Diverged int64
	Repaired int64
}

// ScrubSnapshot reads c as a scrubber's view.
func (c Counts) ScrubSnapshot() ScrubSnapshot {
	return ScrubSnapshot{Passes: c[Passes], Scanned: c[Scanned], Diverged: c[Diverged], Repaired: c[Repaired]}
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
