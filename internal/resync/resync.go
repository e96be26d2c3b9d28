// Package resync repairs a diverged replica without a full copy: it
// compares per-block content hashes between the local (authoritative)
// device and a remote replica, then rewrites only the differing
// blocks. This is the block-device analogue of the rsync algorithm the
// paper discusses as related work, and it is how a PRINS deployment
// re-establishes the A_old precondition after a replica has been
// offline past its replication stream.
//
// A run is one three-stage pipeline over the multiplexed replica
// session (iscsi.Initiator overlaps any number of commands), so it
// moves at the link's pace rather than at one round trip per step. The
// caller's goroutine — the comparer — drives it, and the two stages
// that talk to the replica are each a window.Window of calls it issues
// and settles:
//
//  1. Hash fetches. Each normalized range is cut into Config.Batch
//     sized units from its own start, and one hash command takes the
//     next units, of one range or several, for as long as they fit its
//     Batch blocks: a pass over short scattered ranges pays one command
//     per Batch blocks, not one per range. A range marked Dirty (the
//     engine's dirty map named it: its blocks were written while the
//     replica could not take them) is cut the same way, but its units
//     go out in no command and take no local hashes: the comparer
//     answers them itself, every block differing, in their place in the
//     issue order. A block the replica happens to hold already costs
//     its bytes in a span, where asking would have cost every block 8 B
//     of hashes and the pass a round trip. A DryRun asks about every
//     range, marked or not. For the asked units, the comparer reads and
//     hashes each unit's local blocks first, then issues the command
//     (iscsi.Initiator.ReadHashUnits) carrying each unit's digest of
//     those hashes (iscsi.HashBlock of their big-endian vector), on a
//     window of hashWindow fetches compared in issue order. The replica
//     leaves out of its answer the hashes of every unit whose own
//     hashes digest to the same value, so a clean command costs two
//     bare headers instead of 8 B per block; a unit that differs brings
//     back its hashes, exactly as a unit without a digest would. The
//     replica hashes the commands ahead while the primary hashes the
//     next one, and the link's latency is paid once per window, not
//     once per command.
//  2. Compare. The comparer — the only goroutine that touches Stats or
//     calls Config.Learn — settles the oldest fetch, unit by unit. A
//     unit the digest matched is learned whole from its local hashes. A
//     unit that differs is compared block by block against the
//     replica's hashes, and each differing block is read again (and
//     hashed again) into a repair span; each block of an unasked unit
//     is read, once, and hashed straight into one. A span starts at a
//     differing block and takes every later differing block within
//     maxRunBytes of its start, whatever unit or range it lies in,
//     stepping over the matching blocks and the unscanned gaps between
//     them; it leaves once the comparison has passed that stretch. A span holds copies
//     made at compare time, so the compare buffer is free for the next
//     block while the span is on the wire; a block equal to one the
//     span already holds (the same hash, then the same bytes) is held
//     as a reference to it instead, and ships as a copy.
//  3. Repair. Each span goes out as one iscsi.OpWriteSpan PDU — a
//     presence mask, the list of its copies and one xcode frame of the
//     present blocks that are not copies — on a
//     window of repairWindowRuns spans and repairWindowBytes block
//     bytes, settled in any order. The frame is DEFLATE (floored at
//     raw) when the pass's first differing block shrinks under a
//     Huffman-only probe (xcode.Compressible), and raw otherwise: the
//     probe runs once per pass, because data that does not compress
//     (random, encrypted, already compressed) would pay DEFLATE's CPU
//     on every span for nothing. Spans need no ordering among
//     themselves: they cover disjoint blocks, each frame is
//     self-contained and each write replaces whole blocks. A block is
//     counted and learned only once the comparer settles its span's
//     acknowledged write.
//
// The first error or a cancel stops both issuing stages; the run then
// drains both windows and returns Stats for exactly the acknowledged
// work. Whatever a failed run did land is whole blocks of
// authoritative content, so a rerun over the same ranges converges.
package resync

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"prins/internal/block"
	"prins/internal/iscsi"
	"prins/internal/wan"
	"prins/internal/window"
	"prins/internal/xcode"
)

// Stats reports what a resync did.
type Stats struct {
	// BlocksScanned is how many blocks the run covered: compared against
	// the replica's hashes, or shipped unasked (a Dirty range's).
	BlocksScanned uint64
	// BlocksRepaired is how many blocks were rewritten: those that
	// differed, and every block shipped unasked, including any the
	// replica already held.
	BlocksRepaired uint64
	// HashBytes is the hash bytes the replica sent back: 8 B per block of
	// a unit that differs, 0 for a unit settled by its digest.
	HashBytes int64
	// DataBytes is the block data repaired: BlocksRepaired x block size.
	DataBytes int64
	// SentBytes is what the repair spans carrying DataBytes put in their
	// data segments: the presence masks and the frames, compressed or
	// raw.
	SentBytes int64
	// WireBytes models the total on-the-wire cost (paper packet model)
	// of HashBytes and SentBytes.
	WireBytes int64
	// HashFetches is how many hash commands the replica answered.
	HashFetches int64
	// RepairWrites is how many repair spans the replica acknowledged,
	// one write each, so BlocksRepaired / RepairWrites is the mean
	// number of blocks a span carried.
	RepairWrites int64
}

// FullCopyBytes returns what a naive full resync would have shipped.
func (s Stats) FullCopyBytes(blockSize int) int64 {
	return int64(s.BlocksScanned) * int64(blockSize)
}

// Config tunes a resync run.
type Config struct {
	// Batch is the most blocks one hash command hashes, and the size
	// each range is cut into units at (default 256).
	Batch uint32
	// DryRun compares and counts but repairs nothing.
	DryRun bool
	// Cancel, when non-nil, aborts the run before its next local block
	// read (it is polled per block, not per Batch: a batch of 4096 large
	// blocks is a long time to ignore a cancel): nothing more is hashed
	// or issued — a repair span still being gathered included — the
	// fetches in flight are waited out but not compared, the repair
	// writes in flight are waited out and counted, and Run and RunRanges
	// return ErrCanceled with Stats counting exactly the work completed
	// so far. A nil channel never cancels.
	Cancel <-chan struct{}
	// Learn, when non-nil, is invoked with (lba, content hash) for
	// every block the replica provably holds after the scan: blocks
	// whose hashes already matched, and blocks the run repaired or
	// shipped unasked, once the span is acknowledged. Every call comes
	// from the goroutine that called Run, one at a time. The primary engine feeds this
	// into its per-replica dedupe index (Engine.ReplicaDedupe), so a
	// resync warms the ship-by-reference fast path as a free side effect
	// of the comparison it does anyway. Repairs elided by DryRun are not
	// learned.
	Learn func(lba, hash uint64)
}

func (c Config) withDefaults() Config {
	if c.Batch == 0 {
		c.Batch = 256
	}
	if c.Batch > 4096 {
		c.Batch = 4096
	}
	return c
}

// ErrGeometry reports mismatched device shapes.
var ErrGeometry = errors.New("resync: geometry mismatch")

// ErrCanceled reports a run aborted through Config.Cancel. The Stats
// returned alongside it are consistent: they count exactly the blocks
// compared, and the hash fetches and repair writes answered, before
// the run returned.
var ErrCanceled = errors.New("resync: canceled")

// The pipeline's two windows. They are constants, not Config fields:
// the links this repo models differ by 29x in rate (T1 154.4 KB/s, T3
// 4473.6 KB/s) and one setting serves both, and a knob nobody has a
// second value for is a configuration nobody tests.
const (
	// hashWindow is how many hash fetches are in flight, the one the
	// comparer waits on included. A fetch is a header and its unit list
	// out and a bare header back when every digest matches, up to Batch
	// x 8 B more (2 KiB by default, 32 KiB at the Batch cap) when they
	// do not, so the window holds at most 256 KiB of hashes, and the
	// comparer keeps each fetch's local hashes beside it; eight deep, a
	// whole-device audit pays the link's latency once per 2048 blocks.
	hashWindow = 8

	// maxRunBytes caps the stretch of device one repair span covers, and
	// so the block bytes it carries (a single block larger than the cap
	// still ships, alone): far under iscsi.MaxDataSegment, and small
	// enough that several spans fit the byte window and a long divergent
	// stretch starts leaving while it is still being compared.
	maxRunBytes = 64 << 10

	// repairWindowBytes and repairWindowRuns bound the repair spans in
	// flight. The byte bound counts block bytes, not what a span's frame
	// compressed them to, so it holds for data that does not compress.
	// The link carries a bandwidth-delay product of data per round trip
	// — T3 x 4 ms = 18 KB — so 256 KiB is some fourteen of those and
	// keeps a T3 full even when acknowledgements come back in bursts,
	// while on a T1 it is 1.7 s of line time: the last span issued is
	// acknowledged well inside the 10 s default request timeout. The
	// span count covers isolated small blocks, where bytes never bind:
	// 32 spans of one 512 B block are one T3 bandwidth-delay product.
	repairWindowBytes = 256 << 10
	repairWindowRuns  = 32
)

// Run compares local against the whole remote device and repairs
// remote blocks that differ. local is the source of truth.
func Run(local block.Store, remote *iscsi.Initiator, cfg Config) (Stats, error) {
	return RunRanges(local, remote, cfg, block.Range{Start: 0, Count: local.NumBlocks()})
}

// RunRanges is Run restricted to the given LBA runs — the incremental
// repair path. Fed from Engine.DirtyRanges it heals a replica after a
// drop, divergence, or outage by shipping only the blocks the primary
// knows are suspect, instead of scanning the whole device: those
// ranges are marked Dirty, so their blocks go out without a hash
// exchange. Ranges are normalized (sorted, merged, clamped to the
// device; block.NormalizeRanges) first; an empty set is a successful
// no-op.
func RunRanges(local block.Store, remote *iscsi.Initiator, cfg Config, ranges ...block.Range) (Stats, error) {
	return runRanges(local, remote, cfg, nil, ranges)
}

// runRanges is RunRanges with a second cancel channel beside
// cfg.Cancel: the Scrubber's stop.
func runRanges(local block.Store, remote *iscsi.Initiator, cfg Config, stop <-chan struct{}, ranges []block.Range) (Stats, error) {
	if remote.BlockSize() != local.BlockSize() || remote.NumBlocks() < local.NumBlocks() {
		return Stats{}, fmt.Errorf("%w: local %dx%d, remote %dx%d", ErrGeometry,
			local.NumBlocks(), local.BlockSize(), remote.NumBlocks(), remote.BlockSize())
	}
	if cfg.DryRun {
		// A dry run repairs nothing, so it only counts: it asks about
		// every block, exactly as over ranges nobody marked.
		ranges = slices.Clone(ranges)
		for i := range ranges {
			ranges[i].Dirty = false
		}
	}
	p := &pipeline{
		local: local,
		cfg:   cfg.withDefaults(),
		stop:  stop,
		todo:  block.NormalizeRanges(ranges, local.NumBlocks()),
	}
	p.fetches = window.New(hashWindow, 0, func(f *hashFetch) {
		f.err = remote.ReadHashUnits(&f.HashCmd)
	}, p.fetched)
	p.repairs = window.New(repairWindowRuns, repairWindowBytes, func(s *span) {
		s.sent, s.err = remote.WriteSpan(&s.Span)
	}, p.settle)
	err := p.compare()

	// Whatever ended the comparison, drain both windows: no goroutine
	// outlives the run, and the stats count every command the replica did
	// answer. The first error is the one reported.
	p.fetches.Drain()
	p.repairs.Drain()
	if err == nil {
		err = p.err
	}
	p.stats.WireBytes = int64(wan.WireBytesDiscrete(int(p.stats.HashBytes))) +
		int64(wan.WireBytesDiscrete(int(p.stats.SentBytes)))
	return p.stats, err
}

// canceled reports whether either channel has fired; a nil channel
// never does.
func canceled(cancel, stop <-chan struct{}) bool {
	select {
	case <-cancel:
		return true
	case <-stop:
		return true
	default:
		return false
	}
}

// pipeline is the state of one run. Everything in it belongs to the
// comparer goroutine; a fetch or a span is the command's while it is in
// its window.
type pipeline struct {
	local block.Store
	cfg   Config
	stop  <-chan struct{}
	stats Stats
	err   error // the first repair write that failed

	todo    []block.Range // normalized ranges not yet cut into units
	fetches *window.Window[*hashFetch]
	ahead   []*hashFetch // issued and not yet compared, oldest first; at most hashWindow
	vec     []byte       // a unit's local hashes in wire order, to digest
	spent   []*hashFetch // compared fetches, kept for their buffers

	probed   bool    // the pass's first differing block has been probed
	compress bool    // ... and shrank: spans ship DEFLATE frames
	open     *span   // the span being gathered, not yet issued
	free     []*span // acknowledged spans, kept for their buffers
	repairs  *window.Window[*span]
}

// hashFetch is one hash command: its units, each with its digest and,
// once answered, the replica's hashes (nil when the digest matched),
// and the local hashes of all their blocks, in order, taken before it
// was issued. settled is the comparer's, set when the window hands the
// fetch back. An unasked fetch holds units of Dirty ranges: it is never
// issued, has no hashes either side, and is settled from the start.
type hashFetch struct {
	iscsi.HashCmd
	local   []uint64
	err     error
	settled bool
	unasked bool
}

// span is one repair write: the differing blocks of [LBA, LBA+Blocks)
// its mask marks, copied out of the compare buffer into Data, with
// their LBAs and content hashes, and the data-segment bytes its write
// sent.
type span struct {
	iscsi.Span
	lbas     []uint64
	hashes   []uint64
	distinct []uint32 // the ordinal of each block in Data
	sent     int
	err      error
}

// takes reports whether the differing block at lba joins the span: the
// span's stretch of maxRunBytes of device, counted from its first
// block, reaches it.
func (s *span) takes(lba uint64, blockSize int) bool {
	return (lba-s.LBA+1)*uint64(blockSize) <= maxRunBytes
}

// add puts the differing block at lba, with content data and hash
// hash, into the span: as a copy of the earlier block of the span that
// holds the same bytes, if one does, else into Data.
func (s *span) add(lba uint64, data []byte, hash uint64) {
	i := lba - s.LBA
	if need := iscsi.SpanMaskLen(uint32(i + 1)); len(s.Mask) < need {
		s.Mask = append(s.Mask, make([]byte, need-len(s.Mask))...)
	}
	s.Mask[i/8] |= 1 << (i % 8)
	s.Blocks = uint32(i + 1)
	ordinal := uint32(len(s.hashes))
	s.lbas = append(s.lbas, lba)
	s.hashes = append(s.hashes, hash)
	// The hash finds the candidate; only the bytes make it a copy, so a
	// collision costs a block's bytes, never a wrong block.
	bs := len(data)
	for d, o := range s.distinct {
		if s.hashes[o] == hash && bytes.Equal(s.Data[d*bs:(d+1)*bs], data) {
			s.Copies = append(s.Copies, iscsi.SpanCopy{Block: ordinal, Source: o})
			return
		}
	}
	// A copy, not data itself: the compare buffer holds the next block
	// long before this span's write has left.
	s.Data = append(s.Data, data...)
	s.distinct = append(s.distinct, ordinal)
}

// compare is stages one and two: keep the hash window full, compare
// each fetch in order, gather and issue the repair spans. It returns
// with fetches and repair writes possibly still in flight.
func (p *pipeline) compare() error {
	buf := make([]byte, p.local.BlockSize())
	for {
		for len(p.ahead) < hashWindow && len(p.todo) > 0 {
			if err := p.fetchNext(buf); err != nil {
				return err
			}
		}
		if len(p.ahead) == 0 {
			return p.issue()
		}
		f := p.ahead[0] // fetches are compared in issue order
		p.ahead = p.ahead[1:]
		for !f.settled {
			p.fetches.Wait()
		}
		if f.err != nil {
			return fmt.Errorf("resync: fetch hashes at %d: %w", f.Units[0].LBA, f.err)
		}
		if err := p.compareBatch(f, buf); err != nil {
			return err
		}
		p.spent = append(p.spent, f)
	}
}

// fetchNext is stage one: it cuts units off the ranges still to scan,
// each range in Batch-sized units from its own start, for as long as
// the next one fits the command's Batch blocks and has the same mark,
// hashes each unit's local blocks and issues the command with the
// units' digests, on a compared fetch's buffers when there is one. The
// units of Dirty ranges it only cuts: it queues them, unasked, for the
// comparer.
func (p *pipeline) fetchNext(buf []byte) error {
	f := &hashFetch{}
	if n := len(p.spent); n > 0 {
		f = p.spent[n-1]
		p.spent = p.spent[:n-1]
		f.Units, f.local, f.settled = f.Units[:0], f.local[:0], false
	}
	f.unasked = p.todo[0].Dirty
	var taken uint64
	for len(p.todo) > 0 && p.todo[0].Dirty == f.unasked {
		r := &p.todo[0]
		count := min(r.Count, uint64(p.cfg.Batch))
		if taken+count > uint64(p.cfg.Batch) {
			break
		}
		taken += count
		u := iscsi.HashUnit{LBA: r.Start, Count: uint32(count)}
		r.Start += count
		r.Count -= count
		if r.Count == 0 {
			p.todo = p.todo[1:]
		}
		if f.unasked {
			f.Units = append(f.Units, u)
			continue
		}
		from := len(f.local)
		for lba := u.LBA; lba < u.LBA+count; lba++ {
			if err := p.read(lba, buf); err != nil {
				return err
			}
			f.local = append(f.local, iscsi.HashBlock(buf))
		}
		p.vec = iscsi.AppendHashes(p.vec[:0], f.local[from:])
		u.Digest = iscsi.HashBlock(p.vec)
		f.Units = append(f.Units, u)
	}
	p.ahead = append(p.ahead, f)
	if f.unasked {
		f.settled = true
		return nil
	}
	p.fetches.Go(f, 0)
	return nil
}

// compareBatch is stage two for one answered fetch: unit by unit, block
// by block against the replica's hashes, or against the local ones when
// the digest vouched for the whole unit, each differing block read
// again into the open span. Every block of an unasked fetch differs.
func (p *pipeline) compareBatch(f *hashFetch, buf []byte) error {
	local := f.local
	for _, u := range f.Units {
		var hashes []uint64
		if !f.unasked {
			hashes, local = local[:u.Count], local[u.Count:]
		}
		if err := p.compareUnit(u, hashes, buf); err != nil {
			return err
		}
	}
	return nil
}

// compareUnit compares one unit of an answered fetch, whose local hashes
// are local; an unasked unit has none (nil), and differs in every block.
func (p *pipeline) compareUnit(u iscsi.HashUnit, local []uint64, buf []byte) error {
	remote := u.Hashes
	if remote == nil {
		remote = local
	}
	for i := range uint64(u.Count) {
		lba := u.LBA + i
		// The open span leaves once the comparison has passed the end of
		// its stretch: nothing later can join it.
		if p.open != nil && !p.open.takes(lba, len(buf)) {
			if err := p.issue(); err != nil {
				return err
			}
		}
		switch {
		case local != nil && local[i] == remote[i]:
			p.learn(lba, local[i])
		case p.cfg.DryRun:
			p.stats.BlocksRepaired++
		default:
			if err := p.read(lba, buf); err != nil {
				return err
			}
			if !p.probed {
				p.probed, p.compress = true, xcode.Compressible(buf)
			}
			if p.open == nil {
				p.open = p.newSpan(lba)
			}
			// Hashed again: the span ships, and the replica learns, what
			// this read returned.
			p.open.add(lba, buf, iscsi.HashBlock(buf))
		}
		p.stats.BlocksScanned++
	}
	return nil
}

// read reads local block lba into buf, first polling the cancel: every
// local read, hashing or re-reading, is a point a run stops at.
func (p *pipeline) read(lba uint64, buf []byte) error {
	if canceled(p.cfg.Cancel, p.stop) {
		return ErrCanceled
	}
	if err := p.local.ReadBlock(lba, buf); err != nil {
		return fmt.Errorf("resync: local read %d: %w", lba, err)
	}
	return nil
}

// fetched settles a fetch: it is counted if the replica answered it,
// with the hashes it sent back.
func (p *pipeline) fetched(f *hashFetch) {
	f.settled = true
	if f.err == nil {
		p.stats.HashFetches++
		for _, u := range f.Units {
			p.stats.HashBytes += int64(len(u.Hashes)) * iscsi.HashSize
		}
	}
}

// newSpan starts a span at lba, on an acknowledged span's buffers when
// there is one: a long repair allocates a window's worth of spans, not
// a device's.
func (p *pipeline) newSpan(lba uint64) *span {
	s := &span{}
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free = p.free[:n-1]
	}
	s.LBA, s.Blocks, s.Compress = lba, 0, p.compress
	s.Mask, s.Copies, s.Data = s.Mask[:0], s.Copies[:0], s.Data[:0]
	s.lbas, s.hashes, s.distinct = s.lbas[:0], s.hashes[:0], s.distinct[:0]
	return s
}

// issue is stage three's sending half: it puts the open span, if any,
// on the wire, first settling acknowledged writes until the window has
// room for its block bytes. A span larger than the byte window goes
// alone.
func (p *pipeline) issue() error {
	s := p.open
	if s == nil {
		return nil
	}
	p.open = nil
	for p.err == nil && !p.repairs.Room(len(s.Data)) {
		p.repairs.Wait()
	}
	if p.err != nil {
		return p.err
	}
	p.repairs.Go(s, len(s.Data))
	return nil
}

// settle is stage three's receiving half: an acknowledged span is
// counted and learned — the replica now provably holds those blocks —
// and a failed one is neither, and the first failure is kept in p.err.
func (p *pipeline) settle(s *span) {
	if s.err != nil {
		if p.err == nil {
			p.err = fmt.Errorf("resync: repair span %d+%d: %w", s.LBA, s.Blocks, s.err)
		}
		return
	}
	p.stats.RepairWrites++
	p.stats.BlocksRepaired += uint64(len(s.hashes))
	p.stats.DataBytes += int64(len(s.hashes)) * int64(p.local.BlockSize())
	p.stats.SentBytes += int64(s.sent)
	for i, h := range s.hashes {
		p.learn(s.lbas[i], h)
	}
	p.free = append(p.free, s)
}

func (p *pipeline) learn(lba, hash uint64) {
	if p.cfg.Learn != nil {
		p.cfg.Learn(lba, hash)
	}
}

// RunAddr dials the replica exporting exportName at addr, runs a delta
// resync from local, and closes the session. It is the documented
// recovery step out of the engine's degraded mode: quiesce writes
// (Drain), RunAddr against each degraded replica, then ClearDegraded
// on the engine to resume live replication.
func RunAddr(local block.Store, addr, exportName string, cfg Config) (Stats, error) {
	remote, err := iscsi.Dial(addr)
	if err != nil {
		return Stats{}, fmt.Errorf("resync: dial %s: %w", addr, err)
	}
	defer remote.Close()
	if err := remote.Login(exportName); err != nil {
		return Stats{}, fmt.Errorf("resync: login %s/%s: %w", addr, exportName, err)
	}
	return Run(local, remote, cfg)
}
