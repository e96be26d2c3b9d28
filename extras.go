package prins

import (
	"prins/internal/block"
	"prins/internal/cdp"
	"prins/internal/iscsi"
	"prins/internal/resync"
)

// ResyncStats reports a delta-resync run.
type ResyncStats struct {
	// BlocksScanned is the device size compared.
	BlocksScanned uint64
	// BlocksRepaired is how many blocks differed and were rewritten.
	BlocksRepaired uint64
	// HashBytes is the hash bytes the replica sent back: 8 B per block
	// of a batch that differs, 0 for a batch settled by its digest.
	HashBytes int64
	// DataBytes is the block data repaired: BlocksRepaired x block size.
	DataBytes int64
	// SentBytes is what the repair spans carrying DataBytes put on the
	// wire: their presence masks and frames, DEFLATE-compressed when
	// the repaired data compresses, raw otherwise.
	SentBytes int64
	// WireBytes is the modelled total on-the-wire cost of HashBytes and
	// SentBytes.
	WireBytes int64
	// HashFetches is how many hash commands the replica answered.
	HashFetches int64
	// RepairWrites is how many repair spans the replica acknowledged,
	// one write each: BlocksRepaired / RepairWrites is the mean number
	// of blocks a span carried.
	RepairWrites int64
}

// Resync repairs a diverged replica by comparing per-block content
// hashes and rewriting only differing blocks — the way a PRINS
// deployment re-establishes the synchronized-copy precondition after a
// replica has been offline. local is the source of truth; the remote
// device is the export served at addr. With dryRun the divergence is
// only counted.
func Resync(local Store, addr, exportName string, dryRun bool) (ResyncStats, error) {
	return ResyncRanges(local, addr, exportName, dryRun, Range{Start: 0, Count: local.NumBlocks()})
}

// ResyncRanges is Resync restricted to the given LBA runs — the
// incremental repair path. Fed from Primary.DirtyRanges it heals
// exactly the blocks the primary knows are suspect (dropped, failed,
// or diverged) without scanning the rest of the device.
func ResyncRanges(local Store, addr, exportName string, dryRun bool, ranges ...Range) (ResyncStats, error) {
	return resyncTo(local, addr, exportName, resync.Config{DryRun: dryRun}, toBlockRanges(ranges))
}

// resyncTo runs one ranged resync from local to the replica serving
// exportName at addr, over a session of its own.
func resyncTo(local Store, addr, exportName string, cfg resync.Config, ranges []block.Range) (ResyncStats, error) {
	remote, err := iscsi.Dial(addr)
	if err != nil {
		return ResyncStats{}, err
	}
	defer remote.Close()
	if err := remote.Login(exportName); err != nil {
		return ResyncStats{}, err
	}
	s, err := resync.RunRanges(local, remote, cfg, ranges...)
	if err != nil {
		return ResyncStats{}, err
	}
	return resyncStats(s), nil
}

// wholeIfNone converts ranges, or returns local's whole device when
// there are none.
func wholeIfNone(local Store, ranges []Range) []block.Range {
	if len(ranges) == 0 {
		return []block.Range{{Start: 0, Count: local.NumBlocks()}}
	}
	return toBlockRanges(ranges)
}

func resyncStats(s resync.Stats) ResyncStats {
	return ResyncStats{
		BlocksScanned:  s.BlocksScanned,
		BlocksRepaired: s.BlocksRepaired,
		HashBytes:      s.HashBytes,
		DataBytes:      s.DataBytes,
		SentBytes:      s.SentBytes,
		WireBytes:      s.WireBytes,
		HashFetches:    s.HashFetches,
		RepairWrites:   s.RepairWrites,
	}
}

// History is a continuous-data-protection journal: the chain of
// per-write parities that lets a protected volume be rolled back to
// any past write (the paper's CDP/TRAP companion functionality).
type History struct {
	log *cdp.Log
}

// Protect wraps local so every write's parity is journaled. Writes go
// through the returned Store; the History can later recover any past
// state.
func Protect(local Store) (Store, *History, error) {
	log := cdp.NewLog(local.BlockSize())
	s, err := cdp.NewStore(local, log)
	if err != nil {
		return nil, nil, err
	}
	return s, &History{log: log}, nil
}

// Seq returns the sequence number of the latest journaled write.
func (h *History) Seq() uint64 { return h.log.Seq() }

// Bytes returns the space the retained history occupies.
func (h *History) Bytes() int64 { return h.log.Bytes() }

// Truncate drops history up to and including seq, bounding the
// protection window.
func (h *History) Truncate(seq uint64) { h.log.Truncate(seq) }

// RecoverTo rolls live back to its state as of seq (0 = before the
// first journaled write). live must be the protected store's current
// state.
func (h *History) RecoverTo(live Store, seq uint64) error {
	return h.log.Recover(live, seq)
}

// RecoverInto materializes the state as of seq into dst without
// touching the live store; head is the current state.
func (h *History) RecoverInto(dst, head Store, seq uint64) error {
	return h.log.RecoverInto(dst, head, seq)
}

// CopyStore copies src's full contents into dst (matching geometry
// required) — the initial full sync primitive.
func CopyStore(dst, src Store) error {
	return block.Copy(dst, src)
}
