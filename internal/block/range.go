package block

import "sort"

// Range is a contiguous run of blocks [Start, Start+Count). The
// replication engine's dirty maps and the ranged resync speak in
// Ranges so recovery after a brief outage ships only the diverged
// region instead of scanning the device.
type Range struct {
	Start uint64
	Count uint64
	// Dirty marks a run the engine's dirty map named: blocks written
	// while the replica could not take them, so they differ on it by
	// construction. A ranged resync ships a marked run's blocks without
	// asking the replica for their hashes; an unmarked run (an audit, a
	// scrub, any range of unknown origin) is compared first.
	Dirty bool
}

// End returns the first LBA past the range.
func (r Range) End() uint64 { return r.Start + r.Count }

// NormalizeRanges sorts ranges by start, drops empties, clamps them to
// a device of total blocks, and merges overlapping or adjacent runs of
// the same mark. A block any marked run covers is marked, so a merged
// run is marked only if every block of it came from a marked run, and
// a marked run and an unmarked one that overlap or touch come out as
// neighbours that split where the marked blocks begin and end. The
// input slice is not modified.
func NormalizeRanges(ranges []Range, total uint64) []Range {
	all := merge(ranges, total, false)
	marked := merge(ranges, total, true)
	if len(marked) == 0 {
		return all
	}
	// Each merged marked run lies inside one merged run of all of them;
	// cut it out of that run.
	out := make([]Range, 0, len(all)+2*len(marked))
	for _, r := range all {
		for len(marked) > 0 && marked[0].Start < r.End() {
			m := marked[0]
			marked = marked[1:]
			if m.Start > r.Start {
				out = append(out, Range{Start: r.Start, Count: m.Start - r.Start})
			}
			out = append(out, m)
			r = Range{Start: m.End(), Count: r.End() - m.End()}
		}
		if r.Count > 0 {
			out = append(out, r)
		}
	}
	return out
}

// merge is NormalizeRanges over every run (onlyMarked false), or over
// the marked runs alone, regardless of mark: each merged run carries
// onlyMarked as its mark.
func merge(ranges []Range, total uint64, onlyMarked bool) []Range {
	work := make([]Range, 0, len(ranges))
	for _, r := range ranges {
		if r.Count == 0 || r.Start >= total || onlyMarked && !r.Dirty {
			continue
		}
		if r.End() > total || r.End() < r.Start { // clamp, incl. overflow
			r.Count = total - r.Start
		}
		r.Dirty = onlyMarked
		work = append(work, r)
	}
	sort.Slice(work, func(i, j int) bool { return work[i].Start < work[j].Start })

	out := work[:0]
	for _, r := range work {
		if n := len(out); n > 0 && r.Start <= out[n-1].End() {
			if r.End() > out[n-1].End() {
				out[n-1].Count = r.End() - out[n-1].Start
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// Intersect returns the blocks both a and b cover, as sorted runs that
// carry b's marks. a and b must each be sorted and disjoint, as
// NormalizeRanges leaves them.
func Intersect(a, b []Range) []Range {
	var out []Range
	for len(a) > 0 && len(b) > 0 {
		if lo, hi := max(a[0].Start, b[0].Start), min(a[0].End(), b[0].End()); lo < hi {
			out = append(out, Range{Start: lo, Count: hi - lo, Dirty: b[0].Dirty})
		}
		if a[0].End() < b[0].End() {
			a = a[1:]
		} else {
			b = b[1:]
		}
	}
	return out
}

// CountBlocks sums the block count across ranges.
func CountBlocks(ranges []Range) uint64 {
	var n uint64
	for _, r := range ranges {
		n += r.Count
	}
	return n
}
