package core

import (
	"sort"
	"sync"

	"prins/internal/block"
)

// dirtyMap tracks which LBAs a replica is not known to hold correctly:
// frames dropped while degraded, deliveries that exhausted their retry
// budget, and verified applies the replica refused as diverged. It is
// a sparse bitmap (64 LBAs per word, words allocated on demand) so a
// brief outage on a huge device costs memory proportional to the gap,
// not the device.
//
// The map feeds incremental recovery: Engine.DirtyRanges hands the
// merged runs, marked Dirty, to a ranged resync, which ships only those
// blocks — without asking the replica for their hashes first — instead
// of hash-scanning the whole device.
type dirtyMap struct {
	mu   sync.Mutex
	bits map[uint64]uint64 // word index (lba/64) -> bit mask
}

func newDirtyMap() *dirtyMap {
	return &dirtyMap{bits: make(map[uint64]uint64)}
}

// mark records lba as dirty.
func (d *dirtyMap) mark(lba uint64) {
	d.mu.Lock()
	d.bits[lba/64] |= 1 << (lba % 64)
	d.mu.Unlock()
}

// count returns the number of dirty LBAs.
func (d *dirtyMap) count() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var n uint64
	for _, w := range d.bits {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// ranges returns the dirty LBAs as sorted, merged runs, each marked
// Dirty: a ranged resync ships their blocks without a hash exchange.
func (d *dirtyMap) ranges() []block.Range {
	d.mu.Lock()
	defer d.mu.Unlock()

	words := make([]uint64, 0, len(d.bits))
	for wi := range d.bits {
		words = append(words, wi)
	}
	sort.Slice(words, func(i, j int) bool { return words[i] < words[j] })

	var out []block.Range
	for _, wi := range words {
		w := d.bits[wi]
		for bit := uint64(0); bit < 64; bit++ {
			if w&(1<<bit) == 0 {
				continue
			}
			lba := wi*64 + bit
			if n := len(out); n > 0 && out[n-1].End() == lba {
				out[n-1].Count++
			} else {
				out = append(out, block.Range{Start: lba, Count: 1, Dirty: true})
			}
		}
	}
	return out
}

// clear drops the given runs from the map; with no runs it drops
// everything (the caller repaired the whole dirty set).
func (d *dirtyMap) clear(ranges []block.Range) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(ranges) == 0 {
		d.bits = make(map[uint64]uint64)
		return
	}
	for _, r := range ranges {
		for lba := r.Start; lba < r.End(); lba++ {
			wi := lba / 64
			if w, ok := d.bits[wi]; ok {
				w &^= 1 << (lba % 64)
				if w == 0 {
					delete(d.bits, wi)
				} else {
					d.bits[wi] = w
				}
			}
		}
	}
}
