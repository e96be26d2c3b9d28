package dedupe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

func TestPutLookupContains(t *testing.T) {
	x := New(8)
	x.Put(1, 0xAA)
	x.Put(2, 0xBB)

	if !x.Contains(0xAA) || !x.Contains(0xBB) {
		t.Error("freshly put hashes must resolve")
	}
	if x.Contains(0xCC) {
		t.Error("unknown hash resolved")
	}
	if lba, ok := x.Lookup(0xAA); !ok || lba != 1 {
		t.Errorf("Lookup(0xAA) = (%d, %v), want (1, true)", lba, ok)
	}
	if _, ok := x.Lookup(0xCC); ok {
		t.Error("Lookup of unknown hash succeeded")
	}
	if hits, misses := x.Stats(); hits != 2 || misses != 1 {
		t.Errorf("Stats() = (%d, %d), want (2, 1)", hits, misses)
	}
}

func TestZeroHashSentinel(t *testing.T) {
	x := New(8)
	x.Put(1, 0)
	if x.Len() != 0 {
		t.Error("zero hash was indexed")
	}
	if x.Contains(0) {
		t.Error("Contains(0) resolved")
	}
	if _, ok := x.Lookup(0); ok {
		t.Error("Lookup(0) resolved")
	}
	// Put with hash 0 forgets a previous mapping: the block's content
	// is now unverified.
	x.Put(1, 0xAA)
	x.Put(1, 0)
	if x.Len() != 0 || x.Refs(0xAA) != 0 {
		t.Error("Put(lba, 0) did not forget the previous mapping")
	}
}

func TestRefcountAcrossAliases(t *testing.T) {
	x := New(8)
	// Three LBAs hold the same content.
	x.Put(1, 0xAA)
	x.Put(2, 0xAA)
	x.Put(3, 0xAA)
	if x.Refs(0xAA) != 3 {
		t.Errorf("Refs = %d, want 3", x.Refs(0xAA))
	}
	// Dropping aliases one by one keeps the hash resolvable until the
	// last one goes.
	x.Forget(1)
	x.Put(2, 0xBB) // remap drops the old hash's ref
	if x.Refs(0xAA) != 1 || !x.Contains(0xAA) {
		t.Errorf("Refs = %d after two drops, want 1 and resolvable", x.Refs(0xAA))
	}
	x.Forget(3)
	if x.Refs(0xAA) != 0 || x.Contains(0xAA) {
		t.Error("hash still resolvable at refcount zero")
	}
}

func TestForgetHash(t *testing.T) {
	x := New(8)
	x.Put(1, 0xAA)
	x.Put(2, 0xAA)
	x.Put(3, 0xBB)
	x.ForgetHash(0xAA)
	if x.Refs(0xAA) != 0 || x.Contains(0xAA) {
		t.Error("ForgetHash left mappings behind")
	}
	if !x.Contains(0xBB) || x.Len() != 1 {
		t.Error("ForgetHash touched an unrelated hash")
	}
	x.ForgetHash(0xDEAD) // unknown hash is a no-op
	if x.Len() != 1 {
		t.Error("ForgetHash of unknown hash changed the index")
	}
}

func TestBoundAndLRUEviction(t *testing.T) {
	x := New(4)
	for lba := uint64(0); lba < 4; lba++ {
		x.Put(lba, 0x100+lba)
	}
	// Touch LBA 0 so it is most recently used.
	if _, ok := x.Lookup(0x100); !ok {
		t.Fatal("expected hit")
	}
	// Two more inserts evict the two least recently used (1 then 2).
	x.Put(10, 0x200)
	x.Put(11, 0x201)
	if x.Len() != 4 {
		t.Fatalf("Len = %d, want bound 4", x.Len())
	}
	if !x.Contains(0x100) {
		t.Error("recently touched entry was evicted")
	}
	if x.Contains(0x101) || x.Contains(0x102) {
		t.Error("least recently used entries survived past the bound")
	}
	if !x.Contains(0x103) || !x.Contains(0x200) || !x.Contains(0x201) {
		t.Error("expected survivors missing")
	}
}

func TestRemapReplacesHash(t *testing.T) {
	x := New(8)
	x.Put(1, 0xAA)
	x.Put(1, 0xBB)
	if x.Len() != 1 {
		t.Errorf("Len = %d after remap, want 1", x.Len())
	}
	if x.Contains(0xAA) {
		t.Error("old hash still resolvable after remap")
	}
	if lba, ok := x.Lookup(0xBB); !ok || lba != 1 {
		t.Error("new hash does not resolve to the remapped LBA")
	}
	// Same-hash re-put is a touch, not a churn.
	x.Put(1, 0xBB)
	if x.Len() != 1 || x.Refs(0xBB) != 1 {
		t.Error("idempotent re-put changed the index")
	}
}

func TestReset(t *testing.T) {
	x := New(8)
	x.Put(1, 0xAA)
	x.Put(2, 0xBB)
	x.Contains(0xAA)
	x.Reset()
	if x.Len() != 0 || x.Contains(0xAA) || x.Contains(0xBB) {
		t.Error("Reset left mappings behind")
	}
	if hits, _ := x.Stats(); hits != 1 {
		t.Error("Reset cleared the counters")
	}
	// The index stays usable after Reset.
	x.Put(3, 0xCC)
	if !x.Contains(0xCC) {
		t.Error("index unusable after Reset")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	x := New(16)
	for lba := uint64(0); lba < 5; lba++ {
		x.Put(lba, 0x100+lba)
	}
	x.Lookup(0x100) // LBA 0 becomes most recently used

	snap := x.EncodeSnapshot()
	recs, err := DecodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("decoded %d records, want 5", len(recs))
	}
	// MRU-first: the touched entry leads.
	if recs[0].LBA != 0 || recs[0].Hash != 0x100 {
		t.Errorf("first record = %+v, want the most recently used entry", recs[0])
	}

	y := New(16)
	y.Load(recs)
	if y.Len() != 5 {
		t.Fatalf("loaded %d entries, want 5", y.Len())
	}
	for lba := uint64(0); lba < 5; lba++ {
		if got, ok := y.Lookup(0x100 + lba); !ok || got != lba {
			t.Errorf("reloaded Lookup(%#x) = (%d, %v), want (%d, true)", 0x100+lba, got, ok, lba)
		}
	}
	// Load preserves recency: into a smaller index, the hottest entries
	// must win.
	z := New(2)
	z.Load(recs)
	if !z.Contains(recs[0].Hash) || !z.Contains(recs[1].Hash) {
		t.Error("truncating Load dropped the hottest entries")
	}
	if z.Contains(recs[4].Hash) {
		t.Error("truncating Load kept the coldest entry")
	}
}

func TestDecodeSnapshotHostile(t *testing.T) {
	x := New(4)
	x.Put(7, 0xAB)
	valid := x.EncodeSnapshot()

	countOf := func(n uint32) []byte {
		buf := make([]byte, snapHdrLen)
		copy(buf, snapMagic[:])
		binary.BigEndian.PutUint32(buf[4:], n)
		return buf
	}
	zeroHashRec := append(countOf(1), make([]byte, snapEntryLen)...)

	tests := []struct {
		name string
		data []byte
		want error
	}{
		{"nil", nil, ErrShortSnapshot},
		{"short header", valid[:snapHdrLen-1], ErrShortSnapshot},
		{"bad magic", append([]byte("XXXX"), valid[4:]...), ErrBadSnapshot},
		// A well-formed snapshot of the FNV-1a era: its hashes can
		// never hit, so it is refused, not loaded.
		{"PDX1 snapshot", append([]byte("PDX1"), valid[4:]...), ErrBadSnapshot},
		{"count over cap", countOf(MaxSnapshotEntries + 1), ErrBadSnapshot},
		{"huge count tiny buffer", countOf(MaxSnapshotEntries), ErrShortSnapshot},
		{"count without records", countOf(2), ErrShortSnapshot},
		{"truncated record", valid[:len(valid)-1], ErrShortSnapshot},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xEE), ErrBadSnapshot},
		{"zero-hash record", zeroHashRec, ErrBadSnapshot},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeSnapshot(tt.data); !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}

	// Empty snapshot is legal.
	if recs, err := DecodeSnapshot(New(4).EncodeSnapshot()); err != nil || len(recs) != 0 {
		t.Errorf("empty snapshot: recs=%v err=%v", recs, err)
	}
}

func FuzzDecodeSnapshot(f *testing.F) {
	x := New(8)
	x.Put(1, 0xAA)
	x.Put(2, 0xBB)
	f.Add(x.EncodeSnapshot())
	f.Add([]byte{})
	f.Add(snapMagic[:])
	f.Add(append(snapMagic[:], 0xFF, 0xFF, 0xFF, 0xFF))
	f.Add(append([]byte("PDX1"), x.EncodeSnapshot()[4:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrShortSnapshot) && !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if len(recs) > MaxSnapshotEntries {
			t.Fatalf("accepted %d records", len(recs))
		}
		// Accepted input must survive a load/encode cycle without
		// inventing or losing records (modulo duplicate LBAs, which a
		// bounded index legitimately collapses).
		y := New(MaxSnapshotEntries)
		y.Load(recs)
		if y.Len() > len(recs) {
			t.Fatalf("loaded %d entries from %d records", y.Len(), len(recs))
		}
	})
}

func TestEncodeSnapshotFormat(t *testing.T) {
	x := New(4)
	x.Put(0x1122, 0x3344)
	snap := x.EncodeSnapshot()
	if len(snap) != snapHdrLen+snapEntryLen {
		t.Fatalf("snapshot of one entry is %d bytes", len(snap))
	}
	if !bytes.Equal(snap[0:4], snapMagic[:]) {
		t.Error("snapshot missing magic")
	}
	if binary.BigEndian.Uint32(snap[4:]) != 1 {
		t.Error("snapshot count != 1")
	}
	if binary.BigEndian.Uint64(snap[8:]) != 0x1122 || binary.BigEndian.Uint64(snap[16:]) != 0x3344 {
		t.Error("snapshot record bytes wrong")
	}
}

// TestPutSteadyStateAllocs pins that a warm index allocates nothing on
// Put: an LBA that changes hash moves its node between rings, an
// eviction's node is reused for the LBA that caused it, and LBAs that
// share a hash sit on one ring rather than in a per-hash map.
func TestPutSteadyStateAllocs(t *testing.T) {
	x := New(64)
	var n uint64
	if got := testing.AllocsPerRun(200, func() {
		n++
		x.Put(7, 0xA0+n%2) // one LBA alternating between two hashes
	}); got != 0 {
		t.Errorf("alternating hashes on one LBA: %.1f allocs per Put, want 0", got)
	}
	if x.Len() != 1 || x.Refs(0xA0)+x.Refs(0xA1) != 1 {
		t.Errorf("Len %d, Refs %d+%d after alternating: want one entry", x.Len(), x.Refs(0xA0), x.Refs(0xA1))
	}

	for lba := uint64(0); lba < 64; lba++ {
		x.Put(lba, 0xBEEF) // fill to the bound, every LBA on one ring
	}
	if got := testing.AllocsPerRun(200, func() {
		n++
		x.Put(n%64, 0xBEEF)   // touch
		x.Put(1000+n, 0xBEEF) // evict the least recently used, same ring
	}); got != 0 {
		t.Errorf("64 LBAs sharing one hash: %.1f allocs per run, want 0", got)
	}
	if x.Len() != 64 || x.Refs(0xBEEF) != 64 {
		t.Errorf("Len %d, Refs %d: want 64, 64", x.Len(), x.Refs(0xBEEF))
	}
}

// modelIndex is the index's observable contract, written the slow way:
// the (lba, hash) pairs in LRU order, most recent first. The hash rings
// and node reuse must not change a single answer or the eviction order.
type modelIndex struct {
	max   int
	pairs []Record
}

func (m *modelIndex) find(lba uint64) int {
	return slices.IndexFunc(m.pairs, func(r Record) bool { return r.LBA == lba })
}

func (m *modelIndex) forget(lba uint64) {
	if i := m.find(lba); i >= 0 {
		m.pairs = slices.Delete(m.pairs, i, i+1)
	}
}

func (m *modelIndex) put(lba, hash uint64) {
	if i := m.find(lba); i < 0 && hash != 0 && len(m.pairs) >= m.max {
		m.pairs = m.pairs[:len(m.pairs)-1] // a new LBA evicts the least recently used
	}
	m.forget(lba)
	if hash != 0 {
		m.pairs = slices.Insert(m.pairs, 0, Record{LBA: lba, Hash: hash})
	}
}

func (m *modelIndex) refs(hash uint64) (n int) {
	for _, r := range m.pairs {
		if r.Hash == hash {
			n++
		}
	}
	return n
}

func TestIndexMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, m := New(8), &modelIndex{max: 8}
	for step := 0; step < 20000; step++ {
		lba, hash := uint64(rng.Intn(24)), uint64(rng.Intn(6)) // hash 0 forgets
		switch op := rng.Intn(10); {
		case op < 6:
			x.Put(lba, hash)
			m.put(lba, hash)
		case op == 6:
			x.Forget(lba)
			m.forget(lba)
		case op == 7:
			x.ForgetHash(hash)
			m.pairs = slices.DeleteFunc(m.pairs, func(r Record) bool { return r.Hash == hash })
		default:
			// Lookup may resolve to any holder; the one it names moves
			// to the front.
			got, ok := x.Lookup(hash)
			if ok != (m.refs(hash) > 0) {
				t.Fatalf("step %d: Lookup(%d) ok=%v, model holds %d", step, hash, ok, m.refs(hash))
			}
			if ok {
				if i := m.find(got); i < 0 || m.pairs[i].Hash != hash {
					t.Fatalf("step %d: Lookup(%d) named lba %d, which does not hold it", step, hash, got)
				}
				m.put(got, hash)
			}
		}
		if x.Len() != len(m.pairs) || x.Refs(hash) != m.refs(hash) || x.Contains(hash) != (m.refs(hash) > 0) {
			t.Fatalf("step %d: Len %d Refs(%d) %d, model %d %d", step, x.Len(), hash, x.Refs(hash), len(m.pairs), m.refs(hash))
		}
		if step%64 == 0 { // the snapshot is the LRU list, most recent first
			recs, err := DecodeSnapshot(x.EncodeSnapshot())
			if err != nil || !slices.Equal(recs, m.pairs) {
				t.Fatalf("step %d: LRU order %v (err %v), model %v", step, recs, err, m.pairs)
			}
		}
	}
}
