// Package minidb is a small page-based transactional storage engine:
// slotted pages, heap files, B+tree indexes, a write-back buffer pool,
// and a write-ahead log, all on top of a block.Store. It stands in for
// the commercial databases of the paper's testbed (Oracle, Postgres,
// MySQL): what matters for PRINS is the block-level write pattern a
// page-oriented database produces — page-sized writes in which a
// transaction dirties a few tuples, i.e. 5-20% of the block — and a
// slotted-page engine with tuple-granularity updates reproduces
// exactly that.
package minidb

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"prins/internal/block"
)

// PageID identifies a page; pages map 1:1 onto device blocks.
type PageID uint64

// invalidPage marks "no page" in on-disk pointers.
const invalidPage PageID = 0

// Reserved pages.
const (
	metaPageID PageID = 0 // engine metadata
)

// Error values.
var (
	ErrNoSpace     = errors.New("minidb: device full")
	ErrPagerClosed = errors.New("minidb: pager closed")
	ErrBadMeta     = errors.New("minidb: corrupt meta page")
)

// meta is the persistent engine header kept in page 0.
//
// Layout: magic u32 | version u16 | reserved u16 | nextFree u64 |
// freeHead u64 | catalogRoot u64 | walHead u64 | walPages u32.
type meta struct {
	nextFree    PageID // bump allocator frontier
	freeHead    PageID // head of free-page chain
	catalogRoot PageID // first catalog page
	walHead     PageID // first WAL page
	walPages    uint32 // WAL region length in pages
}

const (
	metaMagic   = 0x4d444231 // "MDB1"
	metaVersion = 1
	metaLen     = 4 + 2 + 2 + 8 + 8 + 8 + 8 + 4
)

func (m *meta) encode(buf []byte) {
	binary.BigEndian.PutUint32(buf[0:], metaMagic)
	binary.BigEndian.PutUint16(buf[4:], metaVersion)
	binary.BigEndian.PutUint64(buf[8:], uint64(m.nextFree))
	binary.BigEndian.PutUint64(buf[16:], uint64(m.freeHead))
	binary.BigEndian.PutUint64(buf[24:], uint64(m.catalogRoot))
	binary.BigEndian.PutUint64(buf[32:], uint64(m.walHead))
	binary.BigEndian.PutUint32(buf[40:], m.walPages)
}

func (m *meta) decode(buf []byte) error {
	if len(buf) < metaLen {
		return ErrBadMeta
	}
	if binary.BigEndian.Uint32(buf[0:]) != metaMagic {
		return fmt.Errorf("%w: bad magic", ErrBadMeta)
	}
	if binary.BigEndian.Uint16(buf[4:]) != metaVersion {
		return fmt.Errorf("%w: version", ErrBadMeta)
	}
	m.nextFree = PageID(binary.BigEndian.Uint64(buf[8:]))
	m.freeHead = PageID(binary.BigEndian.Uint64(buf[16:]))
	m.catalogRoot = PageID(binary.BigEndian.Uint64(buf[24:]))
	m.walHead = PageID(binary.BigEndian.Uint64(buf[32:]))
	m.walPages = binary.BigEndian.Uint32(buf[40:])
	return nil
}

// Page is a pinned buffer-pool frame. Callers mutate Data and must
// MarkDirty before Release for changes to persist.
type Page struct {
	ID   PageID
	Data []byte

	frame *frame
}

// MarkDirty flags the page for write-back.
func (p *Page) MarkDirty() { p.frame.dirty = true }

type frame struct {
	id    PageID
	data  []byte
	dirty bool
	pins  int
	elem  *list.Element // position in LRU when unpinned
}

// Pager is the buffer pool: it caches pages of the underlying store,
// pins them for access, and writes dirty pages back on flush or
// eviction. Eviction of dirty pages ("stealing") produces the
// mid-transaction block writes a real database exhibits.
type Pager struct {
	mu sync.Mutex

	store    block.Store
	pageSize int
	capacity int
	frames   map[PageID]*frame
	lru      *list.List // unpinned frames, front = most recent
	meta     meta
	closed   bool

	// flushes counts pages written back; hits/misses count Acquire
	// outcomes — the buffer pool's effectiveness metrics.
	flushes int64
	hits    int64
	misses  int64
}

// PagerStats is a snapshot of buffer-pool counters.
type PagerStats struct {
	// Hits and Misses count Acquire calls served from cache vs loaded
	// from the device.
	Hits   int64
	Misses int64
	// Flushes counts page write-backs (evictions + explicit flushes).
	Flushes int64
	// Cached is the number of resident pages.
	Cached int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any access.
func (s PagerStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// PagerConfig tunes the pool.
type PagerConfig struct {
	// Capacity is the maximum cached pages; <=0 means 1024.
	Capacity int
}

// NewPager formats store as a fresh database (page 0 becomes the meta
// page) and returns its pager.
func NewPager(store block.Store, cfg PagerConfig) (*Pager, error) {
	p, err := newPager(store, cfg)
	if err != nil {
		return nil, err
	}
	p.meta = meta{nextFree: 1}
	if err := p.flushMeta(); err != nil {
		return nil, err
	}
	return p, nil
}

// OpenPager opens an existing database created by NewPager.
func OpenPager(store block.Store, cfg PagerConfig) (*Pager, error) {
	p, err := newPager(store, cfg)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, p.pageSize)
	if err := store.ReadBlock(uint64(metaPageID), buf); err != nil {
		return nil, fmt.Errorf("minidb: read meta: %w", err)
	}
	if err := p.meta.decode(buf); err != nil {
		return nil, err
	}
	return p, nil
}

func newPager(store block.Store, cfg PagerConfig) (*Pager, error) {
	if store.BlockSize() < 128 {
		return nil, fmt.Errorf("minidb: page size %d too small", store.BlockSize())
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1024
	}
	return &Pager{
		store:    store,
		pageSize: store.BlockSize(),
		capacity: cfg.Capacity,
		frames:   make(map[PageID]*frame, cfg.Capacity),
		lru:      list.New(),
	}, nil
}

// PageSize returns the page (= block) size.
func (p *Pager) PageSize() int { return p.pageSize }

// Acquire pins page id into the pool, loading it if needed.
func (p *Pager) Acquire(id PageID) (*Page, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPagerClosed
	}
	f, ok := p.frames[id]
	if ok {
		p.hits++
		if f.pins == 0 && f.elem != nil {
			p.lru.Remove(f.elem)
			f.elem = nil
		}
		f.pins++
		return &Page{ID: id, Data: f.data, frame: f}, nil
	}
	p.misses++
	if err := p.makeRoomLocked(); err != nil {
		return nil, err
	}
	data := make([]byte, p.pageSize)
	if err := p.store.ReadBlock(uint64(id), data); err != nil {
		return nil, fmt.Errorf("minidb: load page %d: %w", id, err)
	}
	f = &frame{id: id, data: data, pins: 1}
	p.frames[id] = f
	return &Page{ID: id, Data: data, frame: f}, nil
}

// Release unpins a page previously acquired.
func (p *Pager) Release(pg *Page) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := pg.frame
	if f.pins <= 0 {
		// Double release is a programming error; make it loud in tests
		// without panicking production code paths.
		return
	}
	f.pins--
	if f.pins == 0 {
		f.elem = p.lru.PushFront(f)
	}
}

// Update acquires the page, runs fn over its data, marks it dirty if
// fn returns true, and releases it.
func (p *Pager) Update(id PageID, fn func(data []byte) (dirty bool, err error)) error {
	pg, err := p.Acquire(id)
	if err != nil {
		return err
	}
	defer p.Release(pg)
	dirty, err := fn(pg.Data)
	if dirty {
		pg.MarkDirty()
	}
	return err
}

// View acquires the page read-only for the duration of fn.
func (p *Pager) View(id PageID, fn func(data []byte) error) error {
	pg, err := p.Acquire(id)
	if err != nil {
		return err
	}
	defer p.Release(pg)
	return fn(pg.Data)
}

// makeRoomLocked evicts LRU unpinned frames until below capacity.
func (p *Pager) makeRoomLocked() error {
	for len(p.frames) >= p.capacity {
		back := p.lru.Back()
		if back == nil {
			// Everything pinned: allow the pool to grow; correctness
			// over strict capacity.
			return nil
		}
		f, ok := back.Value.(*frame)
		if !ok {
			return errors.New("minidb: corrupt LRU")
		}
		if f.dirty {
			if err := p.store.WriteBlock(uint64(f.id), f.data); err != nil {
				return fmt.Errorf("minidb: evict page %d: %w", f.id, err)
			}
			p.flushes++
		}
		p.lru.Remove(back)
		delete(p.frames, f.id)
	}
	return nil
}

// Alloc returns a fresh zeroed page, pinned and dirty.
func (p *Pager) Alloc() (*Page, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPagerClosed
	}

	var id PageID
	if p.meta.freeHead != invalidPage {
		id = p.meta.freeHead
		// The free page stores the next free pointer in its head.
		buf := make([]byte, p.pageSize)
		if err := p.store.ReadBlock(uint64(id), buf); err != nil {
			p.mu.Unlock()
			return nil, fmt.Errorf("minidb: read free page %d: %w", id, err)
		}
		p.meta.freeHead = PageID(binary.BigEndian.Uint64(buf))
	} else {
		if uint64(p.meta.nextFree) >= p.store.NumBlocks() {
			p.mu.Unlock()
			return nil, ErrNoSpace
		}
		id = p.meta.nextFree
		p.meta.nextFree++
	}

	if err := p.makeRoomLocked(); err != nil {
		p.mu.Unlock()
		return nil, err
	}
	data := make([]byte, p.pageSize)
	f := &frame{id: id, data: data, pins: 1, dirty: true}
	// Drop any stale cached frame for a recycled id.
	if old, ok := p.frames[id]; ok && old.elem != nil {
		p.lru.Remove(old.elem)
	}
	p.frames[id] = f
	p.mu.Unlock()
	return &Page{ID: id, Data: data, frame: f}, nil
}

// Free returns a page to the allocator's free chain.
func (p *Pager) Free(id PageID) error {
	return p.Update(id, func(data []byte) (bool, error) {
		p.mu.Lock()
		defer p.mu.Unlock()
		for i := range data {
			data[i] = 0
		}
		binary.BigEndian.PutUint64(data, uint64(p.meta.freeHead))
		p.meta.freeHead = id
		return true, nil
	})
}

// SetCatalogRoot persists the catalog chain head in the meta page.
func (p *Pager) SetCatalogRoot(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.meta.catalogRoot = id
}

// CatalogRoot returns the persisted catalog chain head.
func (p *Pager) CatalogRoot() PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.meta.catalogRoot
}

// SetWAL records the WAL region in the meta page.
func (p *Pager) SetWAL(head PageID, pages uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.meta.walHead = head
	p.meta.walPages = pages
}

// WAL returns the persisted WAL region.
func (p *Pager) WAL() (PageID, uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.meta.walHead, p.meta.walPages
}

// Flush writes every dirty page and the meta page back to the store.
func (p *Pager) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPagerClosed
	}
	return p.flushLocked()
}

// flushLocked writes every dirty page back in ascending page order —
// not map order — so the device write sequence of a checkpoint is a
// function of the workload alone.
func (p *Pager) flushLocked() error {
	var dirty []PageID
	for id, f := range p.frames {
		if f.dirty {
			dirty = append(dirty, id)
		}
	}
	slices.Sort(dirty)
	for _, id := range dirty {
		f := p.frames[id]
		if err := p.store.WriteBlock(uint64(id), f.data); err != nil {
			return fmt.Errorf("minidb: flush page %d: %w", id, err)
		}
		f.dirty = false
		p.flushes++
	}
	return p.flushMetaLocked()
}

func (p *Pager) flushMeta() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushMetaLocked()
}

func (p *Pager) flushMetaLocked() error {
	buf := make([]byte, p.pageSize)
	p.meta.encode(buf)
	if err := p.store.WriteBlock(uint64(metaPageID), buf); err != nil {
		return fmt.Errorf("minidb: flush meta: %w", err)
	}
	p.flushes++
	return nil
}

// FlushPages writes back exactly the given pages if dirty (commit-time
// targeted flush).
func (p *Pager) FlushPages(ids []PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPagerClosed
	}
	for _, id := range ids {
		f, ok := p.frames[id]
		if !ok || !f.dirty {
			continue
		}
		if err := p.store.WriteBlock(uint64(id), f.data); err != nil {
			return fmt.Errorf("minidb: flush page %d: %w", id, err)
		}
		f.dirty = false
		p.flushes++
	}
	return nil
}

// Flushes returns how many page write-backs have occurred.
func (p *Pager) Flushes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushes
}

// Stats snapshots the buffer-pool counters.
func (p *Pager) Stats() PagerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PagerStats{
		Hits:    p.hits,
		Misses:  p.misses,
		Flushes: p.flushes,
		Cached:  len(p.frames),
	}
}

// PagesAllocated returns the allocator frontier (upper bound on live
// pages).
func (p *Pager) PagesAllocated() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return uint64(p.meta.nextFree)
}

// Close flushes everything and detaches from the store (which the
// caller owns and closes).
func (p *Pager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	if err := p.flushLocked(); err != nil {
		return err
	}
	p.closed = true
	p.frames = nil
	p.lru = nil
	return nil
}
