package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"prins/internal/block"
	"prins/internal/core"
	"prins/internal/memfs"
	"prins/internal/minidb"
	"prins/internal/resync"
	"prins/internal/tpcc"
	"prins/internal/wan"
)

// kind selects what drives a workload's writes.
type kind int

const (
	kindRaw  kind = iota // writer goroutines rewriting blocks in place
	kindTPCC             // one tpcc client on minidb
	kindTar              // one memfs edit+tar client
)

// spec is everything that defines a workload. The engine receives only
// what is in engine and the blocks the clients write: never the seed,
// never the workload's name.
type spec struct {
	name string
	why  string
	kind kind

	blockSize int
	numBlocks uint64
	link      wan.LinkConfig // zero: unshaped loopback TCP
	journaled bool           // replica applies through journal.Mem
	engine    core.Config

	writers    int     // closed-loop clients
	denseShare float64 // kindRaw: share of writes that overwrite the whole block

	// outageRounds > 0 makes every measured segment end in an outage:
	// the link is cut, that many more application rounds run against the
	// degraded replica, then the dirty ranges are resynced.
	outageRounds int

	// Traced runs keep the spans of every sampleEvery-th write, and
	// every pairEvery-th (old, new) block pair for the kernel replay.
	sampleEvery uint64
	pairEvery   uint64
}

// Sizes shared by more than one place.
const (
	rawBlockSize = 8 << 10
	rawBlocks    = 8192 // 64 MiB: larger than the CPU caches
	changedShare = 10   // a sparse write rewrites 1/10 of its block

	tpccPageSize  = 4 << 10
	tpccPages     = 4096 // 16 MiB device
	tpccCacheByte = 256 << 10

	tarBlockSize = 512
	tarBlocks    = 16 << 10 // 8 MiB device
)

var (
	tpccDB    = minidb.DBConfig{CacheBytes: tpccCacheByte, WALPages: 32, CheckpointEvery: 16}
	tpccScale = tpcc.DefaultScale(1)
	// At 512-byte blocks a memfs file addresses 74 blocks, so the tree
	// is sized for its archive to fit one file.
	tarTree = memfs.MicroBenchmark{Dirs: 2, FilesPerDir: 1, FileSize: 14 << 10, ChangeFraction: 0.5, EditFraction: 0.1}
)

// workloads lists the four in the order they run and print.
var workloads = []spec{
	{
		name: "sync-sparse-t3",
		why:  "2 sync writers, 10% rewrites, journaled replica behind T3: the round trip dominates, kernels are <5% of a write",
		kind: kindRaw, blockSize: rawBlockSize, numBlocks: rawBlocks,
		link: wan.T3Link(), journaled: true,
		engine:  core.Config{Mode: core.ModePRINS, Shards: 2},
		writers: 2, sampleEvery: 1, pairEvery: 16,
	},
	{
		name: "async-dense-cpu",
		why:  "2 async writers, half sparse half incompressible full-block, unshaped TCP: parity, codec, hash and PDU work dominate",
		kind: kindRaw, blockSize: rawBlockSize, numBlocks: rawBlocks,
		engine:  core.Config{Mode: core.ModePRINS, Async: true, Shards: 2},
		writers: 2, denseShare: 0.5, sampleEvery: 64, pairEvery: 512,
	},
	{
		name: "tpcc-t1",
		why:  "TPC-C on minidb over an async primary behind T1: the bounded queue fills, so rate = link rate / wire bytes per write",
		kind: kindTPCC, blockSize: tpccPageSize, numBlocks: tpccPages,
		link:    wan.T1Link(),
		engine:  core.Config{Mode: core.ModePRINS, Async: true, QueueDepth: 256},
		writers: 1, sampleEvery: 4, pairEvery: 16,
	},
	{
		name: "tar-dedupe-outage-t3",
		why:  "memfs edit+tar with by-ref dedupe over T3, then outage, degraded writes and ranged resync: the by-ref and recovery paths",
		kind: kindTar, blockSize: tarBlockSize, numBlocks: tarBlocks,
		link: wan.T3Link(),
		engine: core.Config{Mode: core.ModePRINS, Async: true, QueueDepth: 256, BatchFrames: 64,
			DedupeEntries: 1 << 16, AllowDegraded: true},
		writers: 1, outageRounds: 64, sampleEvery: 16, pairEvery: 64,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// scaled shrinks a workload for the tests: a smaller device, and a
// link whose delay and byte time shrink by the same factor, so a short
// run still sees the same regime.
func (sp spec) scaled(scale float64) spec {
	if scale >= 1 {
		return sp
	}
	if sp.kind == kindRaw {
		sp.numBlocks = max(uint64(float64(sp.numBlocks)*scale), 512)
	}
	sp.link.Latency = time.Duration(float64(sp.link.Latency) * scale)
	sp.link.BytesPerSecond /= scale
	if sp.outageRounds > 0 {
		sp.outageRounds = 4
	}
	return sp
}

// mix derives an independent stream seed from the run's seed.
func mix(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Seed streams.
const (
	streamFill = iota
	streamPool
	streamApp
	streamDeck
	streamWriter0 // + writer index
)

// populate brings the primary store to its starting image, directly:
// the replica gets the same image by initial sync, not by replication.
func (sp spec) populate(store block.Store, seed int64) error {
	switch sp.kind {
	case kindRaw:
		rng := rand.New(rand.NewSource(mix(seed, streamFill)))
		buf := make([]byte, sp.blockSize)
		for lba := uint64(0); lba < sp.numBlocks; lba++ {
			rng.Read(buf)
			if err := store.WriteBlock(lba, buf); err != nil {
				return err
			}
		}
		return nil
	case kindTPCC:
		db, err := minidb.Create(store, tpccDB)
		if err != nil {
			return err
		}
		if _, err := tpcc.Load(db, tpccScale, mix(seed, streamFill)); err != nil {
			return err
		}
		return db.Close()
	case kindTar:
		fs, err := memfs.Mkfs(store)
		if err != nil {
			return err
		}
		_, err = memfs.NewMicroRunner(fs, tarTree, mix(seed, streamFill))
		return err
	}
	return fmt.Errorf("bench: unknown workload kind %d", sp.kind)
}

// appStore is the block device a client sees: the primary engine, with
// every WriteBlock timed call to return. One per client goroutine, so
// nothing in it is shared.
type appStore struct {
	eng block.Store
	tr  *tracer

	lat       []int64 // ns, one per acknowledged write
	attempted int64   // reads and writes issued
	failed    int64   // of those, the ones that returned an error
	writes    int64   // acknowledged writes
	reads     int64
	inside    time.Duration // time spent inside ReadBlock and WriteBlock
}

var _ block.Store = (*appStore)(nil)

func (a *appStore) WriteBlock(lba uint64, data []byte) error {
	a.attempted++
	rec := a.tr.beginWrite(lba)
	start := time.Now()
	err := a.eng.WriteBlock(lba, data)
	d := time.Since(start)
	a.tr.endWrite(rec)
	a.inside += d
	if err != nil {
		a.failed++
		return err
	}
	a.writes++
	a.lat = append(a.lat, int64(d))
	return nil
}

func (a *appStore) ReadBlock(lba uint64, buf []byte) error {
	a.attempted++
	start := time.Now()
	err := a.eng.ReadBlock(lba, buf)
	a.inside += time.Since(start)
	a.reads++
	if err != nil {
		a.failed++
	}
	return err
}

func (a *appStore) BlockSize() int    { return a.eng.BlockSize() }
func (a *appStore) NumBlocks() uint64 { return a.eng.NumBlocks() }
func (a *appStore) Close() error      { return nil } // the cell owns the engine

// client is one closed-loop load generator: step performs one
// application operation and returns only when the system let it.
type client interface {
	step() error
	ops() int64 // application operations completed
	store() *appStore
	// finish quiesces the application so the device image is one it
	// could be reopened from.
	finish() error
}

// rawOp is one generated block write: which block, which bytes of it,
// and where in the random pool the new bytes come from.
type rawOp struct {
	lba    uint64
	off, n int
	src    int
}

// rawGen draws rawOps from its own seeded stream. Every op consumes the
// same number of draws, so the stream does not depend on the outcome.
type rawGen struct {
	rng        *rand.Rand
	blockSize  int
	numBlocks  uint64
	denseShare float64
	poolLen    int
}

func (g *rawGen) next() rawOp {
	op := rawOp{lba: uint64(g.rng.Int63n(int64(g.numBlocks)))}
	op.n = g.blockSize / changedShare
	op.off = g.rng.Intn(g.blockSize - op.n + 1)
	if g.rng.Float64() < g.denseShare {
		op.off, op.n = 0, g.blockSize
	}
	op.src = g.rng.Intn(g.poolLen - g.blockSize)
	return op
}

// rawWriter reads a block, overwrites part of it and writes it back:
// what a database does to a page.
type rawWriter struct {
	gen  rawGen
	pool []byte
	buf  []byte
	dev  *appStore
	n    int64
}

func (w *rawWriter) step() error {
	op := w.gen.next()
	if err := w.dev.ReadBlock(op.lba, w.buf); err != nil {
		return err
	}
	copy(w.buf[op.off:op.off+op.n], w.pool[op.src:])
	if err := w.dev.WriteBlock(op.lba, w.buf); err != nil {
		return err
	}
	w.n++
	return nil
}

func (w *rawWriter) ops() int64       { return w.n }
func (w *rawWriter) store() *appStore { return w.dev }
func (w *rawWriter) finish() error    { return nil }

type tpccClient struct {
	db   *minidb.DB
	c    *tpcc.Client
	dev  *appStore
	rng  *rand.Rand
	deck []tpcc.TxType
}

// tpccMix is the transaction mix tpcc.Client.NextType draws from, as
// cards of a deck of 100.
var tpccMix = []struct {
	typ   tpcc.TxType
	cards int
}{
	{tpcc.TxNewOrder, 45}, {tpcc.TxPayment, 43}, {tpcc.TxOrderStatus, 4}, {tpcc.TxDelivery, 4}, {tpcc.TxStockLevel, 4},
}

// step runs the next transaction off a shuffled deck of 100 cards that
// holds the mix exactly (TPC-C 5.2.4.2's way of meeting it): a run is a
// few hundred transactions, and drawing each type independently would
// let the count of the heavy ones, and with it the bytes per write, move
// by several percent from seed to seed.
func (t *tpccClient) step() error {
	if len(t.deck) == 0 {
		for _, c := range tpccMix {
			for i := 0; i < c.cards; i++ {
				t.deck = append(t.deck, c.typ)
			}
		}
		t.rng.Shuffle(len(t.deck), func(a, b int) { t.deck[a], t.deck[b] = t.deck[b], t.deck[a] })
	}
	typ := t.deck[len(t.deck)-1]
	t.deck = t.deck[:len(t.deck)-1]
	return t.c.RunOne(typ)
}
func (t *tpccClient) ops() int64       { return t.c.Stats().Total }
func (t *tpccClient) store() *appStore { return t.dev }
func (t *tpccClient) finish() error    { return t.db.Close() }

type tarClient struct {
	r   *memfs.MicroRunner
	dev *appStore
	n   int64
}

func (t *tarClient) step() error {
	t.n++
	_, err := t.r.Round(int(t.n))
	return err
}
func (t *tarClient) ops() int64       { return t.n }
func (t *tarClient) store() *appStore { return t.dev }
func (t *tarClient) finish() error    { return nil }

// poolBytes is the size of the random pool new block contents are cut
// from: drawing 8 KiB from math/rand per write would make the
// generator, not the system, the CPU-bound workload's hot spot.
const poolBytes = 1 << 20

// newClients attaches a workload's clients to the device they write:
// a built cell's engine, or a bare store when only the op stream is
// wanted.
func newClients(sp spec, eng block.Store, tr *tracer, seed int64) ([]client, error) {
	dev := func() *appStore {
		return &appStore{eng: eng, tr: tr, lat: make([]int64, 0, 1<<16)}
	}
	switch sp.kind {
	case kindRaw:
		pool := make([]byte, poolBytes+sp.blockSize)
		rand.New(rand.NewSource(mix(seed, streamPool))).Read(pool)
		out := make([]client, sp.writers)
		for w := range out {
			out[w] = &rawWriter{
				gen: rawGen{
					rng:       rand.New(rand.NewSource(mix(seed, streamWriter0+uint64(w)))),
					blockSize: sp.blockSize, numBlocks: sp.numBlocks,
					denseShare: sp.denseShare, poolLen: len(pool),
				},
				pool: pool, buf: make([]byte, sp.blockSize), dev: dev(),
			}
		}
		return out, nil
	case kindTPCC:
		d := dev()
		db, err := minidb.Open(d, tpccDB)
		if err != nil {
			return nil, err
		}
		tc, err := tpcc.Open(db, tpccScale, mix(seed, streamApp))
		if err != nil {
			return nil, err
		}
		return []client{&tpccClient{db: db, c: tc, dev: d, rng: rand.New(rand.NewSource(mix(seed, streamDeck)))}}, nil
	case kindTar:
		d := dev()
		fs, err := memfs.Mount(d)
		if err != nil {
			return nil, err
		}
		r, err := memfs.AttachMicroRunner(fs, tarTree, mix(seed, streamApp))
		if err != nil {
			return nil, err
		}
		return []client{&tarClient{r: r, dev: d}}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload kind %d", sp.kind)
}

// checkApp runs the application's own consistency check on the REPLICA
// image: byte identity says the copy is the same, this says the same is
// usable.
func (c *cell) checkApp() error {
	switch c.spec.kind {
	case kindTPCC:
		db, err := minidb.Open(c.replica, tpccDB)
		if err != nil {
			return fmt.Errorf("bench: minidb.Open on the replica image: %w", err)
		}
		_, err = tpcc.Open(db, tpccScale, 1)
		return err
	case kindTar:
		fs, err := memfs.Mount(c.replica)
		if err != nil {
			return fmt.Errorf("bench: memfs.Mount on the replica image: %w", err)
		}
		rep, err := fs.Fsck()
		if err != nil {
			return err
		}
		if !rep.Clean() {
			return fmt.Errorf("bench: fsck on the replica image: %v", rep.Problems)
		}
	}
	return nil
}

// resync runs the recovery path over the given ranges on the
// replication session itself and, when dedupe is on, re-warms the
// primary's index from it, as a deployment would.
func (c *cell) resync(ranges ...block.Range) (resync.Stats, error) {
	cfg := resync.Config{}
	if idx := c.engine.ReplicaDedupe(0); idx != nil {
		cfg.Learn = idx.Put
	}
	return resync.RunRanges(c.primary, c.client, cfg, ranges...)
}

// differing counts the blocks of the given ranges that differ between
// the two raw stores: the harness's own count of what a resync has to
// move, taken before it runs.
func (c *cell) differing(ranges []block.Range) (uint64, error) {
	a := make([]byte, c.spec.blockSize)
	b := make([]byte, c.spec.blockSize)
	var n uint64
	for _, r := range ranges {
		for lba := r.Start; lba < r.End(); lba++ {
			if err := c.primary.ReadBlock(lba, a); err != nil {
				return 0, err
			}
			if err := c.replica.ReadBlock(lba, b); err != nil {
				return 0, err
			}
			if !bytes.Equal(a, b) {
				n++
			}
		}
	}
	return n, nil
}
