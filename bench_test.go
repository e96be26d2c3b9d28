// The root benchmarks: the ablation and micro benches for the design
// choices DESIGN.md calls out, the hot-path arms `make bench-guard`
// times against the parent commit, and the measurements `make
// bench-json` records. The paper's figures are `make repro`'s
// (cmd/prinsbench), not benchmarks (see DESIGN.md's experiment index).
package prins_test

import (
	"bytes"
	"compress/flate"
	"crypto/subtle"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prins/internal/block"
	"prins/internal/cdp"
	"prins/internal/core"
	"prins/internal/iscsi"
	"prins/internal/minidb"
	"prins/internal/parity"
	"prins/internal/queueing"
	"prins/internal/resync"
	"prins/internal/tpcc"
	"prins/internal/wan"
	"prins/internal/xcode"
)

// BenchmarkAblationCodec compares the parity encodings on a 10%-dense
// 8KB parity block (ablation 1).
func BenchmarkAblationCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	fp := make([]byte, 8<<10)
	// 10% changed in clustered runs.
	for changed := 0; changed < len(fp)/10; {
		run := 16 + rng.Intn(64)
		off := rng.Intn(len(fp) - run)
		rng.Read(fp[off : off+run])
		changed += run
	}
	for _, codec := range []xcode.Codec{xcode.CodecRaw, xcode.CodecZRL, xcode.CodecFlate} {
		b.Run(codec.String(), func(b *testing.B) {
			b.SetBytes(int64(len(fp)))
			var frameLen int
			for i := 0; i < b.N; i++ {
				frame, err := xcode.Encode(codec, fp)
				if err != nil {
					b.Fatal(err)
				}
				frameLen = len(frame)
			}
			b.ReportMetric(float64(len(fp))/float64(frameLen), "ratio")
		})
	}
}

// BenchmarkEngineWrite measures the full primary write path per mode
// with an in-process replica.
func BenchmarkEngineWrite(b *testing.B) {
	for _, mode := range core.AllModes() {
		b.Run(mode.String(), func(b *testing.B) {
			benchEngineWrite(b, mode, false)
		})
	}
}

// BenchmarkAblationPipeline compares synchronous shipping against the
// paper's async engine-thread design (ablation 2).
func BenchmarkAblationPipeline(b *testing.B) {
	b.Run("sync", func(b *testing.B) { benchEngineWrite(b, core.ModePRINS, false) })
	b.Run("async", func(b *testing.B) { benchEngineWrite(b, core.ModePRINS, true) })
}

func benchEngineWrite(b *testing.B, mode core.Mode, async bool) {
	b.Helper()
	const blockSize = 8 << 10
	primary, err := block.NewMem(blockSize, 256)
	if err != nil {
		b.Fatal(err)
	}
	sink, err := block.NewMem(blockSize, 256)
	if err != nil {
		b.Fatal(err)
	}
	replica := core.NewReplicaEngine(sink)
	engine, err := core.NewEngine(primary, core.Config{Mode: mode, Async: async})
	if err != nil {
		b.Fatal(err)
	}
	defer engine.Close()
	engine.AttachReplica(&core.Loopback{Replica: replica})

	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, blockSize)
	rng.Read(buf)
	for lba := uint64(0); lba < 256; lba++ {
		if err := engine.WriteBlock(lba, buf); err != nil {
			b.Fatal(err)
		}
	}

	b.SetBytes(blockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := uint64(rng.Intn(256))
		off := rng.Intn(blockSize * 9 / 10)
		for j := 0; j < blockSize/10; j++ {
			buf[off+j] = byte(rng.Intn(256))
		}
		if err := engine.WriteBlock(lba, buf); err != nil {
			b.Fatal(err)
		}
	}
	if err := engine.Drain(); err != nil {
		b.Fatal(err)
	}
}

// wanDelayClient models a replica a fixed WAN round trip away.
type wanDelayClient struct {
	delay time.Duration
	inner core.ReplicaClient
}

func (c *wanDelayClient) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	time.Sleep(c.delay)
	return c.inner.ReplicaWriteStream(mode, shard, vol, seq, lba, hash, frame)
}

// BenchmarkFanoutLatency measures synchronous write latency against 1,
// 2, 4, and 8 replicas, each behind a simulated 200µs round trip. With
// per-replica ship pipelines the deliveries overlap, so per-write
// latency should stay roughly flat (the slowest replica, not the sum)
// as replica count grows.
func BenchmarkFanoutLatency(b *testing.B) {
	const (
		blockSize = 8 << 10
		rtt       = 200 * time.Microsecond
	)
	for _, replicas := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("replicas-%d", replicas), func(b *testing.B) {
			primary, err := block.NewMem(blockSize, 256)
			if err != nil {
				b.Fatal(err)
			}
			engine, err := core.NewEngine(primary, core.Config{Mode: core.ModePRINS})
			if err != nil {
				b.Fatal(err)
			}
			defer engine.Close()
			for i := 0; i < replicas; i++ {
				sink, err := block.NewMem(blockSize, 256)
				if err != nil {
					b.Fatal(err)
				}
				engine.AttachReplica(&wanDelayClient{
					delay: rtt,
					inner: &core.Loopback{Replica: core.NewReplicaEngine(sink)},
				})
			}

			rng := rand.New(rand.NewSource(1))
			buf := make([]byte, blockSize)
			rng.Read(buf)

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lba := uint64(rng.Intn(256))
				off := rng.Intn(blockSize * 9 / 10)
				for j := 0; j < blockSize/10; j++ {
					buf[off+j] = byte(rng.Intn(256))
				}
				if err := engine.WriteBlock(lba, buf); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/write")
		})
	}
}

// slowStore wraps a block store with a fixed write latency, standing in
// for a real disk. The sleep sits inside the engine's per-shard
// critical section, so it overlaps across shards (even on one CPU) but
// serializes within a shard — exactly the contention the sharded
// engine exists to remove.
type slowStore struct {
	block.Store
	delay time.Duration
}

func (s *slowStore) WriteBlock(lba uint64, data []byte) error {
	time.Sleep(s.delay)
	return s.Store.WriteBlock(lba, data)
}

// dialReplica serves backend on loopback TCP and returns a logged-in
// session to it over a link shaped by link (the zero LinkConfig passes
// bytes straight through). Session and target close when tb's run ends.
func dialReplica(tb testing.TB, backend iscsi.Backend, link wan.LinkConfig) *iscsi.Initiator {
	tb.Helper()
	target := iscsi.NewTarget()
	target.Export("r", backend)
	addr, err := target.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { target.Close() })
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		tb.Fatal(err)
	}
	client := iscsi.NewInitiator(wan.Shape(conn, link))
	tb.Cleanup(func() { client.Close() })
	if err := client.Login("r"); err != nil {
		tb.Fatal(err)
	}
	return client
}

// runWriters times b.N block writes to random LBAs of engine issued by
// exactly n closed-loop writer goroutines, which share b.N through a
// countdown; dirty changes the writer's block before each write. It
// fails the benchmark on the first write error. Not b.RunParallel:
// that starts SetParallelism x GOMAXPROCS goroutines, so "8 writers"
// was 8 on one CPU and 16 on two, and the same arm measured a
// different population on every box.
func runWriters(b *testing.B, engine *core.Engine, n int, dirty func(rng *rand.Rand, buf []byte)) {
	b.Helper()
	var left atomic.Int64
	left.Store(int64(b.N))
	var wg sync.WaitGroup
	errs := make(chan error, n)
	b.ResetTimer()
	for w := 1; w <= n; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, engine.BlockSize())
			rng.Read(buf)
			for left.Add(-1) >= 0 {
				dirty(rng, buf)
				if err := engine.WriteBlock(uint64(rng.Intn(int(engine.NumBlocks()))), buf); err != nil {
					errs <- err
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
}

// BenchmarkShardScaling measures aggregate write throughput of 8
// concurrent writers against a 1ms-write store as the engine's shard
// count grows 1 -> 8. One shard serializes every writer behind one
// mutex (~1/latency writes/s); N shards let up to N writes overlap, so
// throughput should scale near-linearly until writers collide on
// shards. Alongside the measurement it reports the closed-network MVA
// prediction for the same system — writers as customers, shards as k
// service centres of demand S/k (uniform LBAs visit each shard with
// probability 1/k) — cross-validating the queueing model against the
// implementation.
func BenchmarkShardScaling(b *testing.B) {
	const (
		blockSize = 4 << 10
		numBlocks = 1 << 10
		// 1ms, not less: the platform timer rounds sub-millisecond
		// sleeps up to ~1.1ms, which would skew the MVA cross-check.
		ioDelay = time.Millisecond
		writers = 8
	)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			mem, err := block.NewMem(blockSize, numBlocks)
			if err != nil {
				b.Fatal(err)
			}
			sink, err := block.NewMem(blockSize, numBlocks)
			if err != nil {
				b.Fatal(err)
			}
			engine, err := core.NewEngine(&slowStore{Store: mem, delay: ioDelay}, core.Config{
				Mode:       core.ModePRINS,
				Async:      true,
				QueueDepth: 256,
				Shards:     shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer engine.Close()
			if err := engine.AttachReplica(&core.Loopback{Replica: core.NewReplicaEngine(sink)}); err != nil {
				b.Fatal(err)
			}

			runWriters(b, engine, writers, func(rng *rand.Rand, buf []byte) { buf[0] = byte(rng.Intn(256)) })
			if err := engine.Drain(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "writes/s")

			mva, err := queueing.Solve(queueing.Network{
				RouterService: queueing.UniformRouters(ioDelay/time.Duration(shards), shards),
			}, writers)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(mva.Throughput, "mvaWrites/s")
		})
	}
}

// BenchmarkResync measures hash-based delta repair. The loopback-5pct
// arm is the wire cost of repairing a replica with 5% divergence versus
// the full-copy alternative. The t3-ranges arm is the recovery time the
// end-to-end benchmark's outage workload pays: a 512 B x 16384 device
// behind a shaped T3 link, ~110 dirty blocks in five runs inside five
// dirty ranges, as a tar outage leaves them. It reports repair-ms (wall
// time of one ranged resync, which `make bench-guard` times) and
// blocks/write (the run length the pipeline shipped). A group unit is
// rebuilt by the same pipeline (BenchmarkGroupRepair).
func BenchmarkResync(b *testing.B) {
	b.Run("loopback-5pct", benchResyncLoopback)
	b.Run("t3-ranges", benchResyncT3Ranges)
}

func benchResyncLoopback(b *testing.B) {
	const (
		blockSize = 8 << 10
		numBlocks = 256
	)
	local, err := block.NewMem(blockSize, numBlocks)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, blockSize)
	for lba := uint64(0); lba < numBlocks; lba++ {
		rng.Read(buf)
		if err := local.WriteBlock(lba, buf); err != nil {
			b.Fatal(err)
		}
	}

	replicaStore, err := block.NewMem(blockSize, numBlocks)
	if err != nil {
		b.Fatal(err)
	}
	remote := dialReplica(b, &iscsi.StoreBackend{Store: replicaStore}, wan.LinkConfig{})

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := block.Copy(replicaStore, local); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < numBlocks/20; j++ { // 5% divergence
			rng.Read(buf)
			if err := replicaStore.WriteBlock(uint64(rng.Intn(numBlocks)), buf); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()

		stats, err := resync.Run(local, remote, resync.Config{})
		if err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		if i == 0 {
			b.ReportMetric(float64(stats.WireBytes), "wireB")
			b.ReportMetric(float64(stats.FullCopyBytes(blockSize)), "fullCopyB")
		}
		b.StartTimer()
	}
}

func benchResyncT3Ranges(b *testing.B) {
	const (
		blockSize = 512
		numBlocks = 16384
		runLen    = 22 // five of them: 110 blocks, 55 KiB
	)
	local, err := block.NewMem(blockSize, numBlocks)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, blockSize)
	for lba := uint64(0); lba < numBlocks; lba++ {
		rng.Read(buf)
		if err := local.WriteBlock(lba, buf); err != nil {
			b.Fatal(err)
		}
	}
	replicaStore, err := block.NewMem(blockSize, numBlocks)
	if err != nil {
		b.Fatal(err)
	}
	if err := block.Copy(replicaStore, local); err != nil {
		b.Fatal(err)
	}
	// Each dirty range is wider than the run inside it: the primary
	// marks what it wrote, and part of that reached the replica.
	var ranges []block.Range
	for i := uint64(0); i < 5; i++ {
		ranges = append(ranges, block.Range{Start: 1000 + i*3000, Count: 3 * runLen})
	}

	remote := dialReplica(b, &iscsi.StoreBackend{Store: replicaStore}, wan.T3Link())

	var stats resync.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, r := range ranges {
			for lba := r.Start + runLen; lba < r.Start+2*runLen; lba++ {
				rng.Read(buf)
				if err := replicaStore.WriteBlock(lba, buf); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
		if stats, err = resync.RunRanges(local, remote, resync.Config{}, ranges...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if stats.BlocksRepaired != 5*runLen {
		b.Fatalf("repaired %d blocks, want %d", stats.BlocksRepaired, 5*runLen)
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "repair-ms")
	b.ReportMetric(float64(stats.BlocksRepaired)/float64(stats.RepairWrites), "blocks/write")
}

// BenchmarkCDPAppend measures the journaling cost per protected write
// and the history's space efficiency on 10%-changed blocks.
func BenchmarkCDPAppend(b *testing.B) {
	const blockSize = 8 << 10
	inner, err := block.NewMem(blockSize, 64)
	if err != nil {
		b.Fatal(err)
	}
	log := cdp.NewLog(blockSize)
	s, err := cdp.NewStore(inner, log)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	buf := make([]byte, blockSize)
	rng.Read(buf)
	for lba := uint64(0); lba < 64; lba++ {
		if err := s.WriteBlock(lba, buf); err != nil {
			b.Fatal(err)
		}
	}
	log.Truncate(log.Seq())

	b.SetBytes(blockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := uint64(rng.Intn(64))
		if err := s.ReadBlock(lba, buf); err != nil {
			b.Fatal(err)
		}
		off := rng.Intn(blockSize * 9 / 10)
		for j := 0; j < blockSize/10; j++ {
			buf[off+j] = byte(rng.Intn(256))
		}
		if err := s.WriteBlock(lba, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := log.Len(); n > 0 {
		b.ReportMetric(float64(log.Bytes())/float64(n), "journalB/write")
	}
}

// BenchmarkMVAvsSimulation solves the Figure 8 network analytically
// and by discrete-event simulation, reporting both response times —
// the cross-validation of the queueing machinery.
func BenchmarkMVAvsSimulation(b *testing.B) {
	net := queueing.Network{
		ThinkTime:     100 * time.Millisecond,
		RouterService: queueing.UniformRouters(wan.RouterServiceTime(500, wan.T1), 2),
	}
	var mva, sim queueing.Result
	for i := 0; i < b.N; i++ {
		var err error
		mva, err = queueing.Solve(net, 40)
		if err != nil {
			b.Fatal(err)
		}
		sim, err = queueing.SimulateClosed(net, 40, 20000, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mva.ResponseTime.Seconds()*1e3, "mvaRespMs")
	b.ReportMetric(sim.ResponseTime.Seconds()*1e3, "simRespMs")
}

// tpccParities loads a TPC-C database on a fresh 16 MiB device exactly
// as bench/ populates its tpcc-t1 device (4 KiB pages, 256 KiB page
// cache, scale 1), runs txns transactions on it and returns the forward
// parity of every block write they made, in order, and the block each
// of them left.
func tpccParities(tb testing.TB, seed int64, txns int) (parities, news [][]byte) {
	tb.Helper()
	const pageSize, pages = 4 << 10, 4096
	cfg := minidb.DBConfig{CacheBytes: 256 << 10, WALPages: 32, CheckpointEvery: 16}
	scale := tpcc.DefaultScale(1)
	dev, err := block.NewMem(pageSize, pages)
	if err != nil {
		tb.Fatal(err)
	}
	db, err := minidb.Create(dev, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := tpcc.Load(db, scale, seed); err != nil {
		tb.Fatal(err)
	}
	if err := db.Close(); err != nil {
		tb.Fatal(err)
	}
	db, err = minidb.Open(block.NewObserved(dev, func(_ uint64, old, data []byte) {
		fp := make([]byte, len(data))
		if err := parity.ForwardInto(fp, data, old); err != nil {
			tb.Fatal(err)
		}
		parities, news = append(parities, fp), append(news, bytes.Clone(data))
	}), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	client, err := tpcc.Open(db, scale, seed+1)
	if err != nil {
		tb.Fatal(err)
	}
	if err := client.Run(txns); err != nil {
		tb.Fatal(err)
	}
	if err := db.Close(); err != nil {
		tb.Fatal(err)
	}
	return parities, news
}

// squeezeCorpus is one corpus of BenchmarkAblationSqueeze: its
// parities, the block each write left (A_new), their ZRL frames, and
// the bytes each stage ships for the whole corpus — zrlB the ZRL
// frames, streamB what they cost as the stream segments of squeezed
// lists before the long-range match pass (deflateOnly): runs of
// streamRun frames through one stream's 32 KiB of DEFLATE history;
// maskB the same for the frames' masked twins (xcode.AppendMask: A_new's
// bytes on the parity's literals), a raw-floored frame going as it is;
// longB the same twins through xcode.StreamDeflater, whose repeats
// reach back a StreamWindow of plaintext, which is what a backlogged
// pipe now streams.
type squeezeCorpus struct {
	name                        string
	parities, news, frames      [][]byte
	zrlB, streamB, maskB, longB int64
}

// streamRun is how many frames squeezeCorpora packs in one stream
// segment: a full run at the default BatchFrames.
const streamRun = 32

// squeezeCorpora builds the two corpora: the parities of TPC-C on
// minidb, where the changed bytes are rows and log records and DEFLATE
// takes about 30% off, and clustered runs of random bytes, where it can
// take nothing and the squeeze is pure cost.
func squeezeCorpora(tb testing.TB) []squeezeCorpus {
	rng := rand.New(rand.NewSource(17))
	random := make([][]byte, 64)
	for i := range random {
		fp := make([]byte, 8<<10)
		for changed := 0; changed < len(fp)/10; {
			run := 8 + rng.Intn(48)
			off := rng.Intn(len(fp) - run)
			rng.Read(fp[off : off+run])
			changed += run
		}
		random[i] = fp
	}
	// The incompressible corpus's writes land on random pre-images, so
	// their new bytes are as random as their parities. Drawn after the
	// parities, which keep the bytes they always had.
	randomNews := make([][]byte, len(random))
	for i, fp := range random {
		randomNews[i] = make([]byte, len(fp))
		rng.Read(randomNews[i])
		subtle.XORBytes(randomNews[i], randomNews[i], fp)
	}
	tpccFP, tpccNews := tpccParities(tb, 17, 700)
	corpora := []squeezeCorpus{
		{name: "tpcc", parities: tpccFP, news: tpccNews},
		{name: "incompressible", parities: random, news: randomNews},
	}
	for c := range corpora {
		corpus := &corpora[c]
		var masks [][]byte
		for i, fp := range corpus.parities {
			frame, err := xcode.EncodeBest(fp, xcode.CodecZRL)
			if err != nil {
				tb.Fatal(err)
			}
			corpus.frames = append(corpus.frames, frame)
			masks = append(masks, maskOf(tb, frame, corpus.news[i]))
			corpus.zrlB += int64(len(frame))
		}
		corpus.streamB = streamBytes(tb, new(deflateOnly), corpus.frames)
		corpus.maskB = streamBytes(tb, new(deflateOnly), masks)
		corpus.longB = streamBytes(tb, new(xcode.StreamDeflater), masks)
	}
	return corpora
}

// maskOf returns what a squeezed list streams for a frame: its masked
// twin over the block the write left, or the frame itself when it is
// raw-floored.
func maskOf(tb testing.TB, frame, news []byte) []byte {
	if xcode.Codec(frame[0]) != xcode.CodecZRL {
		return frame
	}
	twin, err := xcode.AppendMask(nil, frame, news)
	if err != nil {
		tb.Fatal(err)
	}
	return twin
}

// segmenter is the writing end of one stream of segments.
type segmenter interface {
	Start(dst []byte) error
	Write(p []byte) error
	End() ([]byte, error)
	Reset()
}

// deflateOnly is the writing end of a stream as squeezed lists built
// it before the long-range match pass: one DEFLATE stream flushed per
// segment, so a segment refers back only as far as DEFLATE's 32 KiB
// window.
type deflateOnly struct {
	w    *flate.Writer
	sink appendTo
}

// appendTo is an io.Writer that appends to buf.
type appendTo struct{ buf []byte }

func (a *appendTo) Write(p []byte) (int, error) {
	a.buf = append(a.buf, p...)
	return len(p), nil
}

func (d *deflateOnly) Start(dst []byte) error {
	d.sink.buf = dst
	if d.w != nil {
		return nil
	}
	var err error
	d.w, err = flate.NewWriter(&d.sink, 6) // xcode's level
	return err
}

func (d *deflateOnly) Write(p []byte) error {
	_, err := d.w.Write(p)
	return err
}

func (d *deflateOnly) End() ([]byte, error) {
	err := d.w.Flush()
	return d.sink.buf, err
}

func (d *deflateOnly) Reset() {
	if d.w != nil {
		d.w.Reset(&d.sink)
	}
}

// streamBytes returns what frames cost as the stream segments of
// squeezed lists: runs of streamRun through sd's history.
func streamBytes(tb testing.TB, sd segmenter, frames [][]byte) int64 {
	var seg []byte
	var total int64
	for i := 0; i < len(frames); i += streamRun {
		if err := sd.Start(seg[:0]); err != nil {
			tb.Fatal(err)
		}
		for _, frame := range frames[i:min(i+streamRun, len(frames))] {
			if err := sd.Write(frame); err != nil {
				tb.Fatal(err)
			}
		}
		var err error
		if seg, err = sd.End(); err != nil {
			tb.Fatal(err)
		}
		total += int64(len(seg))
	}
	return total
}

// TestSqueezeFrameCeiling holds the mean frame each stage of
// BenchmarkAblationSqueeze ships to what it was when written (465.65
// bytes of ZRL frame on TPC-C, 868.63 on the incompressible corpus).
// Both are counts over seeded corpora, the same on every run and every
// host. The stream column, what a frame costs in the stream segment of
// a squeezed list, is held to what it was when written: 251.39 bytes on
// TPC-C, 22% under each frame deflated on its own (321.15 bytes, a
// form since retired), and 867.16 on the incompressible corpus, where
// DEFLATE over 32 frames at once finds a byte and a half per frame in
// their run headers that it could not find in one.
//
// The mask column is what the same runs cost with each ZRL frame's
// masked twin streamed in its place, as a backlogged pipe now streams
// them: TPC-C's new bytes repeat what the stream carried where their
// XOR against changing old bytes does not, so it is held to 166.5
// bytes, a third under the parities' stream (166.39 when written). On
// the incompressible corpus the new bytes are as random as the
// parities, and a twin costs a little more than its frame: the short
// zero gaps a ZRL literal absorbs are zeros in the parity and random
// pre-image bytes in the twin. It was 867.25 bytes when written, 0.09
// over the parities' stream, and is held to 867.3.
func TestSqueezeFrameCeiling(t *testing.T) {
	ceilings := map[string]float64{"tpcc": 465.7, "incompressible": 868.7}
	streamCeilings := map[string]float64{"tpcc": 251.4, "incompressible": 867.2}
	maskCeilings := map[string]float64{"tpcc": 166.5, "incompressible": 867.3}
	longCeilings := map[string]float64{"tpcc": 124.5, "incompressible": 867.3}
	for _, c := range squeezeCorpora(t) {
		n := float64(len(c.frames))
		if got := float64(c.zrlB) / n; got > ceilings[c.name] {
			t.Errorf("%s: ZRL frames average %.2f bytes, ceiling %.1f", c.name, got, ceilings[c.name])
		}
		if got := float64(c.streamB) / n; got > streamCeilings[c.name] {
			t.Errorf("%s: frames in runs of %d through one stream average %.2f bytes, ceiling %.1f", c.name, streamRun, got, streamCeilings[c.name])
		}
		if got := float64(c.maskB) / n; got > maskCeilings[c.name] {
			t.Errorf("%s: masked twins in runs of %d through one stream average %.2f bytes, ceiling %.1f", c.name, streamRun, got, maskCeilings[c.name])
		}
		if got := float64(c.longB) / n; got > longCeilings[c.name] {
			t.Errorf("%s: masked twins in runs of %d through one long-window stream average %.2f bytes, ceiling %.1f", c.name, streamRun, got, longCeilings[c.name])
		}
		t.Logf("%s: B/frame zrl %.2f, stream %.2f, mask %.2f, long %.2f", c.name,
			float64(c.zrlB)/n, float64(c.streamB)/n, float64(c.maskB)/n, float64(c.longB)/n)
	}
}

// BenchmarkAblationSqueeze prices the second encoding stage where it
// now runs. zrl is the write path: one parity encoded ZRL-only under
// the shard lock. stream is what a backlogged pipe added on top before
// the long-range match pass: the finished ZRL frames of a run of
// streamRun as one DEFLATE segment primed with the runs before it
// (iscsi's squeezed lists). mask is the same for each frame's masked
// twin, built from the frame and the new block (the write path's added
// walk, timed here with it) and streamed in the frame's place. long is
// what such a pipe streams now: the twins through xcode.StreamDeflater,
// whose match pass finds their repeats a StreamWindow back before
// DEFLATE; its ns/frame less mask's is the match pass. frameB is the
// mean frame that ships, over the whole corpus (a count, held by
// TestSqueezeFrameCeiling); ns/frame is the stage's own cost. On the
// incompressible corpus the squeeze is pure cost — the pipe's gate,
// not this bench, decides which of the two a live pipe is looking at.
func BenchmarkAblationSqueeze(b *testing.B) {
	for _, corpus := range squeezeCorpora(b) {
		n := float64(len(corpus.frames))
		b.Run(corpus.name+"/zrl", func(b *testing.B) {
			var buf []byte
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = xcode.AppendEncodeBest(buf[:0], corpus.parities[i%len(corpus.frames)], xcode.CodecZRL); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(corpus.zrlB)/n, "frameB")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
		})
		b.Run(corpus.name+"/stream", func(b *testing.B) {
			benchStream(b, new(deflateOnly), corpus, false, corpus.streamB)
		})
		b.Run(corpus.name+"/mask", func(b *testing.B) {
			benchStream(b, new(deflateOnly), corpus, true, corpus.maskB)
		})
		b.Run(corpus.name+"/long", func(b *testing.B) {
			benchStream(b, new(xcode.StreamDeflater), corpus, true, corpus.longB)
		})
	}
}

// benchStream streams corpus's frames, or with masks their masked
// twins, through sd in runs of streamRun, and reports bytes, the
// corpus's mean streamed frame. Each pass over the corpus starts the
// stream afresh, as its count does: a second pass would otherwise
// repeat the first, which a long history finds whole.
func benchStream(b *testing.B, sd segmenter, corpus squeezeCorpus, masks bool, bytes int64) {
	seg := make([]byte, 0, 64<<10)
	var twin []byte
	for i := 0; i < b.N; i++ {
		k := i % len(corpus.frames)
		if k%streamRun == 0 {
			if i > 0 {
				seg, _ = sd.End() // a healthy writer into memory: cannot fail
			}
			if k == 0 {
				sd.Reset()
			}
			_ = sd.Start(seg[:0])
		}
		frame := corpus.frames[k]
		if masks && xcode.Codec(frame[0]) == xcode.CodecZRL {
			var err error
			if twin, err = xcode.AppendMask(twin[:0], frame, corpus.news[k]); err != nil {
				b.Fatal(err)
			}
			frame = twin
		}
		_ = sd.Write(frame)
	}
	_, _ = sd.End()
	b.ReportMetric(float64(bytes)/float64(len(corpus.frames)), "frameB")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
}

// hotpathEncode is the primary's per-write encode work exactly as the
// pipeline composes it (DESIGN.md section 4): XOR+density kernel into a
// scratch parity block, ZRL append-encode into a pooled frame buffer
// with header headroom, header stamped in place over the finished
// frame. Returns the framed PDU (headroom + frame) for wire accounting.
func hotpathEncode(fp, newData, oldData, buf []byte, seq uint64) ([]byte, error) {
	if _, err := parity.XORCountNonZero(fp, newData, oldData); err != nil {
		return nil, err
	}
	hash := iscsi.HashBlock(newData)
	pdu, err := xcode.AppendEncodeBest(buf[:iscsi.FrameHeadroom], fp, xcode.CodecZRL)
	if err != nil {
		return nil, err
	}
	if err := iscsi.StampReplicaHeader(pdu, 1, 0, 0, uint32(seq), seq, seq%64, hash); err != nil {
		return nil, err
	}
	return pdu, nil
}

// hotpathBlocks builds a representative (old, new) block pair: 10%
// changed in one clustered run, like a database page update.
func hotpathBlocks(blockSize int) (oldData, newData []byte) {
	rng := rand.New(rand.NewSource(11))
	oldData = make([]byte, blockSize)
	rng.Read(oldData)
	newData = append([]byte(nil), oldData...)
	off := rng.Intn(blockSize * 9 / 10)
	rng.Read(newData[off : off+blockSize/10])
	return oldData, newData
}

// TestEncodePathZeroAllocs pins the zero-copy encode contract: with a
// warmed pooled buffer, one write's parity + density + hash + ZRL
// encode + in-place header stamp allocates nothing. A regression here
// means a per-write allocation crept back into the hot path.
func TestEncodePathZeroAllocs(t *testing.T) {
	const blockSize = 8 << 10
	oldData, newData := hotpathBlocks(blockSize)
	fp := make([]byte, blockSize)
	buf := make([]byte, iscsi.FrameHeadroom, iscsi.FrameHeadroom+64)
	// Warm the buffer to its steady-state capacity, as the frame pool
	// does after the first write.
	pdu, err := hotpathEncode(fp, newData, oldData, buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf = pdu[:iscsi.FrameHeadroom]

	var seq uint64
	allocs := testing.AllocsPerRun(100, func() {
		seq++
		if _, err := hotpathEncode(fp, newData, oldData, buf, seq); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encode hot path allocates: %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkHotpathEncode measures the per-write CPU cost of the
// zero-copy encode path (parity kernel, block hash, ZRL encode,
// in-place header stamp) with allocation reporting; allocs/op must
// read 0 (asserted by TestEncodePathZeroAllocs).
func BenchmarkHotpathEncode(b *testing.B) {
	const blockSize = 8 << 10
	oldData, newData := hotpathBlocks(blockSize)
	fp := make([]byte, blockSize)
	buf := make([]byte, iscsi.FrameHeadroom, iscsi.FrameHeadroom+2*blockSize)
	pdu, err := hotpathEncode(fp, newData, oldData, buf, 1)
	if err != nil {
		b.Fatal(err)
	}
	buf = pdu[:iscsi.FrameHeadroom]

	b.SetBytes(blockSize)
	b.ReportAllocs()
	b.ResetTimer()
	var frameLen int
	for i := 0; i < b.N; i++ {
		pdu, err := hotpathEncode(fp, newData, oldData, buf, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		frameLen = len(pdu) - iscsi.FrameHeadroom
	}
	b.ReportMetric(float64(frameLen), "frameB")
}

// BenchmarkHotpathHash is the block hash alone (iscsi.HashBlock, paid
// once per write on the primary and once in the replica's verified
// apply, and all a resync audit does) at the sector, page and block
// sizes in use.
func BenchmarkHotpathHash(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	for _, arm := range []struct {
		name string
		size int
	}{{"512B", 512}, {"4KB", 4 << 10}, {"8KB", 8 << 10}} {
		block := make([]byte, arm.size)
		rng.Read(block)
		b.Run(arm.name, func(b *testing.B) {
			b.SetBytes(int64(arm.size))
			var sum uint64
			for i := 0; i < b.N; i++ {
				sum += iscsi.HashBlock(block)
			}
			hotpathSink = sum
		})
	}
}

// BenchmarkHotpathZRL is the parity encode alone, as the engine calls
// it (AppendEncodeBest with the ZRL candidate into a reused buffer), on
// the two shapes a write produces: sparse10, the parity of a 10%
// clustered page update, and dense, the parity of a full-block
// overwrite with incompressible data, where ZRL finds no runs and the
// raw floor ships the block.
func BenchmarkHotpathZRL(b *testing.B) {
	const blockSize = 8 << 10
	oldData, newData := hotpathBlocks(blockSize)
	sparse := make([]byte, blockSize)
	if err := parity.ForwardInto(sparse, newData, oldData); err != nil {
		b.Fatal(err)
	}
	dense := make([]byte, blockSize)
	rand.New(rand.NewSource(16)).Read(dense)
	for _, in := range []struct {
		name   string
		parity []byte
	}{{"sparse10", sparse}, {"dense", dense}} {
		b.Run(in.name, func(b *testing.B) {
			buf := make([]byte, 0, 4*blockSize)
			b.SetBytes(blockSize)
			var frameLen int
			for i := 0; i < b.N; i++ {
				frame, err := xcode.AppendEncodeBest(buf, in.parity, xcode.CodecZRL)
				if err != nil {
					b.Fatal(err)
				}
				frameLen = len(frame)
			}
			b.ReportMetric(float64(frameLen), "frameB")
		})
	}
}

// BenchmarkHotpathXOR is the parity kernel alone (parity.XOR, which is
// crypto/subtle.XORBytes): the primary's forward parity and, through
// xcode.XORInto, the replica's backward one, at the page and block sizes
// in use.
func BenchmarkHotpathXOR(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	for _, arm := range []struct {
		name string
		size int
	}{{"4KB", 4 << 10}, {"8KB", 8 << 10}} {
		x, y, dst := make([]byte, arm.size), make([]byte, arm.size), make([]byte, arm.size)
		rng.Read(x)
		rng.Read(y)
		b.Run(arm.name, func(b *testing.B) {
			b.SetBytes(int64(arm.size))
			for i := 0; i < b.N; i++ {
				if err := parity.XOR(dst, x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHotpathApply is the replica's whole per-entry work on a warm
// stream: one verified, un-journaled apply of an 8 KiB PRINS entry whose
// ZRL frame carries a 10% change — pre-image read into the staging slot,
// frame folded into it, block hashed and checked, store write, content
// index update. The parity toggles the block between two images, so
// every apply verifies. allocs/op must read 0.
func BenchmarkHotpathApply(b *testing.B) {
	const blockSize = 8 << 10
	oldData, newData := hotpathBlocks(blockSize)
	fp := make([]byte, blockSize)
	if err := parity.ForwardInto(fp, newData, oldData); err != nil {
		b.Fatal(err)
	}
	frame, err := xcode.EncodeBest(fp, xcode.CodecZRL)
	if err != nil {
		b.Fatal(err)
	}
	store, err := block.NewMem(blockSize, 8)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.WriteBlock(3, oldData); err != nil {
		b.Fatal(err)
	}
	replica := core.NewReplicaEngine(store)
	hashes := [2]uint64{iscsi.HashBlock(oldData), iscsi.HashBlock(newData)}

	b.SetBytes(blockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i + 1) // odd seqs land newData, even seqs oldData
		if err := replica.ApplyStream(core.ModePRINS, 0, 0, seq, 3, hashes[seq%2], frame); err != nil {
			b.Fatal(err)
		}
	}
}

// hotpathSink keeps the kernel benchmarks' results observable.
var hotpathSink uint64

// BenchmarkHotpathSyncShip measures synchronous replication throughput
// of 8 closed-loop writers through a real initiator/target session over
// a metro-latency shaped link, on one shard and on four. Every writer
// takes its shard lock, applies, and enqueues its own message, and the
// pipe's ship window keeps up to eight of those pushes in flight on the
// multiplexed session, so the writers' round trips overlap; a write
// waits only when a push still in flight carries its LBA
// (admitwaits/write: about one write in forty at 8 writers over 256
// blocks). Both arms run at the link's pace for eight writers, and
// `make bench-guard` times their writes/s against the parent commit.
func BenchmarkHotpathSyncShip(b *testing.B) {
	const (
		blockSize = 8 << 10
		numBlocks = 256
		latency   = 500 * time.Microsecond
		writers   = 8
	)
	for _, arm := range []string{"one-shard", "shards-4"} {
		cfg := core.Config{
			Mode:        core.ModePRINS,
			QueueDepth:  256,
			BatchFrames: 64,
		}
		if arm == "shards-4" {
			// Four ship pipelines over the one session. Before the ship
			// window this was the only arm whose round trips overlapped
			// (1.17-1.22x one shard); now it checks that sharding a
			// windowed pipe costs nothing.
			cfg.Shards = 4
		}
		b.Run(arm, func(b *testing.B) {
			sink, err := block.NewMem(blockSize, numBlocks)
			if err != nil {
				b.Fatal(err)
			}
			client := dialReplica(b, core.NewReplicaEngine(sink), wan.LinkConfig{Latency: latency})

			primary, err := block.NewMem(blockSize, numBlocks)
			if err != nil {
				b.Fatal(err)
			}
			engine, err := core.NewEngine(primary, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer engine.Close()
			if err := engine.AttachReplica(client); err != nil {
				b.Fatal(err)
			}

			runWriters(b, engine, writers, func(rng *rand.Rand, buf []byte) { buf[rng.Intn(len(buf))] = byte(rng.Intn(256)) })
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "writes/s")
			b.ReportMetric(float64(engine.ReplicaStats()[0].Metrics.AdmitWaits)/float64(b.N), "admitwaits/write")
		})
	}
}
