package core

import (
	"errors"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"prins/internal/block"
	"prins/internal/iscsi"
	"prins/internal/minidb"
	"prins/internal/tpcc"
	"prins/internal/wan"
	"prins/internal/xcode"
)

// --- the gate, as a pure type ---

// linkModel is a pipe's cost for the gate tests: a push of n wire bytes
// takes alpha + n/rate, and squeezing a run first costs cpu and leaves
// shrink of its bytes. jitter, when set, scales every duration by a
// seeded factor within ±jitter.
type linkModel struct {
	alpha  time.Duration
	rate   float64 // wire bytes per second; 0: the bytes cost nothing
	cpu    time.Duration
	shrink float64
	jitter float64
}

func (m linkModel) took(squeezed bool, srcBytes int, rng *rand.Rand) time.Duration {
	wire, d := float64(srcBytes), m.alpha
	if squeezed {
		wire *= m.shrink
		d += m.cpu
	}
	if m.rate > 0 {
		d += time.Duration(wire / m.rate * float64(time.Second))
	}
	if m.jitter > 0 {
		d = time.Duration(float64(d) * (1 + m.jitter*(2*rng.Float64()-1)))
	}
	return d
}

// The links of the benchmark's workloads, as the shipper sees them: 32
// TPC-C frames of ~470 bytes behind T1 with DEFLATE taking 30% off at
// ~47 us a frame; the same run over loopback TCP; 64 frames of ~53
// bytes behind T3, which DEFLATE cannot shrink and still has to try.
var (
	t1Link       = linkModel{alpha: 2 * time.Millisecond, rate: wan.T1.BytesPerSecond, cpu: 1500 * time.Microsecond, shrink: 0.70}
	loopbackLink = linkModel{alpha: 80 * time.Microsecond, cpu: 1500 * time.Microsecond, shrink: 0.70}
	t3SmallLink  = linkModel{alpha: 2500 * time.Microsecond, rate: wan.T3.BytesPerSecond, cpu: 1600 * time.Microsecond, shrink: 0.98}
)

// driveGate feeds g runs backlog runs over m, each of a size drawn from
// sizes, and returns how many of them the gate had squeezed.
func driveGate(g *squeezeGate, m linkModel, sizes []int, runs int, rng *rand.Rand) (squeezed int) {
	for i := 0; i < runs; i++ {
		n := sizes[rng.Intn(len(sizes))]
		sq := g.next()
		if sq {
			squeezed++
		}
		g.observe(sq, n, m.took(sq, n, rng))
	}
	return squeezed
}

// TestSqueezeGateTurnsOnBehindT1: on a link whose cost is its bytes the
// gate is on within four backlog runs and stays on; its plain probes
// thin out to the maximum spacing.
func TestSqueezeGateTurnsOnBehindT1(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{15000, 9000, 22000} // WAL runs and checkpoint runs differ in size
	var g squeezeGate
	driveGate(&g, t1Link, sizes, 4, rng)
	if !g.on {
		t.Fatalf("gate still off after 4 backlog runs behind T1: %+v", g)
	}
	const runs = 20000
	var switches int
	plain := 0
	for i := 0; i < runs; i++ {
		n := sizes[rng.Intn(len(sizes))]
		sq := g.next()
		if !sq {
			plain++
		}
		if g.observe(sq, n, t1Link.took(sq, n, rng)) {
			switches++
		}
	}
	if !g.on || switches != 0 {
		t.Errorf("gate on=%v after %d switches behind T1, want on and none", g.on, switches)
	}
	if plain*100 > runs {
		t.Errorf("%d of %d runs shipped plain behind T1, want <= 1%% (probes only)", plain, runs)
	}
	if g.spacing != squeezeMaxSpacing {
		t.Errorf("probe spacing %d after %d runs of losing probes, want %d", g.spacing, runs, squeezeMaxSpacing)
	}
}

// TestSqueezeGateStaysOff: where the bytes are not the cost, squeezed
// runs are the probes and nothing else — under 1% of the runs — with
// and without noise on the durations, and with runs of mixed sizes on
// the latency-bound link, where bytes per second alone would make a
// probe on a big run look like a win.
func TestSqueezeGateStaysOff(t *testing.T) {
	noisy := func(m linkModel) linkModel { m.jitter = 0.08; return m }
	for _, tc := range []struct {
		name  string
		link  linkModel
		sizes []int
	}{
		{"loopback", loopbackLink, []int{15000, 9000, 22000}},
		{"loopback-noisy", noisy(loopbackLink), []int{15000, 9000, 22000}},
		{"t3-53-byte-frames", t3SmallLink, []int{3400}},
		{"t3-mixed-sizes", t3SmallLink, []int{1600, 3100, 4500, 6000, 10400}},
		{"t3-mixed-sizes-noisy", noisy(t3SmallLink), []int{1600, 3100, 4500, 6000, 10400}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const runs = 20000
			var g squeezeGate
			squeezed := driveGate(&g, tc.link, tc.sizes, runs, rand.New(rand.NewSource(2)))
			if g.on {
				t.Errorf("gate ended on: %+v", g)
			}
			if squeezed*100 > runs {
				t.Errorf("%d of %d runs squeezed, want <= 1%%", squeezed, runs)
			}
		})
	}
}

// TestSqueezeGateFollowsLinkChange: a pipe that has squeezed behind T1
// for long enough to space its probes out fully finds out that the link
// became loopback within one spacing plus the confirmation, and the
// other way round. (Plus one: a probe that falls on the first run after
// the change is judged against the old link's model and may lose.)
func TestSqueezeGateFollowsLinkChange(t *testing.T) {
	const bound = squeezeMaxSpacing + squeezeConfirm + 1
	sizes := []int{15000, 9000, 22000}
	for _, tc := range []struct {
		name         string
		first, then  linkModel
		wantOn, toOn bool
	}{
		{"t1-to-loopback", t1Link, loopbackLink, true, false},
		{"loopback-to-t1", loopbackLink, t1Link, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			var g squeezeGate
			driveGate(&g, tc.first, sizes, 5000, rng)
			if g.on != tc.wantOn || g.spacing != squeezeMaxSpacing {
				t.Fatalf("before the change: on=%v spacing=%d, want on=%v spacing=%d", g.on, g.spacing, tc.wantOn, squeezeMaxSpacing)
			}
			runs := 0
			for g.on != tc.toOn && runs <= bound {
				driveGate(&g, tc.then, sizes, 1, rng)
				runs++
			}
			if g.on != tc.toOn {
				t.Fatalf("gate on=%v still, %d runs after the link changed (bound %d)", g.on, runs, bound)
			}
			t.Logf("switched %d runs after the change", runs)
		})
	}
}

// --- the engine ---

// blockWrite is one captured block write.
type blockWrite struct {
	lba  uint64
	data []byte
}

// tpccWrites loads a TPC-C database on a fresh device the way bench/
// populates its tpcc-t1 device and runs txns transactions on it. It
// returns the loaded image and every block write the transactions
// made, in order: replayed onto a copy of the image they reproduce the
// workload's parities.
func tpccWrites(t testing.TB, seed int64, txns int) (*block.MemStore, []blockWrite) {
	t.Helper()
	const pageSize, pages = 4 << 10, 4096
	cfg := minidb.DBConfig{CacheBytes: 256 << 10, WALPages: 32, CheckpointEvery: 16}
	scale := tpcc.DefaultScale(1)
	dev, err := block.NewMem(pageSize, pages)
	if err != nil {
		t.Fatal(err)
	}
	db, err := minidb.Create(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tpcc.Load(db, scale, seed); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	image := cloneStore(t, dev)

	var writes []blockWrite
	db, err = minidb.Open(block.NewObserved(dev, func(lba uint64, _, data []byte) {
		writes = append(writes, blockWrite{lba, append([]byte(nil), data...)})
	}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	client, err := tpcc.Open(db, scale, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Run(txns); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return image, writes
}

// cloneStore returns a fresh in-memory copy of src.
func cloneStore(t testing.TB, src block.Store) *block.MemStore {
	t.Helper()
	dst, err := block.NewMem(src.BlockSize(), src.NumBlocks())
	if err != nil {
		t.Fatal(err)
	}
	if err := block.Copy(dst, src); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestSqueezeConvergesOverT1 replays TPC-C's writes through an async
// primary whose replica sits behind a wan.Shape T1 link, once with the
// pipe's gate live and once with squeezing taken away, and checks that
// both replicas converge byte-identical, that the live pipe shipped
// squeezed entries, and that it put fewer bytes on the wire. The writer
// outruns T1 by orders of magnitude, so past the first round trip every
// run is a full one in both passes and the two wire totals differ by
// the squeeze alone.
func TestSqueezeConvergesOverT1(t *testing.T) {
	image, writes := tpccWrites(t, 7, 60)
	if len(writes) > 420 {
		writes = writes[:420] // ~13 full runs: about 2 s of T1 for the two passes together
	}

	ship := func(live bool) (stat ReplicaStat, sent int64) {
		primaryStore, replicaStore := cloneStore(t, image), cloneStore(t, image)
		target := iscsi.NewTarget()
		target.Export("replica", NewReplicaEngine(replicaStore))
		addr, err := target.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer target.Close()
		raw, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		client := iscsi.NewInitiator(wan.Shape(raw, wan.T1Link()))
		defer client.Close()
		if err := client.Login("replica"); err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(primaryStore, Config{Mode: ModePRINS, Async: true})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.AttachReplica(client); err != nil {
			t.Fatal(err)
		}
		if !live {
			e.replicas[0].pipes[0].sq = nil
		}
		for _, w := range writes {
			if err := e.WriteBlock(w.lba, w.data); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		mustEqual(t, "replica behind T1", replicaStore, primaryStore)
		stat = e.ReplicaStats()[0]
		return stat, stat.Metrics.WireBytes
	}

	plain, plainWire := ship(false)
	live, liveWire := ship(true)
	if plain.Metrics.Squeezed != 0 || plain.Metrics.SqueezeSavedWire != 0 {
		t.Errorf("pipe without a squeezer reports %d squeezed entries, %d bytes saved", plain.Metrics.Squeezed, plain.Metrics.SqueezeSavedWire)
	}
	if live.Metrics.Squeezed == 0 || live.Metrics.SqueezeSavedWire <= 0 {
		t.Errorf("live pipe behind T1: %d squeezed entries, %d bytes saved, want both > 0", live.Metrics.Squeezed, live.Metrics.SqueezeSavedWire)
	}
	if liveWire >= plainWire {
		t.Errorf("wire bytes %d with the gate live, %d without: squeezing saved nothing", liveWire, plainWire)
	}
	t.Logf("%d writes: wire %d -> %d bytes, %d of %d entries squeezed, %d switches",
		len(writes), plainWire, liveWire, live.Metrics.Squeezed, live.Metrics.Shipped-live.Metrics.Coalesced, live.Metrics.SqueezeSwitches)
}

// textBlock returns a block whose first n bytes are prose-like: its
// parity against a zero block is one long literal DEFLATE shrinks.
func textBlock(bs, n int, salt byte) []byte {
	buf := make([]byte, bs)
	const words = "warehouse district customer order line stock item history "
	for i := 0; i < n; i++ {
		buf[i] = words[(i+int(salt))%len(words)]
	}
	buf[0] = salt
	return buf
}

// frameCodecs maps a delivery's entries to their frame codecs (0 for a
// reference).
func frameCodecs(t *testing.T, entries []iscsi.BatchEntry) []xcode.Codec {
	t.Helper()
	out := make([]xcode.Codec, len(entries))
	for i, be := range entries {
		if be.ByRef() {
			continue
		}
		c, err := xcode.FrameCodec(be.Frame)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		out[i] = c
	}
	return out
}

// TestSqueezeRefMissAndCoalesce drives one squeezed backlog run through
// everything else the entry-list path does to a run: two parities for
// one LBA coalesce into a fresh frame and that frame is squeezed; a
// stale index entry ships a reference the replica refuses, and the
// refused suffix re-ships by value with its by-value entries still
// squeezed and the failed reference as encoded; a frame DEFLATE cannot
// shrink ships as encoded and is not counted. The replica converges and
// the counters say what went over the wire.
func TestSqueezeRefMissAndCoalesce(t *testing.T) {
	const bs, nb = 4096, 32
	e, replica, primaryStore, replicaStore, g := byrefPair(t, Config{
		Mode:          ModePRINS,
		Async:         true,
		BatchFrames:   8,
		DedupeEntries: 1024,
	}, bs, nb)
	replica.SetDedupe(0) // every reference comes back StatusRefMiss
	e.replicas[0].pipes[0].sq.gate.on = true

	known := textBlock(bs, 600, 1)
	noise := make([]byte, bs)
	rand.New(rand.NewSource(5)).Read(noise[:300]) // a literal DEFLATE cannot shrink
	if err := e.WriteBlock(0, known); err != nil {
		t.Fatal(err)
	}
	<-g.started // the warm-up is in flight; the next eight writes are one full run
	for _, w := range []blockWrite{
		{1, textBlock(bs, 700, 2)},
		{2, textBlock(bs, 500, 3)},
		{2, textBlock(bs, 900, 4)}, // coalesces with the one before
		{3, noise},
		{4, known}, // content the index learns from the warm-up: ships by reference, refused
		{5, textBlock(bs, 800, 5)},
		{6, textBlock(bs, 400, 6)},
		{7, textBlock(bs, 650, 7)},
	} {
		if err := e.WriteBlock(w.lba, w.data); err != nil {
			t.Fatal(err)
		}
	}
	close(g.gate)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "replica after a squeezed run with a refused reference", replicaStore, primaryStore)

	const zf, z = xcode.CodecZRLFlate, xcode.CodecZRL
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.byrefs) != 1 || len(g.batches) != 2 {
		t.Fatalf("%d by-ref pushes and %d by-value pushes, want 1 and 2 (warm-up, fallback)", len(g.byrefs), len(g.batches))
	}
	first, fallback := frameCodecs(t, g.byrefs[0]), frameCodecs(t, g.batches[1])
	if want := []xcode.Codec{zf, zf, z, 0, zf, zf, zf}; !slices.Equal(first, want) {
		t.Errorf("first push codecs %v, want %v (lba 2 coalesced and squeezed, noise as encoded, lba 4 a reference)", first, want)
	}
	if want := []xcode.Codec{z, zf, zf, zf}; !slices.Equal(fallback, want) {
		t.Errorf("fallback push codecs %v, want %v (the failed reference as encoded, the rest still squeezed)", fallback, want)
	}

	m := e.ReplicaStats()[0].Metrics
	if m.Squeezed != 5 {
		t.Errorf("Squeezed = %d, want 5 (lba 1, 2, 5, 6, 7)", m.Squeezed)
	}
	// PayloadBytes is what the replica acknowledged: the warm-up frame,
	// then each entry of the run in the form that finally arrived.
	payload := int64(len(g.batches[0][0].Frame))
	for _, be := range g.byrefs[0][:3] {
		payload += int64(len(be.Frame))
	}
	for _, be := range g.batches[1] {
		payload += int64(len(be.Frame))
	}
	if m.PayloadBytes != payload {
		t.Errorf("PayloadBytes = %d, want %d (the frames as shipped)", m.PayloadBytes, payload)
	}
	if m.SqueezeSavedWire < 5*200 {
		t.Errorf("SqueezeSavedWire = %d, want well over 1000: five prose literals of 400+ bytes", m.SqueezeSavedWire)
	}
	if m.Coalesced != 1 || m.DedupeMisses != 1 {
		t.Errorf("Coalesced = %d, DedupeMisses = %d, want 1, 1", m.Coalesced, m.DedupeMisses)
	}
}

// TestSqueezeBatchSavedWireExcludesSqueeze ships the same gated backlog
// with the gate forced on and with no squeezer: what batching saved is
// the same either way (to within the packet headers the smaller list no
// longer needs), and the bytes the squeeze took off are reported on
// their own counter.
func TestSqueezeBatchSavedWireExcludesSqueeze(t *testing.T) {
	const bs, nb = 4096, 32
	ship := func(squeeze bool) metricsOf {
		e, _, primaryStore, replicaStore, g := batchPair(t, Config{Mode: ModePRINS, Async: true, BatchFrames: 8}, bs, nb)
		p := e.replicas[0].pipes[0]
		if squeeze {
			p.sq.gate.on = true
		} else {
			p.sq = nil
		}
		if err := e.WriteBlock(0, textBlock(bs, 300, 9)); err != nil {
			t.Fatal(err)
		}
		<-g.started
		for lba := uint64(1); lba <= 8; lba++ {
			if err := e.WriteBlock(lba, textBlock(bs, 400+50*int(lba), byte(lba))); err != nil {
				t.Fatal(err)
			}
		}
		close(g.gate)
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		mustEqual(t, "replica", replicaStore, primaryStore)
		m := e.ReplicaStats()[0].Metrics
		return metricsOf{m.BatchSavedWire, m.SqueezeSavedWire, m.WireBytes, m.Squeezed}
	}
	plain, squeezed := ship(false), ship(true)
	if squeezed.squeezed != 8 || squeezed.sqSaved <= 0 {
		t.Fatalf("forced-on run squeezed %d entries for %d bytes, want all 8", squeezed.squeezed, squeezed.sqSaved)
	}
	if got := plain.wire - squeezed.wire; got < squeezed.sqSaved {
		t.Errorf("wire fell by %d bytes, squeeze reports %d saved", got, squeezed.sqSaved)
	}
	// The modelled wire charges 112 bytes per started packet, so the two
	// batch savings may differ by the headers of the packets the squeeze
	// emptied, never by the squeeze's own bytes.
	slack := int64(wan.PacketHeader) * int64(wan.Packets(int(squeezed.sqSaved))+1)
	if d := squeezed.batchSaved - plain.batchSaved; d < 0 || d > slack {
		t.Errorf("BatchSavedWire %d squeezed vs %d plain (squeeze saved %d): batching's saving absorbed the squeeze's",
			squeezed.batchSaved, plain.batchSaved, squeezed.sqSaved)
	}
}

type metricsOf struct{ batchSaved, sqSaved, wire, squeezed int64 }

// flakyBatchClient fails the first attempt of every batch push.
type flakyBatchClient struct {
	*gatedClient
	mu    sync.Mutex
	calls int
}

var errFlaky = errors.New("flaky: first attempt lost")

func (c *flakyBatchClient) ReplicaWriteBatch(mode uint8, entries []iscsi.BatchEntry) ([]iscsi.Status, error) {
	c.mu.Lock()
	c.calls++
	first := c.calls%2 == 1
	c.mu.Unlock()
	if first {
		return nil, errFlaky
	}
	return c.gatedClient.ReplicaWriteBatch(mode, entries)
}

// TestSqueezeGateLearnsFromCleanPushesOnly: a backlog run that needed a
// retry, one that failed into degraded mode, one dropped while degraded
// and one whose refused suffix took a second push leave the gate exactly
// as it was; the same backlog through a clean client teaches it.
func TestSqueezeGateLearnsFromCleanPushesOnly(t *testing.T) {
	const bs, nb = 4096, 64
	backlog := func(t *testing.T, e *Engine, started <-chan struct{}, open func()) {
		t.Helper()
		if err := e.WriteBlock(0, textBlock(bs, 300, 1)); err != nil {
			t.Fatal(err)
		}
		<-started
		for lba := uint64(1); lba <= 24; lba++ { // three full runs of 8
			if err := e.WriteBlock(lba, textBlock(bs, 500, byte(lba))); err != nil {
				t.Fatal(err)
			}
		}
		open()
		_ = e.Drain() // the failing case reports its delivery error here; the gate is what is checked
	}
	pair := func(t *testing.T, cfg Config, wrap func(*gatedClient) ReplicaClient) (*Engine, *gatedClient) {
		t.Helper()
		primaryStore, err := block.NewMem(bs, nb)
		if err != nil {
			t.Fatal(err)
		}
		replicaStore, err := block.NewMem(bs, nb)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(primaryStore, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		g := newGatedClient(NewReplicaEngine(replicaStore))
		if err := e.AttachReplica(wrap(g)); err != nil {
			t.Fatal(err)
		}
		return e, g
	}
	base := Config{Mode: ModePRINS, Async: true, BatchFrames: 8}

	t.Run("clean", func(t *testing.T) {
		e, g := pair(t, base, func(g *gatedClient) ReplicaClient { return g })
		backlog(t, e, g.started, func() { close(g.gate) })
		if gate := e.replicas[0].pipes[0].sq.gate; gate.n == 0 {
			t.Errorf("three clean backlog runs taught the gate nothing: %+v", gate)
		}
	})
	t.Run("retried", func(t *testing.T) {
		cfg := base
		cfg.Retry = RetryPolicy{Attempts: 2}
		var flaky *flakyBatchClient
		e, g := pair(t, cfg, func(g *gatedClient) ReplicaClient {
			flaky = &flakyBatchClient{gatedClient: g}
			return flaky
		})
		backlog(t, e, g.started, func() { close(g.gate) })
		if got := e.ReplicaStats()[0].Metrics; got.Retries < 3 || got.Shipped != 25 {
			t.Fatalf("retries %d, shipped %d: the flaky client did not make every batch retry", got.Retries, got.Shipped)
		}
		if gate := e.replicas[0].pipes[0].sq.gate; gate != (squeezeGate{}) {
			t.Errorf("retried pushes taught the gate: %+v", gate)
		}
	})
	t.Run("failed-then-degraded", func(t *testing.T) {
		cfg := base
		cfg.AllowDegraded = true
		var flaky *flakyBatchClient
		e, g := pair(t, cfg, func(g *gatedClient) ReplicaClient {
			flaky = &flakyBatchClient{gatedClient: g}
			return flaky
		})
		backlog(t, e, g.started, func() { close(g.gate) })
		if !e.Degraded() {
			t.Fatal("a failed batch with no retry budget did not degrade the replica")
		}
		if gate := e.replicas[0].pipes[0].sq.gate; gate != (squeezeGate{}) {
			t.Errorf("failed and dropped runs taught the gate: %+v", gate)
		}
	})
	t.Run("ref-miss", func(t *testing.T) {
		cfg := base
		cfg.DedupeEntries = 1024
		e, replica, _, _, g := byrefPair(t, cfg, bs, nb)
		replica.SetDedupe(0)
		known := textBlock(bs, 300, 1)
		if err := e.WriteBlock(0, known); err != nil {
			t.Fatal(err)
		}
		<-g.started
		for lba := uint64(1); lba <= 8; lba++ { // one full run, its first entry a reference
			data := textBlock(bs, 500, byte(lba))
			if lba == 1 {
				data = known
			}
			if err := e.WriteBlock(lba, data); err != nil {
				t.Fatal(err)
			}
		}
		close(g.gate)
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		if got := e.ReplicaStats()[0].Metrics.DedupeMisses; got != 1 {
			t.Fatalf("DedupeMisses = %d, want 1", got)
		}
		if gate := e.replicas[0].pipes[0].sq.gate; gate != (squeezeGate{}) {
			t.Errorf("a run that needed a fallback push taught the gate: %+v", gate)
		}
	})
}

// TestSqueezeSteadyStateAllocs: once its encoder and arena have grown
// to the pipe's runs, squeezing a run and consulting the gate allocate
// nothing.
func TestSqueezeSteadyStateAllocs(t *testing.T) {
	const bs, frames = 4096, 32
	entries := make([]iscsi.BatchEntry, frames)
	groups := make([]batchGroup, frames)
	src := make([][]byte, frames)
	for k := range entries {
		frame, err := xcode.Encode(xcode.CodecZRL, textBlock(bs, 300+20*k, byte(k)))
		if err != nil {
			t.Fatal(err)
		}
		src[k] = frame
	}
	sq := &squeezer{gate: squeezeGate{on: true}}
	run := func() {
		for k := range entries {
			entries[k].Frame, groups[k] = src[k], batchGroup{}
			groups[k].entry.Frame = src[k]
		}
		sq.gate.next()
		sq.squeeze(entries, groups)
		sq.gate.observe(true, 15000, 70*time.Millisecond)
	}
	run()
	if got := testing.AllocsPerRun(50, run); got != 0 {
		t.Errorf("steady-state squeeze of a %d-frame run: %.1f allocs, want 0", frames, got)
	}
	for k := range entries {
		if groups[k].squeezed <= 0 || len(entries[k].Frame) >= len(src[k]) {
			t.Fatalf("entry %d not squeezed: %d -> %d bytes", k, len(src[k]), len(entries[k].Frame))
		}
		got, err := xcode.Decode(entries[k].Frame)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := xcode.Decode(src[k])
		if string(got) != string(want) {
			t.Fatalf("entry %d: squeezed frame decodes to a different block", k)
		}
	}
}
