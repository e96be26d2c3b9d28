package core

import (
	"bytes"
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

// t3TarLink is the tar workload's pipe, sized from what its shipper
// measured: a push of a few KB behind T3 takes about 3 ms, squeezing a
// run takes 0.4 ms and a third of its bytes off, and the durations
// spread by a fifth either way (the measured runs' sd is 16% about
// either mode's fit). Squeezing costs a little time on a small run and
// saves a little on a big one: about a wash, so the gate squeezes.
var t3TarLink = linkModel{alpha: 3 * time.Millisecond, rate: wan.T3.BytesPerSecond, cpu: 400 * time.Microsecond, shrink: 0.65, jitter: 0.20}

// tarRunSizes are the tar pipe's backlog runs, in plain wire bytes.
var tarRunSizes = []int{1600, 2400, 3300, 4500, 6000, 8000, 10000}

// TestSqueezeGateTurnsOnBehindT3Tar: on a latency-bound link where
// squeezing takes about as long as shipping plain, the gate leans to the
// bytes. Noise-free, each of ten pipes is on within one lost probe's
// worth of runs (a first probe is judged against a model of two runs,
// which may have been of one size); with a fifth of noise on every
// duration a lost probe or two can hold a pipe off longer, but each
// squeezes at least 98% of its runs, turn-on included.
func TestSqueezeGateTurnsOnBehindT3Tar(t *testing.T) {
	const pipes, runs = 10, 20000
	// Two incumbent runs, a probe that wins and a confirmation that
	// loses, twice the spacing, a probe and its confirmation.
	const within = squeezeMinSpacing + squeezeConfirm + 2*squeezeMinSpacing + squeezeConfirm
	for _, noisy := range []bool{false, true} {
		link := t3TarLink
		if !noisy {
			link.jitter = 0
		}
		var turnOn []int
		for seed := int64(1); seed <= pipes; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var g squeezeGate
			n, squeezed := 0, 0
			for ; n < runs && !g.on; n++ {
				squeezed += driveGate(&g, link, tarRunSizes, 1, rng)
			}
			turnOn = append(turnOn, n)
			if !noisy && n > within {
				t.Errorf("noise-free pipe %d: gate on after %d runs, want <= %d", seed, n, within)
			}
			squeezed += driveGate(&g, link, tarRunSizes, runs-n, rng)
			if squeezed*100 < 98*runs {
				t.Errorf("noisy=%v pipe %d: %d of %d runs squeezed on the tar pipe, want >= 98%%", noisy, seed, squeezed, runs)
			}
		}
		t.Logf("noisy=%v: gate on after %v runs", noisy, turnOn)
	}
}

// TestSqueezeGateStaysOffWhenSlower: the lean to bytes is a tenth, not
// more. Where squeezing makes a push a fifth slower, the gate stays off
// and squeezes its probes only.
func TestSqueezeGateStaysOffWhenSlower(t *testing.T) {
	// 3 ms a push of 1600 bytes plain, 0.76 ms more squeezed: 3.29 ms
	// against 3.95.
	slower := linkModel{alpha: 3 * time.Millisecond, rate: wan.T3.BytesPerSecond, cpu: 760 * time.Microsecond, shrink: 0.65}
	noisy := slower
	noisy.jitter = 0.05
	for _, tc := range []struct {
		name string
		link linkModel
	}{{"steady", slower}, {"noisy", noisy}} {
		t.Run(tc.name, func(t *testing.T) {
			const runs = 20000
			var g squeezeGate
			squeezed := driveGate(&g, tc.link, []int{1600}, runs, rand.New(rand.NewSource(5)))
			if g.on {
				t.Errorf("gate ended on: %+v", g)
			}
			if squeezed*100 > runs {
				t.Errorf("%d of %d runs squeezed where squeezing is a fifth slower, want <= 1%%", squeezed, runs)
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
// one LBA coalesce into a fresh frame, which rides in the stream; a
// stale index entry ships a reference the replica refuses, and the
// refused suffix re-ships by value, squeezed again on a fresh history;
// a frame of random literals rides in the stream too and takes its
// share of the saving. The replica converges, and the counters say
// what went over the wire: each delivered entry is booked at its frame
// less its share of its push's saving, and the wire at what the pushes
// carried.
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

	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.byrefs) != 1 || len(g.batches) != 2 || len(g.sent) != 2 {
		t.Fatalf("%d by-ref pushes, %d by-value pushes, %d squeezed; want 1, 2 (warm-up, fallback), 2 (run, fallback)", len(g.byrefs), len(g.batches), len(g.sent))
	}
	const z = xcode.CodecZRL
	if first, want := frameCodecs(t, g.byrefs[0]), []xcode.Codec{z, z, z, 0, z, z, z}; !slices.Equal(first, want) {
		t.Errorf("first push codecs %v, want %v (lba 2 coalesced, lba 4 a reference)", first, want)
	}
	for k, s := range g.sent {
		if s[0] >= s[1] {
			t.Errorf("squeezed push %d shipped %d bytes, %d plain", k, s[0], s[1])
		}
	}

	m := e.ReplicaStats()[0].Metrics
	if m.Squeezed != 7 {
		t.Errorf("Squeezed = %d, want 7 (lba 1, 2, 3 in the run's push, 4 to 7 in the fallback)", m.Squeezed)
	}
	// PayloadBytes is what the replica acknowledged: the warm-up frame,
	// then each entry of the run in the push that delivered it, at its
	// frame less its share of that push's saving.
	plain := int64(len(g.batches[0][0].Frame))
	for _, be := range g.byrefs[0][:3] {
		plain += int64(len(be.Frame))
	}
	for _, be := range g.batches[1] {
		plain += int64(len(be.Frame))
	}
	if m.PayloadBytes != plain-m.SqueezeSavedWire {
		t.Errorf("PayloadBytes = %d, want %d: the frames as encoded, %d, less the %d bytes squeezing saved on them", m.PayloadBytes, plain-m.SqueezeSavedWire, plain, m.SqueezeSavedWire)
	}
	if m.SqueezeSavedWire < 5*200 {
		t.Errorf("SqueezeSavedWire = %d, want well over 1000: five prose literals of 400+ bytes", m.SqueezeSavedWire)
	}
	wire := int64(wan.WireBytesDiscrete(len(g.batches[0][0].Frame))) // the warm-up, a list of one, goes out as its frame
	for _, s := range g.sent {
		wire += int64(wan.WireBytesDiscrete(s[0]))
	}
	if m.WireBytes != wire {
		t.Errorf("WireBytes = %d, want %d: the warm-up and the two squeezed pushes as shipped", m.WireBytes, wire)
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

func (c *flakyBatchClient) ReplicaWriteSqueezed(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry, refs bool) ([]iscsi.Status, int, error) {
	c.mu.Lock()
	c.calls++
	first := c.calls%2 == 1
	c.mu.Unlock()
	if first {
		return nil, 0, errFlaky
	}
	return c.gatedClient.ReplicaWriteSqueezed(mode, shard, vol, entries, refs)
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
		e, g, _, _ := wrappedPair(t, cfg, bs, nb, wrap)
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

// wrappedPair builds an engine on a fresh pair of stores whose replica
// sits behind a gated loopback client, as wrap presents it to the
// engine.
func wrappedPair(t *testing.T, cfg Config, bs int, nb uint64, wrap func(*gatedClient) ReplicaClient) (*Engine, *gatedClient, block.Store, block.Store) {
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
	return e, g, primaryStore, replicaStore
}

// gatedRuns writes a warm-up block, which the gated client holds, then
// runs full runs of text blocks behind it, opens the gate and drains:
// with Config.BatchFrames 8, the writes ship as runs backlog runs of 8.
func gatedRuns(t *testing.T, e *Engine, g *gatedClient, bs, runs int) {
	t.Helper()
	if err := e.WriteBlock(uint64(8*runs), textBlock(bs, 300, 0)); err != nil {
		t.Fatal(err)
	}
	<-g.started
	for lba := 0; lba < 8*runs; lba++ {
		if err := e.WriteBlock(uint64(lba), textBlock(bs, 400+50*(lba%7), byte(lba))); err != nil {
			t.Fatal(err)
		}
	}
	close(g.gate)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

// stepClock is a clock for a pipe's squeezer that moves only when a
// test's client pushes: a push takes what the client says it takes.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *stepClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *stepClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// clockedPair is wrappedPair with the pipe's squeezer timed by a
// stepClock, which the returned engine's client advances.
func clockedPair(t *testing.T, bs int, nb uint64, wrap func(*gatedClient, *stepClock) ReplicaClient) (*Engine, *gatedClient, block.Store, block.Store) {
	t.Helper()
	clock := new(stepClock)
	e, g, primaryStore, replicaStore := wrappedPair(t, Config{Mode: ModePRINS, Async: true, BatchFrames: 8}, bs, nb,
		func(g *gatedClient) ReplicaClient { return wrap(g, clock) })
	e.replicas[0].pipes[0].sq.now = clock.now
	return e, g, primaryStore, replicaStore
}

// plainSqueezer is a squeezing client whose lists never come out
// smaller: every squeezed push claims the stream's history, as a
// session's does, and ships the list plain. Every list push takes 2 ms
// on the pipe's clock, squeezed or not.
type plainSqueezer struct {
	*gatedClient
	clock *stepClock
	mu    sync.Mutex
	asked int  // squeezed pushes asked for
	held  bool // a history claimed since the last ResetSqueeze
}

func (c *plainSqueezer) ReplicaWriteBatch(mode uint8, entries []iscsi.BatchEntry) ([]iscsi.Status, error) {
	c.clock.advance(2 * time.Millisecond)
	return c.gatedClient.ReplicaWriteBatch(mode, entries)
}

func (c *plainSqueezer) ReplicaWriteSqueezed(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry, refs bool) ([]iscsi.Status, int, error) {
	c.mu.Lock()
	c.asked++
	c.held = true
	c.mu.Unlock()
	st, err := c.ReplicaWriteBatch(mode, entries)
	return st, iscsi.BatchWireLen(entries), err
}

func (c *plainSqueezer) ResetSqueeze(uint8, uint16) {
	c.mu.Lock()
	c.held = false
	c.mu.Unlock()
}

// TestSqueezeGateLearnsShippedMode: a squeeze probe whose list came out
// no smaller shipped plain, and the gate learns it so. Each such probe
// is lost, the gate never switches on, and the pipe drops the stream's
// history after every one.
func TestSqueezeGateLearnsShippedMode(t *testing.T) {
	const bs, runs = 4096, 24
	var c *plainSqueezer
	e, g, primaryStore, replicaStore := clockedPair(t, bs, 8*runs+1, func(g *gatedClient, clock *stepClock) ReplicaClient {
		c = &plainSqueezer{gatedClient: g, clock: clock}
		return c
	})
	gatedRuns(t, e, g, bs, runs)
	mustEqual(t, "replica", replicaStore, primaryStore)

	// 24 runs: probes after 2, 4 and 8 incumbent runs, each lost.
	gate := e.replicas[0].pipes[0].sq.gate
	m := e.ReplicaStats()[0].Metrics
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.asked != 3 || gate.spacing != 8*squeezeMinSpacing {
		t.Errorf("%d squeezed pushes asked for, gate spacing %d; want 3 probes, all lost (spacing %d)", c.asked, gate.spacing, 8*squeezeMinSpacing)
	}
	if gate.on || m.SqueezeSwitches != 0 || m.Squeezed != 0 {
		t.Errorf("gate on=%v after %d switches, %d entries booked squeezed: probes that shipped plain won", gate.on, m.SqueezeSwitches, m.Squeezed)
	}
	if c.held {
		t.Error("the stream's history is held after lost probes")
	}
}

// slowSqueezer is a link on which a pipe that squeezes switches its
// gate off: a plain list push takes 1 ms on the pipe's clock, a
// squeezed one 11.
type slowSqueezer struct {
	*gatedClient
	clock *stepClock
}

func (c slowSqueezer) ReplicaWriteBatch(mode uint8, entries []iscsi.BatchEntry) ([]iscsi.Status, error) {
	c.clock.advance(time.Millisecond)
	return c.gatedClient.ReplicaWriteBatch(mode, entries)
}

func (c slowSqueezer) ReplicaWriteSqueezed(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry, refs bool) ([]iscsi.Status, int, error) {
	c.clock.advance(11 * time.Millisecond)
	return c.gatedClient.ReplicaWriteSqueezed(mode, shard, vol, entries, refs)
}

// TestSqueezeSwitchOffKeepsHistory: a pipe whose gate switches off keeps
// its stream's history at both ends, so its next squeeze probe is built
// on that history, its tag continuing the stream's count, not a fresh
// push's 1.
func TestSqueezeSwitchOffKeepsHistory(t *testing.T) {
	const bs, runs = 4096, 8
	e, g, primaryStore, replicaStore := clockedPair(t, bs, 8*runs+1, func(g *gatedClient, clock *stepClock) ReplicaClient {
		return slowSqueezer{g, clock}
	})
	e.replicas[0].pipes[0].sq.gate.on = true
	gatedRuns(t, e, g, bs, runs)
	mustEqual(t, "replica", replicaStore, primaryStore)

	// Two squeezed runs; two plain probes, far faster, switch the gate
	// off; two plain runs; a squeeze probe, which loses; a plain run.
	if m := e.ReplicaStats()[0].Metrics; m.SqueezeSwitches != 1 {
		t.Fatalf("%d gate switches, want 1 (off)", m.SqueezeSwitches)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !slices.Equal(g.tags, []uint64{1, 2, 3}) {
		t.Errorf("squeezed pushes' history tags %v, want [1 2 3]: the probe after the switch off is built on the stream's history", g.tags)
	}
}

// TestSqueezeSteadyStateAllocs: once the stream's encoder and buffers
// have grown to the pipe's runs, consulting the gate and squeezing a run
// against the stream's history, at both ends, allocate nothing.
func TestSqueezeSteadyStateAllocs(t *testing.T) {
	const bs, frames = 4096, 32
	entries := make([]iscsi.BatchEntry, frames)
	for k := range entries {
		frame, err := xcode.Encode(xcode.CodecZRL, textBlock(bs, 300+20*k, byte(k)))
		if err != nil {
			t.Fatal(err)
		}
		entries[k] = iscsi.BatchEntry{Seq: uint64(k + 1), LBA: uint64(k), Hash: uint64(k), Frame: frame}
	}
	sq := &squeezer{gate: squeezeGate{on: true}}
	var tx iscsi.SqueezeSender
	var rx iscsi.SqueezeReceiver
	var decoded []iscsi.BatchEntry
	plain := iscsi.BatchWireLen(entries)
	var sent int
	run := func() {
		sq.gate.next()
		seg, tag, ok, err := tx.Encode(entries, false)
		if err != nil || !ok {
			t.Fatalf("encode ok %v: %v", ok, err)
		}
		if decoded, err = rx.Decode(decoded, seg, tag, false); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		sent = len(seg)
		sq.gate.observe(true, plain, 70*time.Millisecond)
	}
	run()
	if got := testing.AllocsPerRun(50, run); got != 0 {
		t.Errorf("steady-state squeeze of a %d-frame run: %.1f allocs, want 0", frames, got)
	}
	if sent >= plain {
		t.Fatalf("a run of %d prose parities squeezed to %d bytes from %d", frames, sent, plain)
	}
	for k := range entries {
		if !bytes.Equal(decoded[k].Frame, entries[k].Frame) {
			t.Fatalf("entry %d: the squeezed run decodes to a different frame", k)
		}
	}
}

// TestSqueezeGateSkipsShortStreams: a run that puts fewer than
// squeezeMinStream bytes in a squeezed list's stream (references only,
// or one frame of a few changed bytes) is not the gate's, even with a
// probe due: it ships plain and leaves the gate as it was. One more
// streamed frame makes it a probe.
func TestSqueezeGateSkipsShortStreams(t *testing.T) {
	const bs = 4096
	few := make([]byte, bs)
	copy(few[100:], "mtime+size")
	frame, err := xcode.Encode(xcode.CodecZRL, few)
	if err != nil {
		t.Fatal(err)
	}
	short := []iscsi.BatchEntry{{Seq: 1, LBA: 1, Hash: 1}, {Seq: 2, LBA: 2, Hash: 2, Frame: frame}} // a reference and a 10-byte change
	if len(short[1].InStream()) >= squeezeMinStream {
		t.Fatalf("a 10-byte change streams %d bytes", len(short[1].InStream()))
	}
	due := squeezeGate{since: squeezeMinSpacing} // off, a probe due
	sq := &squeezer{gate: due}
	if r := sq.begin(short, iscsi.BatchWireLen(short)); r.sq != nil || r.squeezed || sq.gate != due {
		t.Errorf("a run streaming %d bytes: seen %v, squeezed %v, gate %+v; want unseen and the gate as it was", len(short[1].InStream()), r.sq != nil, r.squeezed, sq.gate)
	}
	text, err := xcode.Encode(xcode.CodecZRL, textBlock(bs, 400, 1))
	if err != nil {
		t.Fatal(err)
	}
	long := append(short, iscsi.BatchEntry{Seq: 3, LBA: 3, Hash: 3, Frame: text})
	if r := sq.begin(long, iscsi.BatchWireLen(long)); r.sq == nil || !r.squeezed {
		t.Errorf("a run streaming a 400-byte text frame: seen %v, squeezed %v; want a squeeze probe", r.sq != nil, r.squeezed)
	}
}

// TestSqueezeProbeAbortsIncompressible replays the incompressible corpus
// of the root squeezeCorpora (clustered runs of random bytes, seed 17:
// 64 parities of 8 KiB) as writes on a zero device through an async pipe
// whose gate is live. Every probe the gate calls for is lost on the
// spot, its first bytes failing the Huffman-only check: no run ships
// squeezed, so no encoder is ever built, and the gate's spacing doubles
// per lost probe as observe doubles it for a probe that lost on time.
func TestSqueezeProbeAbortsIncompressible(t *testing.T) {
	const bs, nb = 8 << 10, 80
	rng := rand.New(rand.NewSource(17))
	random := make([][]byte, 64)
	for i := range random {
		fp := make([]byte, bs)
		for changed := 0; changed < len(fp)/10; {
			run := 8 + rng.Intn(48)
			off := rng.Intn(len(fp) - run)
			rng.Read(fp[off : off+run])
			changed += run
		}
		random[i] = fp
	}
	e, _, primaryStore, replicaStore, g := batchPair(t, Config{Mode: ModePRINS, Async: true, BatchFrames: 8}, bs, nb)
	if err := e.WriteBlock(nb-1, random[0]); err != nil {
		t.Fatal(err)
	}
	<-g.started // the warm-up is in flight; the 64 writes behind it are eight full runs
	for lba, data := range random {
		if err := e.WriteBlock(uint64(lba), data); err != nil {
			t.Fatal(err)
		}
	}
	close(g.gate)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "replica", replicaStore, primaryStore)

	// Eight incumbent runs with a probe due after 2, then after 4: the
	// third and the seventh run were probes, both lost.
	lost := squeezeGate{}
	lost.lose()
	lost.lose()
	gate := e.replicas[0].pipes[0].sq.gate
	if gate.on || gate.spacing != lost.spacing || gate.spacing != 4*squeezeMinSpacing {
		t.Errorf("gate after eight runs with two lost probes: %+v, want off with spacing %d", gate, 4*squeezeMinSpacing)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.sent) != 0 {
		t.Errorf("%d runs shipped squeezed: a probe that cannot pay built an encoder", len(g.sent))
	}
	if m := e.ReplicaStats()[0].Metrics; m.Squeezed != 0 {
		t.Errorf("Squeezed = %d, want 0", m.Squeezed)
	}
}
