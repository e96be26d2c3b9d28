package core

import (
	"bytes"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"

	"prins/internal/block"
	"prins/internal/iscsi"
	"prins/internal/minidb"
	"prins/internal/tpcc"
	"prins/internal/wan"
	"prins/internal/xcode"
)

// --- the gate, as a pure type ---

// TestSqueezeGateByteRule drives a pipe's squeezer through backlog runs
// of a compressible list. Each run's outcome is a letter: y its
// squeezed list came out smaller, n it came out no smaller (and shipped
// plain), - a plain run went through, x the push failed. want is the
// mode the gate asked each run for, S squeezed or p plain.
func TestSqueezeGateByteRule(t *testing.T) {
	var entries []iscsi.BatchEntry
	for k := range 4 {
		frame, err := xcode.Encode(xcode.CodecZRL, textBlock(4096, 400, byte(k)))
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, iscsi.BatchEntry{Seq: uint64(k + 1), LBA: uint64(k), Hash: 1, Frame: frame})
	}
	plain := iscsi.BatchWireLen(entries)
	for _, tc := range []struct {
		name              string
		from              squeezeGate
		outcomes, want    string
		to                squeezeGate
		switches, forgets int
	}{
		{"turn-on", squeezeGate{}, "--yyy", "ppSSS", squeezeGate{on: true}, 1, 0},
		{"turn-off", squeezeGate{on: true}, "yn----y", "SSppppS", squeezeGate{on: true}, 2, 1},
		{"spacing-doubles-and-resets", squeezeGate{},
			"--n----n--------yn----y",
			"ppSppppSppppppppSSppppS", squeezeGate{on: true}, 3, 3},
		{"spacing-caps", squeezeGate{spacing: squeezeMaxSpacing, since: squeezeMaxSpacing},
			"n-", "Sp", squeezeGate{spacing: squeezeMaxSpacing, since: 1}, 0, 1},
		{"failed-plain", squeezeGate{}, "xxxx", "pppp", squeezeGate{}, 0, 0},
		{"failed-probe", squeezeGate{since: squeezeMinSpacing}, "xxy", "SSS", squeezeGate{on: true}, 1, 0},
		{"failed-on", squeezeGate{on: true}, "xxx", "SSS", squeezeGate{on: true}, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sq := &squeezer{gate: tc.from}
			var asked []byte
			switches, forgets := 0, 0
			for _, o := range tc.outcomes {
				r := sq.begin(entries, plain)
				sent := plain
				switch {
				case o == 'x':
					sent = 0
				case r.squeezed && o == 'y':
					sent = plain - 1
				}
				mode := byte('p')
				if r.squeezed {
					mode = 'S'
				}
				asked = append(asked, mode)
				switched, forget := r.end(o != 'x', sent)
				if switched {
					switches++
				}
				if forget {
					forgets++
				}
			}
			if string(asked) != tc.want || sq.gate != tc.to {
				t.Errorf("runs asked %s ending at %+v, want %s ending at %+v", asked, sq.gate, tc.want, tc.to)
			}
			if switches != tc.switches || forgets != tc.forgets {
				t.Errorf("%d switches and %d histories forgotten, want %d and %d", switches, forgets, tc.switches, tc.forgets)
			}
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

// plainSqueezer is a squeezing client whose lists never come out
// smaller: every squeezed push claims the stream's history, as a
// session's does, and ships the list plain.
type plainSqueezer struct {
	*gatedClient
	mu    sync.Mutex
	asked int  // squeezed pushes asked for
	held  bool // a history claimed since the last ResetSqueeze
}

func (c *plainSqueezer) ReplicaWriteSqueezed(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) ([]iscsi.Status, int, error) {
	c.mu.Lock()
	c.asked++
	c.held = true
	c.mu.Unlock()
	st, err := c.ReplicaWriteBatchStream(mode, shard, vol, entries)
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
	e, g, primaryStore, replicaStore := wrappedPair(t, Config{Mode: ModePRINS, Async: true, BatchFrames: 8}, bs, 8*runs+1,
		func(g *gatedClient) ReplicaClient {
			c = &plainSqueezer{gatedClient: g}
			return c
		})
	gatedRuns(t, e, g, bs, runs)
	mustEqual(t, "replica", replicaStore, primaryStore)

	// 24 runs: probes after 2, 4 and 8 plain runs, each lost.
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
		seg, tag, ok, err := tx.Encode(entries)
		if err != nil || !ok {
			t.Fatalf("encode ok %v: %v", ok, err)
		}
		if decoded, err = rx.Decode(decoded, seg, tag); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		sent = len(seg)
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
// squeezeMinStream bytes in a squeezed list's stream (a reference and
// one frame of a few changed bytes, headers and all) is not the gate's,
// even with a probe due: it ships plain and leaves the gate as it was.
// One more frame of text makes it a probe.
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
