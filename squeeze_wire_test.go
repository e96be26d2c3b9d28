package prins_test

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"

	"prins/internal/block"
	"prins/internal/core"
	"prins/internal/iscsi"
	"prins/internal/memfs"
	"prins/internal/minidb"
	"prins/internal/resync"
	"prins/internal/tpcc"
	"prins/internal/wan"
)

// pduMeter reads the PDUs an initiator writes to its connection: it
// counts the bytes, the headers, the data-segment bytes, and the
// data segments as the engine models them on the wire
// (wan.WireBytesDiscrete of each segment). The initiator hands a
// connection without WriteBuffers each PDU in one Write; the meter
// parses the stream all the same, so a PDU split across writes would be
// counted whole.
type pduMeter struct {
	net.Conn
	mu                   sync.Mutex
	pending              []byte
	bytes, pdus, data    int64
	modelled, squeezedTo int64
}

func (m *pduMeter) Write(p []byte) (int, error) {
	m.mu.Lock()
	m.bytes += int64(len(p))
	m.pending = append(m.pending, p...)
	for len(m.pending) >= 48 {
		n := int(binary.BigEndian.Uint32(m.pending[24:]))
		if len(m.pending) < 48+n {
			break
		}
		m.pdus++
		m.data += int64(n)
		m.modelled += int64(wan.WireBytesDiscrete(n))
		if seq := binary.BigEndian.Uint64(m.pending[28:]); seq != 0 && m.pending[2] != byte(iscsi.OpReplicaWrite) {
			m.squeezedTo += int64(n) // an entry list with a history tag: squeezed
		}
		m.pending = m.pending[48+n:]
	}
	m.mu.Unlock()
	return m.Conn.Write(p)
}

// pageWrite is one block write of a replayed workload.
type pageWrite struct {
	lba  uint64
	data []byte
}

// tpccBlockWrites loads a TPC-C database on a fresh 4 KiB-page device
// the way bench/ populates tpcc-t1 and runs txns transactions on it. It
// returns a copy of the loaded image and every block write the
// transactions made, in order.
func tpccBlockWrites(tb testing.TB, seed int64, txns int) (block.Store, []pageWrite) {
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
	image, err := block.NewMem(pageSize, pages)
	if err != nil {
		tb.Fatal(err)
	}
	if err := block.Copy(image, dev); err != nil {
		tb.Fatal(err)
	}
	var writes []pageWrite
	db, err = minidb.Open(block.NewObserved(dev, func(lba uint64, _, data []byte) {
		writes = append(writes, pageWrite{lba, append([]byte(nil), data...)})
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
	return image, writes
}

// TestSqueezeWireAccounting replays TPC-C's writes through an async
// primary whose replica sits behind a T1-shaped net.Pipe, where the
// pipe's gate turns squeezing on, and holds the engine's books to the
// bytes the connection carried: the modelled WireBytes is exactly the
// modelled cost of every data segment the initiator wrote, the
// connection's bytes less the 48-byte PDU header of each PDU on it.
func TestSqueezeWireAccounting(t *testing.T) {
	image, writes := tpccBlockWrites(t, 7, 60)
	if len(writes) > 420 {
		writes = writes[:420] // ~13 full runs behind T1
	}
	primary, replica := cloneMem(t, image), cloneMem(t, image)

	target := iscsi.NewTarget()
	target.Export("r", core.NewReplicaEngine(replica))
	client, server := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		target.ServeConn(server)
	}()
	meter := &pduMeter{Conn: wan.Shape(client, wan.T1Link())}
	init := iscsi.NewInitiator(meter)
	t.Cleanup(func() {
		init.Close()
		wg.Wait()
	})
	if err := init.Login("r"); err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(primary, core.Config{Mode: core.ModePRINS, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.AttachReplica(init); err != nil {
		t.Fatal(err)
	}
	meter.mu.Lock()
	meter.bytes, meter.pdus, meter.data, meter.modelled, meter.squeezedTo = 0, 0, 0, 0, 0 // the login is not the engine's
	meter.mu.Unlock()
	for _, w := range writes {
		if err := e.WriteBlock(w.lba, w.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if eq, err := block.Equal(primary, replica); err != nil || !eq {
		t.Fatalf("replica differs from the primary (%v)", err)
	}

	m := e.ReplicaStats()[0].Metrics
	meter.mu.Lock()
	defer meter.mu.Unlock()
	if meter.squeezedTo == 0 || m.Squeezed == 0 || m.SqueezeSavedWire <= 0 {
		t.Fatalf("no squeezed run: %d squeezed bytes on the wire, %d entries, %d bytes saved", meter.squeezedTo, m.Squeezed, m.SqueezeSavedWire)
	}
	if len(meter.pending) != 0 || meter.bytes-48*meter.pdus != meter.data {
		t.Fatalf("the meter read %d bytes as %d PDUs of %d data bytes, %d left over", meter.bytes, meter.pdus, meter.data, len(meter.pending))
	}
	if m.WireBytes != meter.modelled {
		t.Errorf("engine WireBytes %d, the connection's %d PDUs carried %d data bytes modelled as %d", m.WireBytes, meter.pdus, meter.data, meter.modelled)
	}
	t.Logf("%d writes in %d PDUs: %d bytes on the connection, %d of them in squeezed lists; %d entries squeezed, %d bytes saved",
		len(writes), meter.pdus, meter.bytes, meter.squeezedTo, m.Squeezed, m.SqueezeSavedWire)
}

// TestWireAccountingListOfOne: on a dedupe pipe a run of one write
// goes down the entry-list path, to consult the index, and the
// initiator's batch verb ships a by-value list of one as a single-frame
// push. The engine books what that push carried, not the list framing
// it did not.
func TestWireAccountingListOfOne(t *testing.T) {
	const bs, nb = 4096, 16
	primary, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	target := iscsi.NewTarget()
	target.Export("r", core.NewReplicaEngine(replica))
	client, server := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		target.ServeConn(server)
	}()
	meter := &pduMeter{Conn: client}
	init := iscsi.NewInitiator(meter)
	t.Cleanup(func() {
		init.Close()
		wg.Wait()
	})
	if err := init.Login("r"); err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(primary, core.Config{Mode: core.ModePRINS, Async: true, DedupeEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.AttachReplica(init); err != nil {
		t.Fatal(err)
	}
	meter.mu.Lock()
	meter.bytes, meter.pdus, meter.data, meter.modelled = 0, 0, 0, 0
	meter.mu.Unlock()
	data := make([]byte, bs)
	for lba := uint64(0); lba < 3; lba++ { // each drained before the next: three runs of one
		copy(data, fmt.Sprintf("block %d", lba))
		if err := e.WriteBlock(lba, data); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	m := e.ReplicaStats()[0].Metrics
	meter.mu.Lock()
	defer meter.mu.Unlock()
	if meter.pdus != 3 || m.WireBytes != meter.modelled {
		t.Errorf("engine WireBytes %d, the connection's %d PDUs carried %d data bytes modelled as %d", m.WireBytes, meter.pdus, meter.data, meter.modelled)
	}
}

// cloneMem returns a fresh in-memory copy of src.
func cloneMem(t *testing.T, src block.Store) *block.MemStore {
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

// tarBlockWrites builds the tar workload's device the way bench/
// populates tar-dedupe-outage-t3 (memfs at 512-byte blocks, the edit+tar
// tree) and runs rounds of edits and tar on it. It returns a copy of
// the image before the rounds and every block write they made, in
// order.
func tarBlockWrites(tb testing.TB, seed int64, rounds int) (block.Store, []pageWrite) {
	tb.Helper()
	const blockSize, blocks = 512, 16 << 10
	tree := memfs.MicroBenchmark{Dirs: 2, FilesPerDir: 1, FileSize: 14 << 10, ChangeFraction: 0.5, EditFraction: 0.1}
	dev, err := block.NewMem(blockSize, blocks)
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := memfs.Mkfs(dev)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := memfs.NewMicroRunner(fs, tree, seed); err != nil {
		tb.Fatal(err)
	}
	image, err := block.NewMem(blockSize, blocks)
	if err != nil {
		tb.Fatal(err)
	}
	if err := block.Copy(image, dev); err != nil {
		tb.Fatal(err)
	}
	var writes []pageWrite
	fs, err = memfs.Mount(block.NewObserved(dev, func(lba uint64, _, data []byte) {
		writes = append(writes, pageWrite{lba, append([]byte(nil), data...)})
	}))
	if err != nil {
		tb.Fatal(err)
	}
	runner, err := memfs.AttachMicroRunner(fs, tree, seed+1)
	if err != nil {
		tb.Fatal(err)
	}
	for n := 1; n <= rounds; n++ {
		if _, err := runner.Round(n); err != nil {
			tb.Fatal(err)
		}
	}
	return image, writes
}

// unsqueezed hides the initiator's squeezed-list verb from the engine,
// so its pipe ships every run as a plain list.
type unsqueezed struct{ in *iscsi.Initiator }

func (u unsqueezed) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	return u.in.ReplicaWriteStream(mode, shard, vol, seq, lba, hash, frame)
}

func (u unsqueezed) ReplicaWriteFramed(mode, shard uint8, vol uint16, seq, lba, hash uint64, pdu []byte) error {
	return u.in.ReplicaWriteFramed(mode, shard, vol, seq, lba, hash, pdu)
}

func (u unsqueezed) ReplicaWriteBatchStream(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) ([]iscsi.Status, error) {
	return u.in.ReplicaWriteBatchStream(mode, shard, vol, entries)
}

// TestSqueezeTarOverT3 replays the tar workload's writes through an
// async primary with the workload's by-ref dedupe, its replica behind a
// T3-shaped net.Pipe, once through the initiator and once through a
// client that hides its squeezed-list verb. Each time the replica must
// end byte-identical to the primary with a clean filesystem, and the
// engine's modelled WireBytes must be exactly the modelled cost of the
// data segments the connection carried. The gate reads bytes, not the
// link's timing: it turns on once and stays on, for under 31 B a write
// (29.3 on every run when written, against 43.2-43.5 plain).
func TestSqueezeTarOverT3(t *testing.T) {
	image, writes := tarBlockWrites(t, 1, 200)
	ship := func(squeeze bool) core.ReplicaStat {
		primary, replica := cloneMem(t, image), cloneMem(t, image)
		sink := core.NewReplicaEngine(replica)
		sink.SetDedupe(1 << 16)
		if err := sink.WarmDedupe(); err != nil {
			t.Fatal(err)
		}
		target := iscsi.NewTarget()
		target.Export("r", sink)
		client, server := net.Pipe()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			target.ServeConn(server)
		}()
		meter := &pduMeter{Conn: wan.Shape(client, wan.T3Link())}
		init := iscsi.NewInitiator(meter)
		defer func() {
			init.Close()
			wg.Wait()
		}()
		if err := init.Login("r"); err != nil {
			t.Fatal(err)
		}
		e, err := core.NewEngine(primary, core.Config{Mode: core.ModePRINS, Async: true, QueueDepth: 256, BatchFrames: 64, DedupeEntries: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var rc core.ReplicaClient = init
		if !squeeze {
			rc = unsqueezed{init}
		}
		if err := e.AttachReplica(rc); err != nil {
			t.Fatal(err)
		}
		// The primary's index starts empty; a hash exchange warms it, as
		// bench/ does before its clock starts.
		if _, err := resync.RunRanges(primary, init, resync.Config{Learn: e.ReplicaDedupe(0).Put}, block.Range{Start: 0, Count: primary.NumBlocks()}); err != nil {
			t.Fatal(err)
		}
		meter.mu.Lock()
		meter.bytes, meter.pdus, meter.data, meter.modelled, meter.squeezedTo = 0, 0, 0, 0, 0
		meter.mu.Unlock()
		for _, w := range writes {
			if err := e.WriteBlock(w.lba, w.data); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		if eq, err := block.Equal(primary, replica); err != nil || !eq {
			t.Fatalf("squeeze=%v: replica differs from the primary (%v)", squeeze, err)
		}
		fs, err := memfs.Mount(replica)
		if err != nil {
			t.Fatal(err)
		}
		if rep, err := fs.Fsck(); err != nil || !rep.Clean() {
			t.Fatalf("squeeze=%v: fsck on the replica: %v %v", squeeze, err, rep)
		}
		m := e.ReplicaStats()[0].Metrics
		meter.mu.Lock()
		defer meter.mu.Unlock()
		if m.WireBytes != meter.modelled {
			t.Errorf("squeeze=%v: engine WireBytes %d, the connection's %d PDUs carried %d data bytes modelled as %d", squeeze, m.WireBytes, meter.pdus, meter.data, meter.modelled)
		}
		if !squeeze && (meter.squeezedTo != 0 || m.Squeezed != 0) {
			t.Errorf("a client without the squeezed verb carried %d squeezed bytes, %d entries", meter.squeezedTo, m.Squeezed)
		}
		return e.ReplicaStats()[0]
	}
	plain, live := ship(false).Metrics, ship(true).Metrics
	perWrite := func(wire int64) float64 { return float64(wire) / float64(len(writes)) }
	t.Logf("%d tar writes: %.1f B/write plain, %.1f B/write with the gate live; %d of %d entries squeezed, %d gate switches, %d B saved",
		len(writes), perWrite(plain.WireBytes), perWrite(live.WireBytes), live.Squeezed, live.Shipped-live.Coalesced,
		live.SqueezeSwitches, live.SqueezeSavedWire)
	if live.SqueezeSwitches > 1 || perWrite(live.WireBytes) >= 31 {
		t.Errorf("gate live: %d switches and %.1f B/write, want at most one switch and under 31 B/write",
			live.SqueezeSwitches, perWrite(live.WireBytes))
	}
}
