package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"prins/internal/block"
	"prins/internal/parity"
	"prins/internal/raid"
	"prins/internal/xcode"
)

func TestModeStrings(t *testing.T) {
	if ModeTraditional.String() != "traditional" ||
		ModeCompressed.String() != "compressed" ||
		ModePRINS.String() != "prins" {
		t.Error("mode names wrong")
	}
	if Mode(0).Valid() || Mode(9).Valid() {
		t.Error("invalid modes reported valid")
	}
	if len(AllModes()) != 3 {
		t.Error("AllModes should list 3 modes")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("zero config should be invalid (no mode)")
	}
	if err := (Config{Mode: ModePRINS}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// writeWorkload drives n partial-block updates against the engine,
// mimicking database page writes where only a fraction of each block
// changes.
func writeWorkload(t *testing.T, e *Engine, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bs := e.BlockSize()
	buf := make([]byte, bs)
	for i := 0; i < n; i++ {
		lba := uint64(rng.Intn(int(e.NumBlocks())))
		if err := e.ReadBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
		// Dirty a ~10% region of the block.
		off := rng.Intn(bs * 9 / 10)
		end := off + bs/10
		for j := off; j < end; j++ {
			buf[j] = byte(rng.Intn(256))
		}
		if err := e.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
	}
}

func newPair(t *testing.T, cfg Config, blockSize int, numBlocks uint64) (*Engine, *ReplicaEngine) {
	t.Helper()
	primary, err := block.NewMem(blockSize, numBlocks)
	if err != nil {
		t.Fatal(err)
	}
	replicaStore, err := block.NewMem(blockSize, numBlocks)
	if err != nil {
		t.Fatal(err)
	}
	replica := NewReplicaEngine(replicaStore)
	e, err := NewEngine(primary, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.AttachReplica(&Loopback{Replica: replica})
	t.Cleanup(func() { e.Close() })
	return e, replica
}

// TestConvergenceAllModes is the protocol's central correctness
// property: after any write sequence and a drain, the replica store is
// byte-identical to the primary — for every replication mode.
func TestConvergenceAllModes(t *testing.T) {
	for _, mode := range AllModes() {
		for _, async := range []bool{false, true} {
			name := mode.String()
			if async {
				name += "/async"
			}
			t.Run(name, func(t *testing.T) {
				e, replica := newPair(t, Config{Mode: mode, Async: async}, 1024, 64)
				writeWorkload(t, e, 42, 300)
				if err := e.Drain(); err != nil {
					t.Fatalf("drain: %v", err)
				}
				eq, err := block.Equal(e, replica.Store())
				if err != nil {
					t.Fatal(err)
				}
				if !eq {
					lba, _, _ := block.FirstDiff(e, replica.Store())
					t.Fatalf("replica diverged at lba %d", lba)
				}
				if replica.LastSeq() == 0 {
					t.Error("replica applied nothing")
				}
			})
		}
	}
}

// TestPRINSTrafficSavings asserts the headline result: on partial-
// block writes, PRINS ships far less data than traditional replication.
func TestPRINSTrafficSavings(t *testing.T) {
	var payload [4]int64
	for _, mode := range AllModes() {
		e, _ := newPair(t, Config{Mode: mode}, 8192, 64)
		writeWorkload(t, e, 7, 200)
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		payload[mode] = e.Traffic().Snapshot().PayloadBytes
	}
	trad, comp, prins := payload[ModeTraditional], payload[ModeCompressed], payload[ModePRINS]
	if trad != 200*8192+200*5 { // raw frames carry 5-byte xcode headers
		t.Errorf("traditional payload = %d, want exactly %d", trad, 200*8192+200*5)
	}
	if prins*5 > trad {
		t.Errorf("PRINS %d vs traditional %d: want >= 5x savings", prins, trad)
	}
	if prins >= comp {
		t.Errorf("PRINS %d should beat compression %d on random partial updates", prins, comp)
	}
}

func TestSkipUnchangedWrites(t *testing.T) {
	e, replica := newPair(t, Config{Mode: ModePRINS, SkipUnchanged: true}, 512, 8)
	data := bytes.Repeat([]byte{0x5A}, 512)
	if err := e.WriteBlock(3, data); err != nil {
		t.Fatal(err)
	}
	// Rewrite identical content: parity is all zeros, must be skipped.
	if err := e.WriteBlock(3, data); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	s := e.Traffic().Snapshot()
	if s.Writes != 2 || s.Replicated != 1 || s.Skipped != 1 {
		t.Errorf("writes=%d replicated=%d skipped=%d; want 2,1,1", s.Writes, s.Replicated, s.Skipped)
	}
	eq, _ := block.Equal(e, replica.Store())
	if !eq {
		t.Error("replica diverged despite skip")
	}
}

func TestDensityRecording(t *testing.T) {
	e, _ := newPair(t, Config{Mode: ModePRINS, RecordDensity: true}, 1000, 16)
	writeWorkload(t, e, 3, 50)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	d := e.Density()
	if d.Count() != 50 {
		t.Fatalf("density samples = %d, want 50", d.Count())
	}
	// The workload dirties ~10% of each block; the measured mean
	// density must land near that (some overwritten bytes may match
	// by chance).
	if mean := d.Mean(); mean < 0.02 || mean > 0.25 {
		t.Errorf("mean density = %.3f, want ~0.10", mean)
	}
}

func TestAsyncErrorSurfacesOnDrain(t *testing.T) {
	primary, _ := block.NewMem(512, 8)
	small, _ := block.NewMem(512, 4) // replica too small: OOB applies
	replica := NewReplicaEngine(small)
	e, err := NewEngine(primary, Config{Mode: ModeTraditional, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AttachReplica(&Loopback{Replica: replica})

	data := make([]byte, 512)
	if err := e.WriteBlock(6, data); err != nil {
		t.Fatalf("write itself should succeed in async mode: %v", err)
	}
	if err := e.Drain(); err == nil {
		t.Error("Drain should surface the replica failure")
	}
}

func TestSyncErrorSurfacesOnWrite(t *testing.T) {
	primary, _ := block.NewMem(512, 8)
	small, _ := block.NewMem(512, 4)
	replica := NewReplicaEngine(small)
	e, err := NewEngine(primary, Config{Mode: ModeTraditional})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AttachReplica(&Loopback{Replica: replica})

	if err := e.WriteBlock(6, make([]byte, 512)); err == nil {
		t.Error("sync write to failing replica should error")
	}
}

func TestWriteAfterClose(t *testing.T) {
	e, _ := newPair(t, Config{Mode: ModePRINS}, 512, 8)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteBlock(0, make([]byte, 512)); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("err = %v, want ErrEngineClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Error("double close should be nil")
	}
}

func TestBadBufferSize(t *testing.T) {
	e, _ := newPair(t, Config{Mode: ModePRINS}, 512, 8)
	if err := e.WriteBlock(0, make([]byte, 100)); !errors.Is(err, block.ErrBadBufSize) {
		t.Errorf("err = %v, want ErrBadBufSize", err)
	}
}

// TestRAIDFastPath runs the engine over a RAID-5 array: the forward
// parity comes from the array's own read-modify-write, the replica
// still converges, and the array parity stays consistent.
func TestRAIDFastPath(t *testing.T) {
	members := make([]block.Store, 4)
	for i := range members {
		s, err := block.NewMem(1024, 32)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = s
	}
	array, err := raid.New(raid.Level5, members)
	if err != nil {
		t.Fatal(err)
	}

	replicaStore, _ := block.NewMem(1024, array.NumBlocks())
	replica := NewReplicaEngine(replicaStore)
	e, err := NewEngine(array, Config{Mode: ModePRINS})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.pw == nil {
		t.Fatal("engine did not detect the RAID ParityWriter fast path")
	}
	e.AttachReplica(&Loopback{Replica: replica})

	writeWorkload(t, e, 13, 200)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}

	eq, err := block.Equal(array, replicaStore)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("replica diverged on RAID fast path")
	}
	if _, ok, err := array.Verify(); err != nil || !ok {
		t.Error("RAID parity inconsistent after replicated writes")
	}
}

func TestReplicaRejectsBadFrames(t *testing.T) {
	store, _ := block.NewMem(512, 8)
	r := NewReplicaEngine(store)

	if err := r.ApplyStream(ModePRINS, 0, 0, 1, 0, 0, []byte{0xFF, 0xFF}); err == nil {
		t.Error("corrupt frame accepted")
	}

	// Valid frame, wrong decoded size for the device.
	frame, err := xcode.Encode(xcode.CodecRaw, make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyStream(ModeTraditional, 0, 0, 1, 0, 0, frame); !errors.Is(err, block.ErrBadBufSize) {
		t.Errorf("wrong-size frame: err = %v, want ErrBadBufSize", err)
	}

	// Valid frame, invalid mode byte.
	frame, err = xcode.Encode(xcode.CodecRaw, make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyStream(Mode(99), 0, 0, 1, 0, 0, frame); err == nil {
		t.Error("invalid mode accepted")
	}

	// Out-of-range LBA.
	if err := r.ApplyStream(ModeTraditional, 0, 0, 1, 999, 0, frame); !errors.Is(err, block.ErrOutOfRange) {
		t.Errorf("OOB apply: err = %v, want ErrOutOfRange", err)
	}
}

// TestBackwardParityIdentity drives the exact PRINS math end to end:
// ship only parity frames and confirm the replica recomputes the data.
func TestBackwardParityIdentity(t *testing.T) {
	e, replica := newPair(t, Config{Mode: ModePRINS}, 256, 4)

	oldData := bytes.Repeat([]byte{0x11}, 256)
	newData := bytes.Repeat([]byte{0x11}, 256)
	copy(newData[100:120], bytes.Repeat([]byte{0x99}, 20))

	if err := e.WriteBlock(2, oldData); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteBlock(2, newData); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, 256)
	if err := replica.Store().ReadBlock(2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newData) {
		t.Error("replica did not recover new data from parity")
	}

	// Sanity: the shipped parity for the second write has exactly the
	// 20 changed bytes non-zero.
	fp, _ := parity.Forward(newData, oldData)
	if parity.NonZeroBytes(fp) != 20 {
		t.Errorf("expected 20 changed bytes, parity says %d", parity.NonZeroBytes(fp))
	}
}

func TestMultipleReplicas(t *testing.T) {
	primary, _ := block.NewMem(512, 16)
	e, err := NewEngine(primary, Config{Mode: ModePRINS})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	replicas := make([]*ReplicaEngine, 3)
	for i := range replicas {
		s, _ := block.NewMem(512, 16)
		replicas[i] = NewReplicaEngine(s)
		e.AttachReplica(&Loopback{Replica: replicas[i]})
	}

	writeWorkload(t, e, 5, 100)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	s := e.Traffic().Snapshot()
	if s.Replicated != 300 { // 100 writes x 3 replicas
		t.Errorf("replicated = %d, want 300", s.Replicated)
	}
	for i, r := range replicas {
		eq, err := block.Equal(primary, r.Store())
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("replica %d diverged", i)
		}
	}
}

// failClient is a ReplicaClient whose deliveries always fail.
type failClient struct{ err error }

func (f *failClient) ReplicaWriteStream(uint8, uint8, uint16, uint64, uint64, uint64, []byte) error {
	return f.err
}

// TestTrafficCountsOnlyDeliveredFrames is the accounting regression:
// ship used to count a frame as replicated payload/wire bytes before
// attempting delivery, so a frame that failed (and degraded the
// replica) was double-counted as both replicated and dropped. Traffic
// must count a frame in exactly one bucket.
func TestTrafficCountsOnlyDeliveredFrames(t *testing.T) {
	primary, _ := block.NewMem(512, 16)
	e, err := NewEngine(primary, Config{Mode: ModePRINS, AllowDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	healthyStore, _ := block.NewMem(512, 16)
	healthy := NewReplicaEngine(healthyStore)
	e.AttachReplica(&Loopback{Replica: healthy})
	e.AttachReplica(&failClient{err: errors.New("injected delivery failure")})

	const writes = 25
	writeWorkload(t, e, 9, writes)
	if err := e.Drain(); err != nil {
		t.Fatalf("degraded drain: %v", err)
	}

	s := e.Traffic().Snapshot()
	stats := e.ReplicaStats()
	if len(stats) != 2 {
		t.Fatalf("ReplicaStats returned %d entries, want 2", len(stats))
	}
	good, bad := stats[0].Metrics, stats[1].Metrics

	// Every frame to the failing replica was dropped, none delivered.
	if bad.Shipped != 0 || bad.PayloadBytes != 0 {
		t.Errorf("failing replica counted deliveries: %+v", bad)
	}
	if bad.Dropped != writes {
		t.Errorf("failing replica dropped = %d, want %d", bad.Dropped, writes)
	}
	if !stats[1].Degraded || stats[0].Degraded {
		t.Errorf("degraded flags wrong: %+v %+v", stats[0], stats[1])
	}

	// The aggregate view must equal the healthy replica's deliveries:
	// failed frames contribute nothing to PayloadBytes/WireBytes.
	if good.Shipped != writes {
		t.Errorf("healthy replica shipped = %d, want %d", good.Shipped, writes)
	}
	if s.Replicated != good.Shipped || s.PayloadBytes != good.PayloadBytes || s.WireBytes != good.WireBytes {
		t.Errorf("aggregate (%d msgs, %dB payload, %dB wire) != healthy deliveries (%d, %dB, %dB)",
			s.Replicated, s.PayloadBytes, s.WireBytes, good.Shipped, good.PayloadBytes, good.WireBytes)
	}
	// Exactly-one-bucket identity across both replicas.
	if s.Replicated+s.Dropped != 2*writes {
		t.Errorf("replicated %d + dropped %d != %d frames enqueued", s.Replicated, s.Dropped, 2*writes)
	}
}

// TestReplicaLagMaxAcrossDegraded is the lag-gauge regression: with
// two degraded replicas each k frames behind, the snapshot gauge used
// to read 2k (one increment per drop per replica) while ReplicaLag()
// returned k. Both must report the documented value — the worst
// per-replica gap, k.
func TestReplicaLagMaxAcrossDegraded(t *testing.T) {
	primary, _ := block.NewMem(512, 16)
	e, err := NewEngine(primary, Config{Mode: ModePRINS, AllowDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AttachReplica(&failClient{err: errors.New("replica one down")})
	e.AttachReplica(&failClient{err: errors.New("replica two down")})

	const writes = 30
	writeWorkload(t, e, 4, writes)
	if err := e.Drain(); err != nil {
		t.Fatalf("degraded drain: %v", err)
	}

	if lag := e.ReplicaLag(); lag != writes {
		t.Errorf("ReplicaLag() = %d, want %d", lag, writes)
	}
	s := e.Traffic().Snapshot()
	if s.ReplicaLag != writes {
		t.Errorf("snapshot ReplicaLag = %d, want %d (max per replica, not the %d sum)",
			s.ReplicaLag, writes, 2*writes)
	}
	if s.Dropped != 2*writes {
		t.Errorf("Dropped = %d, want %d (historical total keeps the sum)", s.Dropped, 2*writes)
	}
	for i, rs := range e.ReplicaStats() {
		if rs.Metrics.Lag != writes {
			t.Errorf("replica %d lag = %d, want %d", i, rs.Metrics.Lag, writes)
		}
	}

	e.ClearDegraded()
	if e.ReplicaLag() != 0 || e.Traffic().Snapshot().ReplicaLag != 0 {
		t.Error("ClearDegraded should zero both lag views")
	}
}

func TestEngineBackendStatuses(t *testing.T) {
	e, _ := newPair(t, Config{Mode: ModePRINS}, 512, 8)

	bs, nb := e.Geometry()
	if bs != 512 || nb != 8 {
		t.Error("geometry wrong")
	}

	if st := e.HandleWrite(0, make([]byte, 512)); st.String() != "OK" {
		t.Errorf("HandleWrite = %v", st)
	}
	if st := e.HandleWrite(0, make([]byte, 100)); st.String() != "BAD-REQUEST" {
		t.Errorf("partial-block HandleWrite = %v", st)
	}
	if st := e.HandleWrite(99, make([]byte, 512)); st.String() != "OUT-OF-RANGE" {
		t.Errorf("OOB HandleWrite = %v", st)
	}
	if st := e.HandleRead(0, make([]byte, 2*512)); st.String() != "OK" {
		t.Errorf("HandleRead = %v", st)
	}
	if st := e.HandleRead(7, make([]byte, 2*512)); st.String() != "OUT-OF-RANGE" {
		t.Errorf("OOB HandleRead = %v", st)
	}
	if st := e.HandleReplicaStream(1, 0, 0, 1, 0, 0, nil); st.String() != "BAD-REQUEST" {
		t.Errorf("primary HandleReplicaStream = %v", st)
	}
}
