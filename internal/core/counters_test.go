package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"prins/internal/block"
	"prins/internal/iscsi"
)

var errDown = errors.New("replica down")

// downClient is a Loopback that fails every push once down is set. It
// has no by-ref extension, so the engine keeps no dedupe index for it.
type downClient struct {
	inner *Loopback
	down  atomic.Bool
}

func (c *downClient) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	if c.down.Load() {
		return errDown
	}
	return c.inner.ReplicaWriteStream(mode, shard, vol, seq, lba, hash, frame)
}

func (c *downClient) ReplicaWriteBatchStream(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) ([]iscsi.Status, error) {
	if c.down.Load() {
		return nil, errDown
	}
	return c.inner.ReplicaWriteBatchStream(mode, shard, vol, entries)
}

// TestCountersFold: every view of the counters is a fold of the same
// banks, so the engine-wide totals are the per-replica and per-shard
// views' sums, and the engine's lag is the worst replica's, each
// replica's lag summed over its pipes on every shard.
func TestCountersFold(t *testing.T) {
	const bs, nb, writes = 512, 64, 300
	primary, _ := block.NewMem(bs, nb)
	e, err := NewEngine(primary, Config{
		Mode:          ModePRINS,
		Shards:        4,
		Async:         true,
		BatchFrames:   16,
		DedupeEntries: 256,
		AllowDegraded: true,
		Retry:         RetryPolicy{Attempts: 2, Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	store0, _ := block.NewMem(bs, nb)
	store1, _ := block.NewMem(bs, nb)
	if err := e.AttachReplica(&Loopback{Replica: NewReplicaEngine(store0)}); err != nil {
		t.Fatal(err)
	}
	down := &downClient{inner: &Loopback{Replica: NewReplicaEngine(store1)}}
	if err := e.AttachReplica(down); err != nil {
		t.Fatal(err)
	}

	dupWorkload(t, e, 1, writes)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	down.down.Store(true)
	dupWorkload(t, e, 2, writes)
	writeWorkload(t, e, 3, writes)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "healthy replica", store0, primary)

	s := e.Traffic().Snapshot()
	reps := e.ReplicaStats()
	if !reps[1].Degraded || reps[0].Degraded {
		t.Fatalf("degraded = %v, %v, want replica 1 only", reps[0].Degraded, reps[1].Degraded)
	}
	if reps[0].Metrics.DedupeHits == 0 || reps[1].Metrics.Retries == 0 || s.Batches == 0 {
		t.Errorf("workload missed a path: replica 0 %+v, replica 1 %+v", reps[0].Metrics, reps[1].Metrics)
	}
	var sum struct {
		shipped, payload, wire, retries, dropped, diverged, batches, coalesced int64
		saved, hits, misses, dedupeSaved, lag                                  int64
	}
	for _, r := range reps {
		m := r.Metrics
		sum.shipped += m.Shipped
		sum.payload += m.PayloadBytes
		sum.wire += m.WireBytes
		sum.retries += m.Retries
		sum.dropped += m.Dropped
		sum.diverged += m.Diverged
		sum.batches += m.Batches
		sum.coalesced += m.Coalesced
		sum.saved += m.BatchSavedWire
		sum.hits += m.DedupeHits
		sum.misses += m.DedupeMisses
		sum.dedupeSaved += m.DedupeSavedWire
		sum.lag = max(sum.lag, m.Lag)
	}
	for _, c := range []struct {
		name            string
		engine, replica int64
	}{
		{"Replicated", s.Replicated, sum.shipped},
		{"PayloadBytes", s.PayloadBytes, sum.payload},
		{"WireBytes", s.WireBytes, sum.wire},
		{"Retries", s.Retries, sum.retries},
		{"Dropped", s.Dropped, sum.dropped},
		{"Diverged", s.Diverged, sum.diverged},
		{"Batches", s.Batches, sum.batches},
		{"Coalesced", s.Coalesced, sum.coalesced},
		{"BatchSavedWire", s.BatchSavedWire, sum.saved},
		{"DedupeHits", s.DedupeHits, sum.hits},
		{"DedupeMisses", s.DedupeMisses, sum.misses},
		{"DedupeSavedWire", s.DedupeSavedWire, sum.dedupeSaved},
		{"ReplicaLag (max)", s.ReplicaLag, sum.lag},
	} {
		if c.engine != c.replica {
			t.Errorf("engine %s = %d, replica views fold to %d", c.name, c.engine, c.replica)
		}
	}

	shards := e.ShardStats()
	var writesSum, shipped, dropped int64
	for i, sh := range shards {
		if sh.Dropped == 0 {
			t.Errorf("shard %d dropped nothing: the outage should span every shard", i)
		}
		writesSum += sh.Writes
		shipped += sh.Shipped
		dropped += sh.Dropped
	}
	if writesSum != s.Writes || shipped != s.Replicated || dropped != s.Dropped {
		t.Errorf("shard sums writes %d shipped %d dropped %d, engine %d %d %d",
			writesSum, shipped, dropped, s.Writes, s.Replicated, s.Dropped)
	}
	if s.Writes != 3*writes || s.Replicated+s.Dropped != 2*s.Writes {
		t.Errorf("writes %d, replicated %d + dropped %d, want %d and twice that", s.Writes, s.Replicated, s.Dropped, 3*writes)
	}
	// Only replica 1 dropped, so its lag is every shard's drops.
	if lag := reps[1].Metrics.Lag; lag != dropped || s.ReplicaLag != lag || e.ReplicaLag() != lag {
		t.Errorf("replica 1 lag %d, engine %d, ReplicaLag() %d, want the shards' %d drops",
			lag, s.ReplicaLag, e.ReplicaLag(), dropped)
	}

	e.ClearDegraded()
	after := e.Traffic().Snapshot()
	if after.ReplicaLag != 0 || e.ReplicaLag() != 0 || e.ReplicaStats()[1].Metrics.Lag != 0 {
		t.Errorf("lag after ClearDegraded: engine %d, ReplicaLag() %d, replica 1 %d, want 0",
			after.ReplicaLag, e.ReplicaLag(), e.ReplicaStats()[1].Metrics.Lag)
	}
	if after.Dropped != s.Dropped {
		t.Errorf("Dropped after ClearDegraded = %d, want the historical %d", after.Dropped, s.Dropped)
	}

	if n := testing.AllocsPerRun(100, func() { _ = e.Traffic().Snapshot() }); n != 0 {
		t.Errorf("Traffic().Snapshot() allocates %.0f times, want 0", n)
	}
}

// TestDegradedRunsNotObserved: the frames-per-batch histogram records
// deliveries, so the runs a degraded pipe drops leave it empty.
func TestDegradedRunsNotObserved(t *testing.T) {
	const writes = 40
	e, _ := newPair(t, Config{Mode: ModePRINS, Async: true, BatchFrames: 16, AllowDegraded: true}, 512, 16)
	e.replicas[0].degrade()
	writeWorkload(t, e, 1, writes)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	s := e.Traffic().Snapshot()
	if s.Dropped != writes {
		t.Errorf("Dropped = %d, want %d", s.Dropped, writes)
	}
	if s.FramesPerBatch != [len(s.FramesPerBatch)]int64{} {
		t.Errorf("FramesPerBatch = %v, want empty: nothing went on the wire", s.FramesPerBatch)
	}
}
