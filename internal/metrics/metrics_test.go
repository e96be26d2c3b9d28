package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// snapshot folds the given banks into an engine view.
func snapshot(banks ...*Bank) Snapshot {
	var c Counts
	for _, b := range banks {
		c = c.Add(b)
	}
	return c.Snapshot()
}

func TestTrafficCounters(t *testing.T) {
	var shard, pipe, replica Bank
	shard.Add(Writes, 2)
	shard.Add(RawBytes, 16384)
	shard.Add(Skipped, 1)
	shard.Add(EncodeNanos, int64(time.Millisecond))
	pipe.Add(Shipped, 2)
	pipe.Add(PayloadBytes, 1000)
	pipe.Add(WireBytes, 1224)
	replica.Add(DecodeNanos, int64(2*time.Millisecond))
	replica.Add(ReplicaWrites, 1)

	s := snapshot(&shard, &pipe, &replica)
	if s.Writes != 2 || s.Replicated != 2 || s.Skipped != 1 || s.ReplicaWrites != 1 {
		t.Errorf("counts wrong: %+v", s)
	}
	if s.PayloadBytes != 1000 || s.WireBytes != 1224 || s.RawBytes != 16384 {
		t.Errorf("bytes wrong: %+v", s)
	}
	if s.EncodeTime != time.Millisecond || s.DecodeTime != 2*time.Millisecond {
		t.Errorf("times wrong: %+v", s)
	}
	if got, want := s.MeanPayload(), 500.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("MeanPayload = %f, want %f", got, want)
	}
	if got, want := s.SavingsVsRaw(), 16.384; math.Abs(got-want) > 1e-9 {
		t.Errorf("SavingsVsRaw = %f, want %f", got, want)
	}
	if !strings.Contains(s.String(), "writes=2") {
		t.Errorf("String missing fields: %s", s)
	}
	if got, want := replica.Traffic().Snapshot(), snapshot(&replica); got != want {
		t.Errorf("one bank's Traffic().Snapshot() = %+v, want %+v", got, want)
	}
}

func TestTrafficZeroDivision(t *testing.T) {
	var s Snapshot
	if s.MeanPayload() != 0 || s.SavingsVsRaw() != 0 {
		t.Error("zero snapshot ratios should be 0")
	}
}

// TestTrafficConcurrent: Add from ten goroutines loses nothing.
func TestTrafficConcurrent(t *testing.T) {
	var b Bank
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				b.Add(Writes, 1)
				b.Add(PayloadBytes, 10)
				b.Add(WireBytes, 12)
			}
		}()
	}
	wg.Wait()
	s := snapshot(&b)
	if s.Writes != 10000 || s.PayloadBytes != 100000 || s.WireBytes != 120000 {
		t.Errorf("concurrent totals wrong: %+v", s)
	}
}

// TestReplicaLagIsMaxNotSum pins the gauge's documented semantics: with
// two replicas each 3 frames behind, the engine-wide lag reads 3 (the
// worst replica), not 6 (the sum), while Dropped keeps the sum. Within
// one replica the pipes' lags add up: 2 + 1 frames behind is 3.
func TestReplicaLagIsMaxNotSum(t *testing.T) {
	var a0, a1, b0 Bank // replica a's two pipes, replica b's one
	a0.Add(Dropped, 2)
	a0.Add(Lag, 2)
	a1.Add(Dropped, 1)
	a1.Add(Lag, 1)
	b0.Add(Dropped, 3)
	b0.Add(Lag, 3)

	a := a0.Counts().Add(&a1)
	b := b0.Counts()
	engine := Counts{}.Merge(a).Merge(b)
	if ra, rb := a.ReplicaSnapshot(), b.ReplicaSnapshot(); ra.Lag != 3 || rb.Lag != 3 {
		t.Errorf("per-replica lag = %d, %d, want 3, 3", ra.Lag, rb.Lag)
	}
	s := engine.Snapshot()
	if s.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6 (historical total across replicas)", s.Dropped)
	}
	if s.ReplicaLag != 3 {
		t.Errorf("ReplicaLag = %d, want 3 (max per-replica, not sum)", s.ReplicaLag)
	}
}

func TestReplicaCounters(t *testing.T) {
	var p0, p1 Bank // one replica's pipes on two shards
	p0.Add(Shipped, 1)
	p0.Add(PayloadBytes, 400)
	p0.Add(WireBytes, 512)
	p1.Add(Shipped, 1)
	p1.Add(PayloadBytes, 600)
	p1.Add(WireBytes, 712)
	p0.Add(Retries, 1)
	p1.Add(AdmitWaits, 1)
	p0.Add(Squeezed, 3)
	p0.Add(SqueezeSaved, 450)
	p1.Add(Squeezed, 2)
	p1.Add(SqueezeSaved, 250)
	p1.Add(SqueezeSwitches, 1)
	for _, p := range []*Bank{&p0, &p1} {
		p.Add(Dropped, 1)
		p.Add(Lag, 1)
	}

	fold := func() ReplicaSnapshot { return p0.Counts().Add(&p1).ReplicaSnapshot() }
	s := fold()
	if s.Shipped != 2 || s.PayloadBytes != 1000 || s.WireBytes != 1224 {
		t.Errorf("delivery counters wrong: %+v", s)
	}
	if s.Retries != 1 || s.Dropped != 2 || s.Lag != 2 || s.AdmitWaits != 1 {
		t.Errorf("fault counters wrong: %+v", s)
	}
	if s.Squeezed != 5 || s.SqueezeSavedWire != 700 || s.SqueezeSwitches != 1 {
		t.Errorf("squeeze counters wrong: %+v", s)
	}

	// Clearing the gauge on every pipe keeps the historical total.
	p0.Store(Lag, 0)
	p1.Store(Lag, 0)
	s = fold()
	if s.Lag != 0 {
		t.Errorf("Lag after reset = %d, want 0", s.Lag)
	}
	if s.Dropped != 2 {
		t.Errorf("Dropped after lag reset = %d, want 2", s.Dropped)
	}
}

// TestReplicaConcurrent: eight goroutines booking on two banks, read as
// one replica while they run; the final fold has every event.
func TestReplicaConcurrent(t *testing.T) {
	var banks [2]Bank
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(b *Bank) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				b.Add(Shipped, 1)
				b.Add(Dropped, 1)
				b.Add(Lag, 1)
			}
		}(&banks[i%2])
	}
	banks[0].Counts() // a read racing the writers sees some prefix
	wg.Wait()
	if s := banks[0].Counts().Add(&banks[1]).ReplicaSnapshot(); s.Shipped != 4000 || s.Dropped != 4000 || s.Lag != 4000 {
		t.Errorf("concurrent replica totals wrong: %+v", s)
	}
}

func TestFormatBytes(t *testing.T) {
	tests := []struct {
		n    int64
		want string
	}{
		{0, "0B"},
		{100, "100B"},
		{512, "512B"},
		{2048, "2.0KB"},
		{4096, "4.0KB"},
		{3 << 20, "3.00MB"},
		{5 << 20, "5.00MB"},
		{3 << 30, "3.00GB"},
		{5 << 30, "5.00GB"},
	}
	for _, tt := range tests {
		if got := FormatBytes(tt.n); got != tt.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tt.n, got, tt.want)
		}
	}
}

func TestFaultCounters(t *testing.T) {
	var pipe, replica Bank
	pipe.Add(Retries, 2)
	pipe.Add(Dropped, 3)
	pipe.Add(Lag, 3)
	replica.Add(Duplicates, 1)

	s := snapshot(&pipe, &replica)
	if s.Retries != 2 {
		t.Errorf("Retries = %d, want 2", s.Retries)
	}
	if s.Dropped != 3 || s.ReplicaLag != 3 {
		t.Errorf("Dropped = %d, ReplicaLag = %d, want 3 and 3", s.Dropped, s.ReplicaLag)
	}
	if s.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", s.Duplicates)
	}
}

// TestFramesPerBatchBuckets: a delivery of n frames lands in the
// power-of-two bucket 1, 2, ≤4, ≤8, ≤16, ≤32, ≤64 or >64.
func TestFramesPerBatchBuckets(t *testing.T) {
	var b Bank
	for _, n := range []int{1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 1000} {
		b.Add(Bucket(n), 1)
	}
	want := [BatchHistBuckets]int64{1, 1, 2, 2, 2, 2, 2, 2}
	if got := snapshot(&b).FramesPerBatch; got != want {
		t.Errorf("FramesPerBatch = %v, want %v", got, want)
	}
}

func TestScrubCounters(t *testing.T) {
	var b Bank
	b.Add(Passes, 1)
	b.Add(Scanned, 256)
	b.Add(Diverged, 3)
	b.Add(Repaired, 2)
	want := ScrubSnapshot{Passes: 1, Scanned: 256, Diverged: 3, Repaired: 2}
	if got := b.Counts().ScrubSnapshot(); got != want {
		t.Errorf("ScrubSnapshot = %+v, want %+v", got, want)
	}
	if got := want.String(); got != "passes=1 scanned=256 diverged=3 repaired=2" {
		t.Errorf("String = %q", got)
	}
}
