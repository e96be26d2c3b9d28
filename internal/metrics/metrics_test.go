package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTrafficCounters(t *testing.T) {
	var tr Traffic
	tr.AddWrite(8192)
	tr.AddWrite(8192)
	tr.AddReplicated(400, 512)
	tr.AddReplicated(600, 712)
	tr.AddSkipped()
	tr.AddEncodeTime(time.Millisecond)
	tr.AddDecodeTime(2 * time.Millisecond)
	tr.AddReplicaWrite()

	s := tr.Snapshot()
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

	tr.Reset()
	if s := tr.Snapshot(); s.Writes != 0 || s.PayloadBytes != 0 {
		t.Errorf("Reset incomplete: %+v", s)
	}
}

func TestTrafficZeroDivision(t *testing.T) {
	var s Snapshot
	if s.MeanPayload() != 0 || s.SavingsVsRaw() != 0 {
		t.Error("zero snapshot ratios should be 0")
	}
}

func TestTrafficConcurrent(t *testing.T) {
	var tr Traffic
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				tr.AddWrite(100)
				tr.AddReplicated(10, 12)
			}
		}()
	}
	wg.Wait()
	s := tr.Snapshot()
	if s.Writes != 10000 || s.PayloadBytes != 100000 || s.WireBytes != 120000 {
		t.Errorf("concurrent totals wrong: %+v", s)
	}
}

// TestReplicaLagIsMaxNotSum pins the gauge's documented semantics:
// with two replicas each 3 frames behind, the engine-wide lag reads 3
// (the worst replica), not 6 (the sum).
func TestReplicaLagIsMaxNotSum(t *testing.T) {
	var tr Traffic
	var a, b Replica
	for i := 0; i < 3; i++ {
		tr.AddDropped()
		tr.RaiseReplicaLag(a.AddDropped())
		tr.AddDropped()
		tr.RaiseReplicaLag(b.AddDropped())
	}
	s := tr.Snapshot()
	if s.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6 (historical total across replicas)", s.Dropped)
	}
	if s.ReplicaLag != 3 {
		t.Errorf("ReplicaLag = %d, want 3 (max per-replica, not sum)", s.ReplicaLag)
	}
	if a.Lag() != 3 || b.Lag() != 3 {
		t.Errorf("per-replica lag = %d, %d, want 3, 3", a.Lag(), b.Lag())
	}
}

func TestReplicaCounters(t *testing.T) {
	var r Replica
	r.AddShipped(400, 512)
	r.AddShipped(600, 712)
	r.AddRetry()
	r.AddAdmitWait()
	r.AddSqueezed(3, 450)
	r.AddSqueezed(2, 250)
	r.AddSqueezeSwitch()
	if lag := r.AddDropped(); lag != 1 {
		t.Errorf("AddDropped returned lag %d, want 1", lag)
	}
	if lag := r.AddDropped(); lag != 2 {
		t.Errorf("AddDropped returned lag %d, want 2", lag)
	}

	s := r.Snapshot()
	if s.Shipped != 2 || s.PayloadBytes != 1000 || s.WireBytes != 1224 {
		t.Errorf("delivery counters wrong: %+v", s)
	}
	if s.Retries != 1 || s.Dropped != 2 || s.Lag != 2 || s.AdmitWaits != 1 {
		t.Errorf("fault counters wrong: %+v", s)
	}
	if s.Squeezed != 5 || s.SqueezeSavedWire != 700 || s.SqueezeSwitches != 1 {
		t.Errorf("squeeze counters wrong: %+v", s)
	}

	r.ResetLag()
	s = r.Snapshot()
	if s.Lag != 0 {
		t.Errorf("Lag after reset = %d, want 0", s.Lag)
	}
	if s.Dropped != 2 {
		t.Errorf("Dropped after lag reset = %d, want 2", s.Dropped)
	}
}

func TestReplicaConcurrent(t *testing.T) {
	var r Replica
	var tr Traffic
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.AddShipped(10, 12)
				tr.RaiseReplicaLag(r.AddDropped())
			}
		}()
	}
	wg.Wait()
	if s := r.Snapshot(); s.Shipped != 4000 || s.Dropped != 4000 || s.Lag != 4000 {
		t.Errorf("concurrent replica totals wrong: %+v", s)
	}
	if lag := tr.Snapshot().ReplicaLag; lag != 4000 {
		t.Errorf("raised lag = %d, want 4000", lag)
	}
}

func TestFormatBytes(t *testing.T) {
	tests := []struct {
		n    int64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{2048, "2.0KB"},
		{3 << 20, "3.00MB"},
		{5 << 30, "5.00GB"},
	}
	for _, tt := range tests {
		if got := FormatBytes(tt.n); got != tt.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tt.n, got, tt.want)
		}
	}
}

func TestFaultCounters(t *testing.T) {
	var tr Traffic
	tr.AddRetry()
	tr.AddRetry()
	tr.AddDropped()
	tr.AddDropped()
	tr.AddDropped()
	tr.RaiseReplicaLag(2)
	tr.RaiseReplicaLag(3)
	tr.RaiseReplicaLag(1) // lower value must not pull the gauge down
	tr.AddDuplicate()

	s := tr.Snapshot()
	if s.Retries != 2 {
		t.Errorf("Retries = %d, want 2", s.Retries)
	}
	if s.Dropped != 3 || s.ReplicaLag != 3 {
		t.Errorf("Dropped = %d, ReplicaLag = %d, want 3 and 3", s.Dropped, s.ReplicaLag)
	}
	if s.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", s.Duplicates)
	}

	// A resync clears the lag gauge but keeps the historical drop total.
	tr.ResetReplicaLag()
	s = tr.Snapshot()
	if s.ReplicaLag != 0 {
		t.Errorf("ReplicaLag after reset = %d, want 0", s.ReplicaLag)
	}
	if s.Dropped != 3 {
		t.Errorf("Dropped after lag reset = %d, want 3", s.Dropped)
	}

	tr.Reset()
	s = tr.Snapshot()
	if s.Retries != 0 || s.Dropped != 0 || s.ReplicaLag != 0 || s.Duplicates != 0 {
		t.Errorf("Reset left fault counters: %+v", s)
	}
}
