package resync

import (
	"errors"
	"testing"
	"time"

	"prins/internal/block"
)

// TestScrubberStopAbortsInFlightPass pins the shutdown ordering fix:
// Stop must cancel a pass that is already running, not wait for it to
// walk the rest of the device. The old code re-read s.stop (nilled by
// Stop before the close) at every check, so an in-flight pass missed
// the signal and Stop blocked for a whole device scan — racing any
// engine teardown sequenced after it.
func TestScrubberStopAbortsInFlightPass(t *testing.T) {
	const (
		bs    = 512
		nb    = 4096
		batch = 32
	)
	local, replica := seededPair(t, bs, nb, 12, nil)
	remote := remoteFor(t, replica, "r")

	s := NewScrubber(local, remote, Config{Batch: batch}, time.Millisecond)
	entered := make(chan struct{}, 1)
	proceed := make(chan struct{})
	s.Sleep = func(time.Duration) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-proceed
	}

	s.Start(time.Millisecond)
	<-entered // a pass is in flight, parked at its first batch boundary

	stopped := make(chan error, 1)
	go func() { stopped <- s.Stop() }()
	// Give Stop time to close the stop channel, then release the pass:
	// it must observe the close at the next checkpoint and abort.
	time.Sleep(20 * time.Millisecond)
	close(proceed)

	select {
	case err := <-stopped:
		if err != nil {
			t.Fatalf("Stop: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return; in-flight pass was not canceled")
	}
	if m := s.Metrics(); m.Scanned >= nb {
		t.Fatalf("pass scanned %d of %d blocks after Stop; cancellation missed", m.Scanned, nb)
	}
}

func TestScrubberPassRepairsAndCounts(t *testing.T) {
	const (
		bs    = 512
		nb    = 128
		batch = 32
	)
	local, replica := seededPair(t, bs, nb, 8, []uint64{2, 33, 34, 90, 127})
	remote := remoteFor(t, replica, "r")

	s := NewScrubber(local, remote, Config{Batch: batch}, time.Millisecond)
	var sleeps int
	s.Sleep = func(time.Duration) { sleeps++ }

	stats, err := s.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksScanned != nb || stats.BlocksRepaired != 5 {
		t.Fatalf("pass scanned=%d repaired=%d, want %d/5", stats.BlocksScanned, stats.BlocksRepaired, nb)
	}
	if sleeps != nb/batch {
		t.Errorf("rate-limit pauses = %d, want %d (one per batch)", sleeps, nb/batch)
	}
	if eq, _ := block.Equal(local, replica); !eq {
		t.Fatal("scrub pass left divergence")
	}
	m := s.Metrics()
	if m.Passes != 1 || m.Scanned != nb || m.Diverged != 5 || m.Repaired != 5 {
		t.Errorf("metrics = %+v", m)
	}

	// A clean device scrubs clean; counters accumulate across passes.
	stats, err = s.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksRepaired != 0 {
		t.Errorf("second pass repaired %d blocks", stats.BlocksRepaired)
	}
	m = s.Metrics()
	if m.Passes != 2 || m.Scanned != 2*nb || m.Diverged != 5 || m.Repaired != 5 {
		t.Errorf("metrics after second pass = %+v", m)
	}
}

func TestScrubberDryRunAudits(t *testing.T) {
	local, replica := seededPair(t, 512, 64, 9, []uint64{10, 40})
	remote := remoteFor(t, replica, "r")

	s := NewScrubber(local, remote, Config{DryRun: true}, 0)
	stats, err := s.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksRepaired != 2 || stats.DataBytes != 0 {
		t.Fatalf("dry pass = %+v", stats)
	}
	m := s.Metrics()
	if m.Diverged != 2 || m.Repaired != 0 {
		t.Errorf("dry-run metrics = %+v; divergence should count, repairs should not", m)
	}
	if eq, _ := block.Equal(local, replica); eq {
		t.Error("dry-run scrub repaired the replica")
	}
}

func TestScrubberCancel(t *testing.T) {
	local, replica := seededPair(t, 512, 64, 10, nil)
	remote := remoteFor(t, replica, "r")

	cancel := make(chan struct{})
	close(cancel)
	s := NewScrubber(local, remote, Config{Cancel: cancel}, 0)
	if _, err := s.Pass(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if m := s.Metrics(); m.Passes != 0 {
		t.Errorf("canceled pass counted as complete: %+v", m)
	}
}

func TestScrubberStartStop(t *testing.T) {
	local, replica := seededPair(t, 512, 32, 11, []uint64{7})
	remote := remoteFor(t, replica, "r")

	s := NewScrubber(local, remote, Config{}, 0)
	s.Start(time.Millisecond)
	s.Start(time.Millisecond) // no-op on a running scrubber

	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Passes == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if err := s.Stop(); err != nil { // idempotent
		t.Fatalf("second Stop: %v", err)
	}

	m := s.Metrics()
	if m.Passes == 0 {
		t.Fatal("background scrub never completed a pass")
	}
	if m.Repaired == 0 {
		t.Error("background scrub did not repair the diverged block")
	}
	if eq, _ := block.Equal(local, replica); !eq {
		t.Error("replica diverged after background scrub")
	}
}

// TestScrubberPassSumsSentBytes: a paused pass runs one pipeline per
// batch, and its stats sum what each one's repair spans sent. Four
// batches each find random blocks to repair — {2}, {33, 34}, {90},
// {127} — so four raw spans, each one mask byte and a 5-byte frame
// header over its blocks.
func TestScrubberPassSumsSentBytes(t *testing.T) {
	const (
		bs    = 512
		nb    = 128
		batch = 32
	)
	local, replica := seededPair(t, bs, nb, 8, []uint64{2, 33, 34, 90, 127})
	s := NewScrubber(local, remoteFor(t, replica, "r"), Config{Batch: batch}, time.Millisecond)
	s.Sleep = func(time.Duration) {}

	stats, err := s.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if stats.RepairWrites != 4 || stats.DataBytes != 5*bs || stats.SentBytes != 5*bs+4*(1+5) {
		t.Errorf("pass stats %+v, want 4 spans sending %d bytes for %d", stats, 5*bs+4*(1+5), 5*bs)
	}
}

// TestScrubberCleanPassFetchesNoHashes: over identical devices every
// hash fetch of a scrub pass is settled by its digest, so the pass
// reports no hash bytes, with a pause (one batch per run) and without
// one (the whole device in one pipelined run).
func TestScrubberCleanPassFetchesNoHashes(t *testing.T) {
	const (
		bs    = 512
		nb    = 1024
		batch = 64
	)
	local, replica := seededPair(t, bs, nb, 27, nil)
	remote := remoteFor(t, replica, "r")
	for _, pause := range []time.Duration{0, time.Millisecond} {
		s := NewScrubber(local, remote, Config{Batch: batch}, pause)
		s.Sleep = func(time.Duration) {}
		stats, err := s.Pass()
		if err != nil {
			t.Fatal(err)
		}
		if stats.HashBytes != 0 || stats.HashFetches != nb/batch || stats.BlocksScanned != nb || stats.BlocksRepaired != 0 {
			t.Errorf("pause %v: clean pass %+v, want %d fetches and no hash bytes", pause, stats, nb/batch)
		}
	}
}
