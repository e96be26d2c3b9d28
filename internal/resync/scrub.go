package resync

import (
	"errors"
	"sync"
	"time"

	"prins/internal/block"
	"prins/internal/iscsi"
	"prins/internal/metrics"
)

// Scrubber continuously audits a replica against the authoritative
// local store: it walks the device comparing content hashes and
// rewrites any block that differs — catching the divergence the write
// path's verified apply cannot see (bit rot, torn writes on
// un-journaled replicas, blocks diverged while no write touched them).
// It is the proactive counterpart of the reactive dirty-range repair.
//
// Scrubbing is rate limited: with a pause configured, a pass is one
// hash batch at a time with the pause slept between them, so it
// trickles along under live replication instead of monopolizing the
// session. Without one a pass is a single pipelined run over the device
// (see RunRanges).
type Scrubber struct {
	local  block.Store
	remote *iscsi.Initiator
	cfg    Config
	pause  time.Duration

	// Sleep is the injectable pause hook; tests replace it to run
	// passes instantly. Defaults to time.Sleep.
	Sleep func(time.Duration)

	m metrics.Bank // passes, blocks scanned, diverged and repaired

	mu     sync.Mutex
	stop   chan struct{}
	done   chan struct{}
	runErr error
}

// NewScrubber builds a scrubber over an established replica session.
// pause is slept between hash batches (zero disables rate limiting);
// cfg tunes batch size exactly as for Run.
func NewScrubber(local block.Store, remote *iscsi.Initiator, cfg Config, pause time.Duration) *Scrubber {
	return &Scrubber{
		local:  local,
		remote: remote,
		cfg:    cfg,
		pause:  pause,
		Sleep:  time.Sleep,
	}
}

// Metrics returns a snapshot of the scrub counters.
func (s *Scrubber) Metrics() metrics.ScrubSnapshot { return s.m.Counts().ScrubSnapshot() }

// Pass runs one full scrub of the device, repairing every diverged
// block, and records the work in the scrub counters. cfg.Cancel (and
// Stop, while running in the background) ends it within one window:
// nothing more is issued and what is in flight is waited out.
func (s *Scrubber) Pass() (Stats, error) {
	// Capture the stop channel ONCE: Stop nils s.stop before closing
	// it, so re-reading it mid-pass would miss the close and let an
	// in-flight pass run to completion while Stop blocks — racing any
	// engine shutdown that follows. The channel captured here is the
	// one Stop closes for exactly this pass.
	s.mu.Lock()
	stop := s.stop
	s.mu.Unlock()
	return s.pass(stop)
}

// pass is Pass with the stop channel threaded explicitly: the
// background loop hands in ITS channel so a pass launched while Stop
// is nilling s.stop still observes the close.
func (s *Scrubber) pass(stop <-chan struct{}) (Stats, error) {
	cfg := s.cfg.withDefaults()
	total := s.local.NumBlocks()
	// Rate limiting is the point of a pause, so a paused pass hands the
	// pipeline one batch at a time and nothing is fetched ahead;
	// otherwise the whole device is one step.
	step := total
	if s.pause > 0 {
		step = uint64(cfg.Batch)
	}
	var stats Stats
	for base := uint64(0); base < total; base += step {
		part, err := runRanges(s.local, s.remote, cfg, stop, []block.Range{{Start: base, Count: step}})
		stats.BlocksScanned += part.BlocksScanned
		stats.BlocksRepaired += part.BlocksRepaired
		stats.HashBytes += part.HashBytes
		stats.DataBytes += part.DataBytes
		stats.SentBytes += part.SentBytes
		stats.WireBytes += part.WireBytes
		stats.HashFetches += part.HashFetches
		stats.RepairWrites += part.RepairWrites
		s.m.Add(metrics.Scanned, int64(part.BlocksScanned))
		s.m.Add(metrics.Diverged, int64(part.BlocksRepaired))
		if !cfg.DryRun {
			s.m.Add(metrics.Repaired, int64(part.BlocksRepaired))
		}
		if err != nil {
			return stats, err
		}
		if s.pause > 0 {
			s.Sleep(s.pause)
		}
	}
	s.m.Add(metrics.Passes, 1)
	return stats, nil
}

// Start launches the background scrub loop: one Pass every interval
// until Stop. Calling Start on a running scrubber is a no-op.
func (s *Scrubber) Start(interval time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.stop, s.done = stop, done

	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				// A closed stop and a pending tick are both ready;
				// select picks randomly, so re-check before starting
				// a pass Stop is already waiting out.
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.pass(stop); err != nil && !errors.Is(err, ErrCanceled) {
					s.mu.Lock()
					s.runErr = err
					s.mu.Unlock()
					return
				}
			}
		}
	}()
}

// Stop halts the background loop and waits for it to exit, returning
// the error that terminated it early, if any.
func (s *Scrubber) Stop() error {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return nil
	}
	close(stop)
	<-done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runErr
}
