package core

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prins/internal/block"
	"prins/internal/iscsi"
	"prins/internal/resync"
	"prins/internal/xcode"
)

// TestShardMapping checks the LBA→shard routing invariants: the shard
// ranges partition the device exactly (disjoint, covering, in order)
// and shardOf agrees with ShardRange for every LBA.
func TestShardMapping(t *testing.T) {
	for _, tc := range []struct {
		nb     uint64
		shards int
	}{
		{64, 1}, {64, 4}, {64, 8}, {64, 7}, {10, 4}, {3, 8}, {1, 1},
	} {
		t.Run(fmt.Sprintf("nb%d_s%d", tc.nb, tc.shards), func(t *testing.T) {
			store, err := block.NewMem(512, tc.nb)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(store, Config{Mode: ModePRINS, Shards: tc.shards})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			if e.Shards() > tc.shards {
				t.Fatalf("Shards() = %d > configured %d", e.Shards(), tc.shards)
			}
			var next uint64
			for s := 0; s < e.Shards(); s++ {
				r := e.ShardRange(s)
				if r.Start != next {
					t.Fatalf("shard %d starts at %d, want %d", s, r.Start, next)
				}
				if r.Count == 0 {
					t.Fatalf("shard %d owns no blocks", s)
				}
				for lba := r.Start; lba < r.Start+r.Count; lba++ {
					if got := e.shardOf(lba); got.id != uint8(s) {
						t.Fatalf("shardOf(%d) = %d, want %d", lba, got.id, s)
					}
				}
				next = r.Start + r.Count
			}
			if next != tc.nb {
				t.Fatalf("shards cover %d blocks, device has %d", next, tc.nb)
			}
		})
	}
}

// TestShardedCrossShardParallelWriters is the tentpole stress: many
// goroutines spread across the whole device of a sharded engine, every
// mode, sync and async. The replica must converge byte-identically and
// the per-shard counters must add up to the whole workload.
func TestShardedCrossShardParallelWriters(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		for _, mode := range AllModes() {
			for _, async := range []bool{false, true} {
				name := fmt.Sprintf("s%d/%s/sync", shards, mode)
				if async {
					name = fmt.Sprintf("s%d/%s/async", shards, mode)
				}
				t.Run(name, func(t *testing.T) {
					const (
						blockSize = 1024
						numBlocks = 64
						writers   = 8
						perWriter = 120
					)
					primary, err := block.NewMem(blockSize, numBlocks)
					if err != nil {
						t.Fatal(err)
					}
					replicaStore, err := block.NewMem(blockSize, numBlocks)
					if err != nil {
						t.Fatal(err)
					}
					engine, err := NewEngine(primary, Config{Mode: mode, Async: async, Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					defer engine.Close()
					if err := engine.AttachReplica(&Loopback{Replica: NewReplicaEngine(replicaStore)}); err != nil {
						t.Fatal(err)
					}

					var wg sync.WaitGroup
					errCh := make(chan error, writers)
					for g := 0; g < writers; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							rng := rand.New(rand.NewSource(int64(1000 + g)))
							buf := make([]byte, blockSize)
							for i := 0; i < perWriter; i++ {
								lba := uint64(rng.Intn(numBlocks))
								rng.Read(buf)
								if err := engine.WriteBlock(lba, buf); err != nil {
									errCh <- err
									return
								}
							}
						}(g)
					}
					wg.Wait()
					close(errCh)
					for err := range errCh {
						t.Fatal(err)
					}
					if err := engine.Drain(); err != nil {
						t.Fatal(err)
					}

					eq, err := block.Equal(primary, replicaStore)
					if err != nil {
						t.Fatal(err)
					}
					if !eq {
						lba, _, _ := block.FirstDiff(primary, replicaStore)
						t.Fatalf("replica diverged at lba %d", lba)
					}

					snaps := engine.ShardStats()
					if len(snaps) != engine.Shards() {
						t.Fatalf("ShardStats has %d entries, engine has %d shards", len(snaps), engine.Shards())
					}
					var wrote, shipped int64
					for _, s := range snaps {
						wrote += s.Writes
						shipped += s.Shipped
					}
					if wrote != writers*perWriter {
						t.Errorf("per-shard writes sum to %d, want %d", wrote, writers*perWriter)
					}
					if shipped != writers*perWriter {
						t.Errorf("per-shard shipped sum to %d, want %d", shipped, writers*perWriter)
					}
				})
			}
		}
	}
}

// streamSeqCheckClient records per-stream sequence violations: the
// merge-layer contract is strictly increasing seq within each
// (vol, shard) stream, with no cross-stream constraint.
type streamSeqCheckClient struct {
	inner ReplicaClient

	mu         sync.Mutex
	last       map[uint32]uint64 // streamKey -> last seq
	violations int
	calls      int
}

func newStreamSeqCheckClient(inner ReplicaClient) *streamSeqCheckClient {
	return &streamSeqCheckClient{inner: inner, last: make(map[uint32]uint64)}
}

func (c *streamSeqCheckClient) observe(shard uint8, vol uint16, seq uint64) {
	key := streamKey(shard, vol)
	c.mu.Lock()
	if seq <= c.last[key] {
		c.violations++
	}
	c.last[key] = seq
	c.calls++
	c.mu.Unlock()
}

func (c *streamSeqCheckClient) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	c.observe(shard, vol, seq)
	return c.inner.ReplicaWriteStream(mode, shard, vol, seq, lba, hash, frame)
}

func (c *streamSeqCheckClient) stats() (violations, calls int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.violations, c.calls
}

// TestShardedSameLBAOrdering hammers one hot LBA in every shard from
// many goroutines at once. Within each shard's stream the replica must
// observe strictly increasing seqs and every frame; across shards no
// ordering is required. Everything must end byte-identical.
func TestShardedSameLBAOrdering(t *testing.T) {
	for _, async := range []bool{false, true} {
		name := "sync"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			const (
				blockSize = 1024
				numBlocks = 64
				shards    = 4
				writers   = 8 // two writers per hot LBA
				perWriter = 150
			)
			primary, err := block.NewMem(blockSize, numBlocks)
			if err != nil {
				t.Fatal(err)
			}
			replicaStore, err := block.NewMem(blockSize, numBlocks)
			if err != nil {
				t.Fatal(err)
			}
			engine, err := NewEngine(primary, Config{Mode: ModePRINS, Async: async, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer engine.Close()
			check := newStreamSeqCheckClient(&Loopback{Replica: NewReplicaEngine(replicaStore)})
			if err := engine.AttachReplica(check); err != nil {
				t.Fatal(err)
			}

			// One hot LBA per shard; writers g and g+shards share a target.
			hot := make([]uint64, shards)
			for s := 0; s < shards; s++ {
				hot[s] = engine.ShardRange(s).Start
			}

			var wg sync.WaitGroup
			errCh := make(chan error, writers)
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(7000 + g)))
					buf := make([]byte, blockSize)
					lba := hot[g%shards]
					for i := 0; i < perWriter; i++ {
						rng.Read(buf)
						if err := engine.WriteBlock(lba, buf); err != nil {
							errCh <- err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			if err := engine.Drain(); err != nil {
				t.Fatal(err)
			}

			violations, calls := check.stats()
			if violations != 0 {
				t.Errorf("replica saw %d out-of-order frames within a stream", violations)
			}
			if calls != writers*perWriter {
				t.Errorf("replica saw %d frames, want %d", calls, writers*perWriter)
			}
			eq, err := block.Equal(primary, replicaStore)
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				lba, _, _ := block.FirstDiff(primary, replicaStore)
				t.Errorf("replica diverged at lba %d", lba)
			}
		})
	}
}

// TestShardedOverTCP drives a sharded engine's tagged pushes (the v5
// wire path, batching included) through a real target to a replica
// engine and checks convergence under concurrent writers.
func TestShardedOverTCP(t *testing.T) {
	const (
		blockSize = 512
		numBlocks = 64
		shards    = 8
		writers   = 6
		perWriter = 100
	)
	replicaStore, _ := block.NewMem(blockSize, numBlocks)
	node := startNode(t, "replica", NewReplicaEngine(replicaStore))

	repConn, err := iscsi.Dial(node.addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer repConn.Close()
	if err := repConn.Login("replica"); err != nil {
		t.Fatal(err)
	}

	primary, _ := block.NewMem(blockSize, numBlocks)
	engine, err := NewEngine(primary, Config{Mode: ModePRINS, Async: true, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	if err := engine.AttachReplica(repConn); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(9000 + g)))
			buf := make([]byte, blockSize)
			for i := 0; i < perWriter; i++ {
				rng.Read(buf)
				if err := engine.WriteBlock(uint64(rng.Intn(numBlocks)), buf); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := engine.Drain(); err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "sharded replica over TCP", primary, replicaStore)
}

// encodeTestFrame produces a raw-codec frame for a block.
func encodeTestFrame(t *testing.T, blockData []byte) []byte {
	t.Helper()
	frame, err := xcode.AppendEncode(nil, xcode.CodecRaw, blockData)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// flakyStreamClient wraps a client with a switchable
// total-failure mode, modelling a replica session that crashes and is
// later restored.
type flakyStreamClient struct {
	inner   ReplicaClient
	failing atomic.Bool
}

func (c *flakyStreamClient) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	if c.failing.Load() {
		return errInjectedCrash
	}
	return c.inner.ReplicaWriteStream(mode, shard, vol, seq, lba, hash, frame)
}

var errInjectedCrash = errors.New("injected replica crash")

// TestShardedRandomizedInvariants drives a sharded engine through a
// seeded random interleaving of writes, replica crashes, and
// heal-resync cycles, concurrently from several writers. After every
// heal — and at the end — the invariants must hold: the replica is
// byte-identical to the primary and every shard's dirty map is empty.
// The generator is seeded, so a failure reproduces by seed.
func TestShardedRandomizedInvariants(t *testing.T) {
	for _, seed := range []int64{1, 42, 20260808} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const (
				blockSize = 512
				numBlocks = 96
				shards    = 4
				writers   = 4
				ops       = 400
			)
			primary, err := block.NewMem(blockSize, numBlocks)
			if err != nil {
				t.Fatal(err)
			}
			replicaStore, err := block.NewMem(blockSize, numBlocks)
			if err != nil {
				t.Fatal(err)
			}
			client := &flakyStreamClient{inner: &Loopback{Replica: NewReplicaEngine(replicaStore)}}
			engine, err := NewEngine(primary, Config{
				Mode:          ModePRINS,
				Async:         true,
				Shards:        shards,
				Retry:         chaosRetry(),
				AllowDegraded: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer engine.Close()
			if err := engine.AttachReplica(client); err != nil {
				t.Fatal(err)
			}

			// heal quiesces replication, repairs exactly the dirty runs
			// from the primary's authoritative copy, and reinstates the
			// replica — the recovery lifecycle the engine documents.
			heal := func() {
				t.Helper()
				if err := engine.Drain(); err != nil {
					t.Fatalf("seed %d: drain: %v", seed, err)
				}
				client.failing.Store(false)
				buf := make([]byte, blockSize)
				for s := 0; s < engine.Shards(); s++ {
					for _, r := range engine.ShardDirtyRanges(0, s) {
						for lba := r.Start; lba < r.Start+r.Count; lba++ {
							if err := engine.ReadBlock(lba, buf); err != nil {
								t.Fatal(err)
							}
							if err := replicaStore.WriteBlock(lba, buf); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				engine.ClearDirty(0)
				engine.ClearDegraded()
				if n := engine.DirtyBlocks(0); n != 0 {
					t.Fatalf("seed %d: %d dirty blocks after heal", seed, n)
				}
				mustEqual(t, fmt.Sprintf("seed %d replica after heal", seed), primary, replicaStore)
			}

			rng := rand.New(rand.NewSource(seed))
			for round := 0; round < ops/100; round++ {
				crashAt := -1
				if rng.Intn(2) == 0 { // half the rounds crash mid-stream
					crashAt = rng.Intn(100)
				}
				// Each round: concurrent writers spray the device; the
				// designated op index trips the crash while they run.
				var wg sync.WaitGroup
				errCh := make(chan error, writers)
				for g := 0; g < writers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						wr := rand.New(rand.NewSource(seed*1000 + int64(round*writers+g)))
						buf := make([]byte, blockSize)
						for i := 0; i < 100/writers; i++ {
							if crashAt >= 0 && g == 0 && i == crashAt/writers {
								client.failing.Store(true)
							}
							wr.Read(buf)
							if err := engine.WriteBlock(uint64(wr.Intn(numBlocks)), buf); err != nil {
								errCh <- err
								return
							}
						}
					}(g)
				}
				wg.Wait()
				close(errCh)
				for err := range errCh {
					t.Fatalf("seed %d round %d: %v", seed, round, err)
				}
				heal()
			}

			// Final invariants, once more, after everything settled.
			if err := engine.Drain(); err != nil {
				t.Fatal(err)
			}
			mustEqual(t, fmt.Sprintf("seed %d final replica", seed), primary, replicaStore)
			for s := 0; s < engine.Shards(); s++ {
				if len(engine.ShardDirtyRanges(0, s)) != 0 {
					t.Errorf("seed %d: shard %d dirty map not empty at end", seed, s)
				}
			}
		})
	}
}

// TestChaosShardedReplicaCrashMidBatch is the sharded acceptance
// chaos: a replica node dies while several shards are shipping batched
// pushes. The primary must keep accepting writes on every shard
// (degraded), each shard's dirty map must name its own gap, a ranged
// resync over exactly the per-shard dirty runs must heal the replica,
// and live replication must resume — ending byte-identical to a
// fault-free run.
func TestChaosShardedReplicaCrashMidBatch(t *testing.T) {
	const (
		bs     = 1024
		nb     = 64
		shards = 4
		writes = 80
	)
	seeds := []int64{11, 22, 33}

	// Fault-free baseline over the same seeds, sharded the same way.
	baseStore, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	be, err := NewEngine(baseStore, Config{Mode: ModePRINS, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		writeWorkload(t, be, seed, writes)
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}

	replicaStore, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	repEngine := NewReplicaEngine(replicaStore)

	target1 := iscsi.NewTarget()
	target1.Export("replica", repEngine)
	addr1, err := target1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer target1.Close()

	var addrMu sync.Mutex
	currentAddr := addr1.String()
	repConn, err := iscsi.Dial(addr1.String())
	if err != nil {
		t.Fatal(err)
	}
	defer repConn.Close()
	if err := repConn.Login("replica"); err != nil {
		t.Fatal(err)
	}
	repConn.EnableReconnect("replica", func() (net.Conn, error) {
		addrMu.Lock()
		addr := currentAddr
		addrMu.Unlock()
		return net.DialTimeout("tcp", addr, time.Second)
	})

	primaryStore, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(primaryStore, Config{
		Mode:          ModePRINS,
		Async:         true,
		Shards:        shards,
		Retry:         chaosRetry(),
		AllowDegraded: true,
		BatchFrames:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.AttachReplica(repConn); err != nil {
		t.Fatal(err)
	}

	// Phase 1: healthy batched replication across all shards.
	writeWorkload(t, e, seeds[0], writes)
	if err := e.Drain(); err != nil {
		t.Fatalf("healthy drain: %v", err)
	}
	if e.Degraded() {
		t.Fatal("healthy phase should not degrade")
	}

	// Phase 2: kill the replica node, then write across every shard.
	// All shards must keep accepting writes and record their own gaps.
	target1.Close()
	writeWorkload(t, e, seeds[1], writes)
	if err := e.Drain(); err != nil {
		t.Fatalf("drain with replica down: %v", err)
	}
	if !e.Degraded() {
		t.Fatal("replica crash should degrade replication")
	}
	var dirtyShards int
	for s := 0; s < e.Shards(); s++ {
		sr := e.ShardRange(s)
		for _, r := range e.ShardDirtyRanges(0, s) {
			if r.Start < sr.Start || r.Start+r.Count > sr.Start+sr.Count {
				t.Fatalf("shard %d dirty range [%d,%d) escapes its LBA range [%d,%d)",
					s, r.Start, r.Start+r.Count, sr.Start, sr.Start+sr.Count)
			}
		}
		if len(e.ShardDirtyRanges(0, s)) > 0 {
			dirtyShards++
		}
	}
	if dirtyShards < 2 {
		t.Fatalf("crash mid-workload dirtied %d shards, want several", dirtyShards)
	}

	// Phase 3: restart the replica and heal it shard by shard with
	// ranged resyncs over exactly the per-shard dirty runs.
	target2 := iscsi.NewTarget()
	target2.Export("replica", repEngine)
	addr2, err := target2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer target2.Close()
	addrMu.Lock()
	currentAddr = addr2.String()
	addrMu.Unlock()

	heal, err := iscsi.Dial(addr2.String())
	if err != nil {
		t.Fatal(err)
	}
	defer heal.Close()
	if err := heal.Login("replica"); err != nil {
		t.Fatal(err)
	}
	var repaired uint64
	for s := 0; s < e.Shards(); s++ {
		ranges := e.ShardDirtyRanges(0, s)
		if len(ranges) == 0 {
			continue
		}
		stats, err := resync.RunRanges(e, heal, resync.Config{}, ranges...)
		if err != nil {
			t.Fatalf("shard %d resync: %v", s, err)
		}
		repaired += stats.BlocksRepaired
		e.ClearDirty(0, ranges...)
	}
	if repaired == 0 {
		t.Error("crash should leave divergence for the ranged resyncs to repair")
	}
	if e.DirtyBlocks(0) != 0 {
		t.Fatalf("dirty maps should be empty after per-shard heal, have %d blocks", e.DirtyBlocks(0))
	}
	e.ClearDegraded()

	// Phase 4: live replication resumes over the reconnected session.
	writeWorkload(t, e, seeds[2], writes)
	if err := e.Drain(); err != nil {
		t.Fatalf("post-recovery drain: %v", err)
	}
	if e.Degraded() {
		t.Fatal("recovered replica degraded again")
	}

	mustEqual(t, "sharded primary after crash+recovery", primaryStore, baseStore)
	mustEqual(t, "sharded replica after crash+recovery", replicaStore, baseStore)
}
