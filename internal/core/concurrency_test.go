package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"prins/internal/block"
	"prins/internal/iscsi"
)

// TestConcurrentWriters drives the engine from many goroutines (as an
// iSCSI target with several sessions does) and checks that the replica
// still converges: the engine must serialize parity computation and
// preserve write order per the sequence numbers it assigns.
func TestConcurrentWriters(t *testing.T) {
	for _, mode := range AllModes() {
		for _, async := range []bool{false, true} {
			name := mode.String() + "/sync"
			if async {
				name = mode.String() + "/async"
			}
			t.Run(name, func(t *testing.T) {
				const (
					blockSize = 1024
					numBlocks = 64
					writers   = 8
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
				replica := NewReplicaEngine(replicaStore)
				engine, err := NewEngine(primary, Config{Mode: mode, Async: async})
				if err != nil {
					t.Fatal(err)
				}
				defer engine.Close()
				engine.AttachReplica(&Loopback{Replica: replica})

				var wg sync.WaitGroup
				errCh := make(chan error, writers)
				for g := 0; g < writers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(g)))
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
					t.Fatalf("replica diverged at lba %d under concurrency", lba)
				}
				s := engine.Traffic().Snapshot()
				if s.Writes != writers*perWriter {
					t.Errorf("writes = %d, want %d", s.Writes, writers*perWriter)
				}
			})
		}
	}
}

// seqCheckClient wraps a ReplicaClient and records any frame that
// arrives out of sequence order. XOR parity application is not
// idempotent and not commutative with stale state, so the per-replica
// pipeline must present frames in strictly increasing seq order — this
// is the invariant the replica's dedupe logic relies on.
type seqCheckClient struct {
	inner ReplicaClient

	mu         sync.Mutex
	last       uint64
	violations int
	calls      int
}

func (c *seqCheckClient) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	c.mu.Lock()
	if seq <= c.last {
		c.violations++
	}
	c.last = seq
	c.calls++
	c.mu.Unlock()
	return c.inner.ReplicaWriteStream(mode, shard, vol, seq, lba, hash, frame)
}

func (c *seqCheckClient) stats() (violations, calls int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.violations, c.calls
}

// TestConcurrentSameLBAOrdering is the worst case for the per-replica
// pipelines: many goroutines updating the same block, where any frame
// reordering or duplicate delivery visibly corrupts the replica. Every
// replica must observe strictly increasing sequence numbers, see every
// frame, and end byte-identical to the primary — sync and async.
func TestConcurrentSameLBAOrdering(t *testing.T) {
	for _, async := range []bool{false, true} {
		name := "sync"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			const (
				blockSize = 1024
				numBlocks = 8
				hotLBA    = 3
				writers   = 8
				perWriter = 150
				replicas  = 2
			)
			primary, err := block.NewMem(blockSize, numBlocks)
			if err != nil {
				t.Fatal(err)
			}
			engine, err := NewEngine(primary, Config{Mode: ModePRINS, Async: async})
			if err != nil {
				t.Fatal(err)
			}
			defer engine.Close()

			stores := make([]*block.MemStore, replicas)
			checks := make([]*seqCheckClient, replicas)
			for i := range stores {
				stores[i], err = block.NewMem(blockSize, numBlocks)
				if err != nil {
					t.Fatal(err)
				}
				checks[i] = &seqCheckClient{inner: &Loopback{Replica: NewReplicaEngine(stores[i])}}
				engine.AttachReplica(checks[i])
			}

			var wg sync.WaitGroup
			errCh := make(chan error, writers)
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(40 + g)))
					buf := make([]byte, blockSize)
					for i := 0; i < perWriter; i++ {
						rng.Read(buf)
						if err := engine.WriteBlock(hotLBA, buf); err != nil {
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

			for i, c := range checks {
				violations, calls := c.stats()
				if violations != 0 {
					t.Errorf("replica %d saw %d out-of-order frames", i, violations)
				}
				if calls != writers*perWriter {
					t.Errorf("replica %d saw %d frames, want %d", i, calls, writers*perWriter)
				}
				eq, err := block.Equal(primary, stores[i])
				if err != nil {
					t.Fatal(err)
				}
				if !eq {
					lba, _, _ := block.FirstDiff(primary, stores[i])
					t.Errorf("replica %d diverged at lba %d", i, lba)
				}
			}
		})
	}
}

// gateClient blocks each delivery until released, and announces every
// arrival. It lets tests prove parallelism deterministically: if two
// gated replicas both announce an arrival before either is released,
// their deliveries are necessarily concurrent.
type gateClient struct {
	inner   ReplicaClient
	arrived chan struct{} // one send per delivery arrival
	release chan struct{} // close to let all deliveries proceed
}

func (g *gateClient) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	g.arrived <- struct{}{}
	<-g.release
	return g.inner.ReplicaWriteStream(mode, shard, vol, seq, lba, hash, frame)
}

// TestSyncShipsFanOutInParallel proves the tentpole property without
// clocks: with every replica's client gated, a single synchronous
// WriteBlock must reach all replicas before any of them acknowledges.
// Under the old single-worker ship loop, replica 2 was never contacted
// until replica 1 returned, so this test deadlocked (and go test's
// timeout flagged the regression).
func TestSyncShipsFanOutInParallel(t *testing.T) {
	const replicas = 3
	primary, err := block.NewMem(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(primary, Config{Mode: ModePRINS})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()

	release := make(chan struct{})
	gates := make([]*gateClient, replicas)
	stores := make([]*block.MemStore, replicas)
	for i := range gates {
		stores[i], err = block.NewMem(512, 8)
		if err != nil {
			t.Fatal(err)
		}
		gates[i] = &gateClient{
			inner:   &Loopback{Replica: NewReplicaEngine(stores[i])},
			arrived: make(chan struct{}, 1),
			release: release,
		}
		engine.AttachReplica(gates[i])
	}

	writeDone := make(chan error, 1)
	go func() {
		buf := make([]byte, 512)
		for i := range buf {
			buf[i] = byte(i)
		}
		writeDone <- engine.WriteBlock(5, buf)
	}()

	// All replicas must be contacted while every delivery is still
	// blocked. This receive set completes only if the ship is parallel.
	for _, g := range gates {
		<-g.arrived
	}
	close(release)
	if err := <-writeDone; err != nil {
		t.Fatal(err)
	}
	for i, st := range stores {
		eq, err := block.Equal(primary, st)
		if err != nil || !eq {
			t.Errorf("replica %d diverged: eq=%v err=%v", i, eq, err)
		}
	}
}

// TestSlowReplicaDoesNotStallOthers: in async mode a stalled replica
// must not hold back delivery to healthy ones — each pipeline drains
// independently. The healthy replica receives and applies the whole
// workload while the gated replica is still stuck on its first frame.
func TestSlowReplicaDoesNotStallOthers(t *testing.T) {
	const writes = 20
	primary, err := block.NewMem(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(primary, Config{Mode: ModePRINS, Async: true, QueueDepth: writes})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()

	slowStore, _ := block.NewMem(512, 8)
	release := make(chan struct{})
	slow := &gateClient{
		inner:   &Loopback{Replica: NewReplicaEngine(slowStore)},
		arrived: make(chan struct{}, writes),
		release: release,
	}
	fastStore, _ := block.NewMem(512, 8)
	fast := &seqCheckClient{inner: &Loopback{Replica: NewReplicaEngine(fastStore)}}
	engine.AttachReplica(slow)
	engine.AttachReplica(fast)

	writeWorkload(t, engine, 12, writes)

	// The fast replica must finish the whole workload while the slow
	// one has not acknowledged a single frame. Poll its call counter
	// through the client's own mutex; no clocks involved.
	for {
		if _, calls := fast.stats(); calls == writes {
			break
		}
		runtime.Gosched()
	}
	close(release)
	if err := engine.Drain(); err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*block.MemStore{"slow": slowStore, "fast": fastStore} {
		eq, err := block.Equal(primary, st)
		if err != nil || !eq {
			t.Errorf("%s replica diverged: eq=%v err=%v", name, eq, err)
		}
	}
}

// TestConcurrentWritersOverTCPTarget hammers an engine through a real
// target with multiple sessions.
func TestConcurrentWritersOverTCPTarget(t *testing.T) {
	const (
		blockSize = 512
		numBlocks = 32
	)
	primary, _ := block.NewMem(blockSize, numBlocks)
	replicaStore, _ := block.NewMem(blockSize, numBlocks)
	replica := NewReplicaEngine(replicaStore)
	engine, err := NewEngine(primary, Config{Mode: ModePRINS, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	engine.AttachReplica(&Loopback{Replica: replica})

	node := startNode(t, "vol", engine)

	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			app, err := dialNode(node)
			if err != nil {
				errCh <- err
				return
			}
			defer app.Close()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			buf := make([]byte, blockSize)
			for i := 0; i < 100; i++ {
				rng.Read(buf)
				if err := app.WriteBlock(uint64(rng.Intn(numBlocks)), buf); err != nil {
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
	if err != nil || !eq {
		t.Fatalf("diverged: eq=%v err=%v", eq, err)
	}
}

// dialNode logs a fresh initiator into a test node.
func dialNode(n *node) (*iscsi.Initiator, error) {
	init, err := iscsi.Dial(n.addr.String())
	if err != nil {
		return nil, err
	}
	if err := init.Login("vol"); err != nil {
		init.Close()
		return nil, err
	}
	return init, nil
}
