// Raidnode: the paper's zero-overhead configuration. The primary's
// local storage is a RAID-5 array, whose read-modify-write small
// writes already compute the forward parity P' = A_new XOR A_old to
// update the parity disk; the PRINS engine piggybacks on that
// computation, so replication adds no XOR of its own. We then fail a
// member disk mid-workload, keep writing in degraded mode, rebuild
// onto a spare — and the replica tracks perfectly throughout.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"prins"
	"prins/internal/block"
	"prins/internal/core"
	"prins/internal/raid"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		blockSize = 4096
		perMember = 128
		members   = 4 // 3 data + rotating parity
	)

	// Assemble the RAID-5 array.
	disks := make([]block.Store, members)
	for i := range disks {
		d, err := block.NewMem(blockSize, perMember)
		if err != nil {
			return err
		}
		disks[i] = d
	}
	array, err := raid.New(raid.Level5, disks)
	if err != nil {
		return err
	}
	fmt.Printf("RAID-5 array: %d members, %d data blocks of %dB\n",
		array.Members(), array.NumBlocks(), array.BlockSize())

	// PRINS engine over the array; the engine detects the array's
	// WriteBlockWithParity fast path automatically.
	replicaDisk, err := prins.NewMemStore(blockSize, array.NumBlocks())
	if err != nil {
		return err
	}
	replicaEngine := core.NewReplicaEngine(replicaDisk)
	engine, err := core.NewEngine(array, core.Config{Mode: core.ModePRINS})
	if err != nil {
		return err
	}
	defer engine.Close()
	if err := engine.AttachReplica(&core.Loopback{Replica: replicaEngine}); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(11))
	buf := make([]byte, blockSize)
	write := func(n int) error {
		for i := 0; i < n; i++ {
			lba := uint64(rng.Intn(int(array.NumBlocks())))
			if err := engine.ReadBlock(lba, buf); err != nil {
				return err
			}
			off := rng.Intn(blockSize - 256)
			rng.Read(buf[off : off+256])
			if err := engine.WriteBlock(lba, buf); err != nil {
				return err
			}
		}
		return nil
	}

	if err := write(300); err != nil {
		return err
	}
	s := engine.Traffic().Snapshot()
	fmt.Printf("healthy: %d writes, PRINS shipped %.0fKB (traditional: %.0fKB, %.1fx)\n",
		s.Writes, float64(s.PayloadBytes)/1024, float64(s.RawBytes)/1024, s.SavingsVsRaw())

	// Disk failure: degraded reads and writes, replication continues.
	if err := array.FailMember(1); err != nil {
		return err
	}
	fmt.Println("member 1 FAILED — continuing degraded")
	if err := write(150); err != nil {
		return err
	}

	// Rebuild onto a hot spare.
	spare, err := block.NewMem(blockSize, perMember)
	if err != nil {
		return err
	}
	if err := array.Rebuild(spare); err != nil {
		return err
	}
	if _, ok, err := array.Verify(); err != nil || !ok {
		return fmt.Errorf("array parity inconsistent after rebuild")
	}
	fmt.Println("rebuilt onto spare; array parity verified")

	if err := write(150); err != nil {
		return err
	}
	if err := engine.Drain(); err != nil {
		return err
	}

	eq, err := block.Equal(array, replicaDisk)
	if err != nil {
		return err
	}
	if !eq {
		return fmt.Errorf("replica diverged")
	}
	fmt.Println("replica verified byte-identical through failure, degraded writes, and rebuild")
	return nil
}
