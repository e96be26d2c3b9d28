// Quickstart: two in-process storage nodes, a PRINS primary and its
// replica. We write partial-block updates — the pattern real
// applications produce — and print how little data PRINS had to ship
// compared with what traditional replication would have sent.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"prins"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		blockSize = 8 << 10 // 8KB, the typical database block
		numBlocks = 256
	)

	// Local devices for both nodes.
	primaryDisk, err := prins.NewMemStore(blockSize, numBlocks)
	if err != nil {
		return err
	}
	replicaDisk, err := prins.NewMemStore(blockSize, numBlocks)
	if err != nil {
		return err
	}

	// The replica engine keeps replicaDisk byte-identical to the
	// primary by applying parity pushes.
	replica := prins.NewReplica(replicaDisk)

	// The primary intercepts every write: local write + forward parity
	// P' = new XOR old + encode + ship.
	primary, err := prins.NewPrimary(primaryDisk, prins.Config{
		Mode:          prins.ModePRINS,
		RecordDensity: true,
	})
	if err != nil {
		return err
	}
	defer primary.Close()
	if err := primary.AttachReplica(replica); err != nil {
		return err
	}

	// An application updating records in place: each write changes
	// ~10% of one block.
	rng := rand.New(rand.NewSource(42))
	buf := make([]byte, blockSize)
	const writes = 2000
	for i := 0; i < writes; i++ {
		lba := uint64(rng.Intn(numBlocks))
		if err := primary.ReadBlock(lba, buf); err != nil {
			return err
		}
		off := rng.Intn(blockSize * 9 / 10)
		rng.Read(buf[off : off+blockSize/10])
		if err := primary.WriteBlock(lba, buf); err != nil {
			return err
		}
	}
	if err := primary.Drain(); err != nil {
		return err
	}

	// The replica must be byte-identical.
	eq, err := prins.Equal(primaryDisk, replicaDisk)
	if err != nil {
		return err
	}
	if !eq {
		return fmt.Errorf("replica diverged")
	}

	s := primary.Stats()
	fmt.Printf("writes:               %d x %dKB blocks\n", s.Writes, blockSize>>10)
	fmt.Printf("traditional would ship: %.1f MB\n", float64(s.RawBytes)/(1<<20))
	fmt.Printf("PRINS shipped:          %.2f MB (mean %.0f B/write)\n",
		float64(s.PayloadBytes)/(1<<20), s.MeanPayload)
	fmt.Printf("network savings:        %.1fx\n", s.SavingsVsRaw)
	fmt.Printf("mean changed fraction:  %.1f%% of each block\n", s.MeanChangedFraction*100)
	fmt.Println("replica verified byte-identical to primary")
	return nil
}
