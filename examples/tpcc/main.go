// TPC-C over PRINS: the paper's headline experiment as a runnable
// program. A TPC-C database (on the bundled minidb engine) runs on a
// replicated block device; we execute the same transaction stream
// under all three replication techniques and print the traffic each
// one shipped to the replica.
package main

import (
	"fmt"
	"log"

	"prins"
	"prins/internal/block"
	"prins/internal/minidb"
	"prins/internal/tpcc"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		blockSize    = 8 << 10
		numBlocks    = 1 << 16 // 512MB thin-provisioned
		transactions = 500
	)
	scale := tpcc.DefaultScale(2)

	fmt.Printf("TPC-C: %d warehouses, %d transactions, %dKB blocks\n\n",
		scale.Warehouses, transactions, blockSize>>10)
	fmt.Printf("%-13s %12s %12s %10s\n", "technique", "shipped", "mean/write", "savings")

	for _, mode := range []prins.Mode{prins.ModeTraditional, prins.ModeCompressed, prins.ModePRINS} {
		stats, err := runMode(mode, blockSize, numBlocks, scale, transactions)
		if err != nil {
			return fmt.Errorf("%v: %w", mode, err)
		}
		fmt.Printf("%-13s %9.2f MB %9.0f B %9.1fx\n",
			mode, float64(stats.PayloadBytes)/(1<<20), stats.MeanPayload, stats.SavingsVsRaw)
	}
	return nil
}

func runMode(mode prins.Mode, blockSize int, numBlocks uint64, scale tpcc.Scale, txns int) (prins.Stats, error) {
	// Primary device, loaded with the initial TPC-C state before
	// replication starts (the paper measures steady-state traffic).
	primaryDisk, err := block.NewSparse(blockSize, numBlocks)
	if err != nil {
		return prins.Stats{}, err
	}
	dbCfg := minidb.DBConfig{CacheBytes: 16 << 20, WALPages: 64, CheckpointEvery: 8}
	db, err := minidb.Create(primaryDisk, dbCfg)
	if err != nil {
		return prins.Stats{}, err
	}
	if _, err := tpcc.Load(db, scale, 1); err != nil {
		return prins.Stats{}, err
	}
	if err := db.Close(); err != nil {
		return prins.Stats{}, err
	}

	// Replica node plus initial sync.
	replicaDisk, err := block.NewSparse(blockSize, numBlocks)
	if err != nil {
		return prins.Stats{}, err
	}
	replica := prins.NewReplica(replicaDisk)
	primary, err := prins.NewPrimary(primaryDisk, prins.Config{Mode: mode})
	if err != nil {
		return prins.Stats{}, err
	}
	defer primary.Close()
	if err := primary.InitialSync(replica); err != nil {
		return prins.Stats{}, err
	}
	if err := primary.AttachReplica(replica); err != nil {
		return prins.Stats{}, err
	}

	// Reopen the database over the replicating device and run the mix.
	db, err = minidb.Open(primary, dbCfg)
	if err != nil {
		return prins.Stats{}, err
	}
	client, err := tpcc.Open(db, scale, 2)
	if err != nil {
		return prins.Stats{}, err
	}
	if err := client.Run(txns); err != nil {
		return prins.Stats{}, err
	}
	if err := db.Close(); err != nil {
		return prins.Stats{}, err
	}
	if err := primary.Drain(); err != nil {
		return prins.Stats{}, err
	}

	// Prove the replica converged before trusting the numbers.
	eq, err := prins.Equal(primaryDisk, replicaDisk)
	if err != nil {
		return prins.Stats{}, err
	}
	if !eq {
		return prins.Stats{}, fmt.Errorf("replica diverged")
	}
	return primary.Stats(), nil
}
