package experiments

import (
	"fmt"

	"prins/internal/block"
	"prins/internal/core"
	"prins/internal/memfs"
	"prins/internal/metrics"
	"prins/internal/minidb"
	"prins/internal/parity"
	"prins/internal/tpcc"
	"prins/internal/tpcw"
)

// Workload prepares state on a plain store and then runs against a
// replicating store. Setup runs once per cell with replication off
// (the paper measures steady-state replication traffic, not initial
// load); Run executes the measured phase on the engine-wrapped device.
type Workload interface {
	// Name labels the workload in reports.
	Name() string
	// Setup loads initial state onto the raw device.
	Setup(store block.Store) error
	// Run drives the measured phase against the (replicating) device.
	Run(store block.Store) error
}

// deviceBlocks sizes the device: a fixed byte budget so every block
// size sees the same capacity.
func deviceBlocks(blockSize int, budgetBytes uint64) uint64 {
	return budgetBytes / uint64(blockSize)
}

// defaultDeviceBytes comfortably holds every scaled workload.
const defaultDeviceBytes = 512 << 20

// MeasureCell runs one (workload, mode, blockSize) cell and returns
// the primary's traffic snapshot plus the replica convergence check.
func MeasureCell(w Workload, mode core.Mode, blockSize int) (metrics.Snapshot, *parity.DensityStats, error) {
	primary, err := block.NewSparse(blockSize, deviceBlocks(blockSize, defaultDeviceBytes))
	if err != nil {
		return metrics.Snapshot{}, nil, err
	}
	defer primary.Close()

	if err := w.Setup(primary); err != nil {
		return metrics.Snapshot{}, nil, fmt.Errorf("%s setup: %w", w.Name(), err)
	}

	// Initial sync: replica gets a copy of the loaded state.
	replicaStore, err := block.NewSparse(blockSize, primary.NumBlocks())
	if err != nil {
		return metrics.Snapshot{}, nil, err
	}
	defer replicaStore.Close()
	if err := copySparse(replicaStore, primary); err != nil {
		return metrics.Snapshot{}, nil, err
	}

	replica := core.NewReplicaEngine(replicaStore)
	engine, err := core.NewEngine(primary, core.Config{
		Mode:          mode,
		RecordDensity: mode == core.ModePRINS,
	})
	if err != nil {
		return metrics.Snapshot{}, nil, err
	}
	defer engine.Close()
	engine.AttachReplica(&core.Loopback{Replica: replica})

	if err := w.Run(engine); err != nil {
		return metrics.Snapshot{}, nil, fmt.Errorf("%s run: %w", w.Name(), err)
	}
	if err := engine.Drain(); err != nil {
		return metrics.Snapshot{}, nil, err
	}

	// Replica must have converged; a reproduction that miscounts
	// convergence would invalidate the traffic numbers.
	eq, err := sparseEqual(primary, replicaStore)
	if err != nil {
		return metrics.Snapshot{}, nil, err
	}
	if !eq {
		return metrics.Snapshot{}, nil, fmt.Errorf("%s: replica diverged in mode %v", w.Name(), mode)
	}
	return engine.Traffic().Snapshot(), engine.Density(), nil
}

// copySparse copies only materialized blocks: both stores read zeros
// elsewhere, so that suffices and keeps large thin devices cheap.
func copySparse(dst, src *block.SparseStore) error {
	return src.ForEachMaterialized(func(lba uint64, data []byte) error {
		return dst.WriteBlock(lba, data)
	})
}

// sparseEqual compares two sparse stores by their materialized blocks
// from both sides; unmaterialized blocks read as zeros on both.
func sparseEqual(a, b *block.SparseStore) (bool, error) {
	if a.BlockSize() != b.BlockSize() || a.NumBlocks() != b.NumBlocks() {
		return false, nil
	}
	check := func(x, y *block.SparseStore) (bool, error) {
		buf := make([]byte, y.BlockSize())
		equal := true
		err := x.ForEachMaterialized(func(lba uint64, data []byte) error {
			if !equal {
				return nil
			}
			if err := y.ReadBlock(lba, buf); err != nil {
				return err
			}
			if !equalBytes(data, buf) {
				equal = false
			}
			return nil
		})
		return equal, err
	}
	if ok, err := check(a, b); err != nil || !ok {
		return ok, err
	}
	return check(b, a)
}

func equalBytes(a, b []byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- concrete workloads ---

// dbConfig keeps engine parameters uniform across modes so only the
// replication technique varies within a figure.
func dbConfig() minidb.DBConfig {
	return minidb.DBConfig{CacheBytes: 16 << 20, WALPages: 64, CheckpointEvery: 8}
}

// TPCCWorkload is the TPC-C traffic workload of Figures 4 and 5.
type TPCCWorkload struct {
	// Label distinguishes the Oracle-config from the Postgres-config
	// runs.
	Label string
	// Scale is the TPC-C scale.
	Scale tpcc.Scale
	// Transactions is the measured-phase length.
	Transactions int
	// Seed makes the run deterministic.
	Seed int64
}

var _ Workload = (*TPCCWorkload)(nil)

// Name implements Workload.
func (w *TPCCWorkload) Name() string { return w.Label }

// Setup implements Workload: create and populate the database.
func (w *TPCCWorkload) Setup(store block.Store) error {
	db, err := minidb.Create(store, dbConfig())
	if err != nil {
		return err
	}
	if _, err := tpcc.Load(db, w.Scale, w.Seed); err != nil {
		return err
	}
	return db.Close()
}

// Run implements Workload: reopen over the replicating device and run
// the transaction mix.
func (w *TPCCWorkload) Run(store block.Store) error {
	db, err := minidb.Open(store, dbConfig())
	if err != nil {
		return err
	}
	client, err := tpcc.Open(db, w.Scale, w.Seed+1)
	if err != nil {
		return err
	}
	if err := client.Run(w.Transactions); err != nil {
		return err
	}
	return db.Close()
}

// TPCWWorkload is the TPC-W bookstore workload of Figure 6.
type TPCWWorkload struct {
	// Config sizes the bookstore.
	Config tpcw.Config
	// Interactions is the measured-phase length.
	Interactions int
	// Seed makes the run deterministic.
	Seed int64
}

var _ Workload = (*TPCWWorkload)(nil)

// Name implements Workload.
func (w *TPCWWorkload) Name() string { return "tpc-w/mysql" }

// Setup implements Workload. TPC-W keeps browser/cart state in the
// client, so the measured phase reloads the site on the replicated
// device; population happens in Run's DB but we pre-create the DB here
// so the engine only sees transaction traffic.
func (w *TPCWWorkload) Setup(store block.Store) error {
	db, err := minidb.Create(store, dbConfig())
	if err != nil {
		return err
	}
	if _, err := tpcw.Load(db, w.Config, w.Seed); err != nil {
		return err
	}
	return db.Close()
}

// Run implements Workload.
func (w *TPCWWorkload) Run(store block.Store) error {
	db, err := minidb.Open(store, dbConfig())
	if err != nil {
		return err
	}
	// Reload client state against the existing tables: Load would fail
	// (tables exist), so attach via a fresh client over existing data.
	client, err := tpcw.Attach(db, w.Config, w.Seed+1)
	if err != nil {
		return err
	}
	if err := client.Run(w.Interactions); err != nil {
		return err
	}
	return db.Close()
}

// MicroWorkload is the Ext2 tar micro-benchmark of Figure 7.
type MicroWorkload struct {
	// Config shapes the directory tree.
	Config memfs.MicroBenchmark
	// Rounds is the number of edit+tar rounds (paper: 5).
	Rounds int
	// Seed makes the run deterministic.
	Seed int64
}

var _ Workload = (*MicroWorkload)(nil)

// Name implements Workload.
func (w *MicroWorkload) Name() string { return "ext2-micro" }

// Setup implements Workload: mkfs, create the initial tree, and run
// one unmeasured warm-up round so the measured phase sees the steady
// state (an existing archive being re-tarred), not the one-time cost
// of materializing the archive file.
func (w *MicroWorkload) Setup(store block.Store) error {
	fs, err := memfs.Mkfs(store)
	if err != nil {
		return err
	}
	runner, err := memfs.NewMicroRunner(fs, w.Config, w.Seed)
	if err != nil {
		return err
	}
	_, err = runner.Round(0)
	return err
}

// Run implements Workload: remount on the replicating device and run
// the edit+tar rounds.
func (w *MicroWorkload) Run(store block.Store) error {
	fs, err := memfs.Mount(store)
	if err != nil {
		return err
	}
	runner, err := memfs.AttachMicroRunner(fs, w.Config, w.Seed+1)
	if err != nil {
		return err
	}
	for round := 0; round < w.Rounds; round++ {
		if _, err := runner.Round(round); err != nil {
			return err
		}
	}
	return nil
}
