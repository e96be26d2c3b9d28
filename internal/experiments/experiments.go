// Package experiments is the reproduction harness for the paper's
// evaluation (Section 4). Every figure is a declaration over cells: a
// Cell is one workload replicated in one mode at one block size to N
// in-process replicas, and a Runner runs each cell it is asked for at
// most once, so the figures that read the same cell (Figure 4's 8 KB
// cells feed the density table, the fan-out sweep and Figures 8–10)
// share one run. cmd/prinsbench renders every figure as a markdown
// block of EXPERIMENTS.md and cmd/prinstrace replays recorded traces
// through the same runner.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"

	"prins/internal/block"
	"prins/internal/core"
	"prins/internal/memfs"
	"prins/internal/metrics"
	"prins/internal/minidb"
	"prins/internal/parity"
	"prins/internal/tpcc"
	"prins/internal/tpcw"
	"prins/internal/trace"
)

// Table is one experiment's result: a note on what was measured and a
// table of cells.
type Table struct {
	Note    string
	Columns []string
	Rows    [][]string
}

// Markdown renders t as the body of an EXPERIMENTS.md block: the note,
// then the table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Note != "" {
		b.WriteString(t.Note + "\n\n")
	}
	row := func(cells []string) { b.WriteString("| " + strings.Join(cells, " | ") + " |\n") }
	row(t.Columns)
	b.WriteString(strings.Repeat("|---", len(t.Columns)) + "|\n")
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

// BlockSizes are the five block sizes of Figures 4-7.
var BlockSizes = []int{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}

// KB formats a byte count as fractional kilobytes the way the paper's
// bar charts label them.
func KB(n int64) string {
	return fmt.Sprintf("%.1f", float64(n)/1024)
}

// Effort scales how long the measured phases run. 1 is a quick
// shape-check; the paper's hour-long runs correspond to much larger
// values (the reported quantities are ratios, which stabilize fast).
type Effort int

// scale returns the measured-phase length for a base count.
func (e Effort) scale(base int) int {
	return base * max(1, int(e))
}

// Cell names one run: Workload replicated in Mode at BlockSize to
// Replicas in-process replicas. Workloads are values, so two cells
// built alike are the same cell.
type Cell struct {
	Workload  Workload
	Mode      core.Mode
	BlockSize int
	Replicas  int
}

// Result is what a cell measured: the primary's traffic to all its
// replicas and, for a PRINS cell, the change density of its writes.
type Result struct {
	Traffic metrics.Snapshot
	Density *parity.DensityStats
}

// Runner runs cells at one effort, each at most once.
type Runner struct {
	Effort Effort
	done   map[Cell]Result
}

// Run returns c's result, running it unless this runner already has.
func (r *Runner) Run(c Cell) (Result, error) {
	if res, ok := r.done[c]; ok {
		return res, nil
	}
	res, err := c.run(nil)
	if err != nil {
		return Result{}, fmt.Errorf("%s %v %d KB x%d: %w", c.Workload.Name(), c.Mode, c.BlockSize>>10, c.Replicas, err)
	}
	if r.done == nil {
		r.done = make(map[Cell]Result)
	}
	r.done[c] = res
	return res, nil
}

// deviceBytes sizes every cell's device: the same capacity at every
// block size, and room for every workload and recorded trace.
const deviceBytes = 512 << 20

// run measures c on a sparse primary. The workload's setup runs with
// replication off (the paper measures steady-state replication
// traffic, not the initial load), every replica starts as a copy of
// the loaded device, and after the measured phase and a Drain every
// replica must hold exactly the primary's blocks: a cell whose
// replicas diverged measured nothing. synced, when set, sees the
// replicas' stores right after that initial copy.
func (c Cell) run(synced func(replicas []*block.SparseStore)) (Result, error) {
	primary, err := block.NewSparse(c.BlockSize, deviceBytes/uint64(c.BlockSize))
	if err != nil {
		return Result{}, err
	}
	if err := c.Workload.Setup(primary); err != nil {
		return Result{}, fmt.Errorf("setup: %w", err)
	}
	replicas := make([]*block.SparseStore, c.Replicas)
	sinks := make([]block.Store, c.Replicas)
	for i := range replicas {
		if replicas[i], err = block.NewSparse(c.BlockSize, primary.NumBlocks()); err != nil {
			return Result{}, err
		}
		if err := primary.ForEachMaterialized(replicas[i].WriteBlock); err != nil {
			return Result{}, err
		}
		sinks[i] = replicas[i]
	}
	if synced != nil {
		synced(replicas)
	}
	engine, err := replicate(primary, core.Config{Mode: c.Mode, RecordDensity: c.Mode == core.ModePRINS}, sinks...)
	if err != nil {
		return Result{}, err
	}
	defer engine.Close()
	if err := c.Workload.Run(engine); err != nil {
		return Result{}, fmt.Errorf("run: %w", err)
	}
	if err := engine.Drain(); err != nil {
		return Result{}, err
	}
	for i, replica := range replicas {
		if err := sameBlocks(primary, replica); err != nil {
			return Result{}, fmt.Errorf("replica %d diverged: %w", i, err)
		}
	}
	return Result{Traffic: engine.Traffic().Snapshot(), Density: engine.Density()}, nil
}

// replicate returns an engine of cfg over local that replicates to one
// core.Loopback replica per sink: every engine the harness measures is
// built here.
func replicate(local block.Store, cfg core.Config, sinks ...block.Store) (*core.Engine, error) {
	engine, err := core.NewEngine(local, cfg)
	if err != nil {
		return nil, err
	}
	for i, sink := range sinks {
		if err := engine.AttachReplica(&core.Loopback{Replica: core.NewReplicaEngine(sink)}); err != nil {
			_ = engine.Close()
			return nil, fmt.Errorf("attach replica %d: %w", i, err)
		}
	}
	return engine, nil
}

// sameBlocks checks that a and b hold the same blocks: every block
// materialized in either reads the same in the other (blocks
// materialized in neither read as zeros in both).
func sameBlocks(a, b *block.SparseStore) error {
	buf := make([]byte, a.BlockSize())
	in := func(y *block.SparseStore) func(uint64, []byte) error {
		return func(lba uint64, data []byte) error {
			if err := y.ReadBlock(lba, buf); err != nil {
				return err
			}
			if !bytes.Equal(data, buf) {
				return fmt.Errorf("block %d differs", lba)
			}
			return nil
		}
	}
	if err := a.ForEachMaterialized(in(b)); err != nil {
		return err
	}
	return b.ForEachMaterialized(in(a))
}

// Record runs w's setup on a device of a cell's size, then its measured
// phase with every write it makes recorded to dst as a trace
// (internal/trace), and returns the writes recorded.
func Record(w Workload, blockSize int, dst io.Writer) (int64, error) {
	store, err := block.NewSparse(blockSize, deviceBytes/uint64(blockSize))
	if err != nil {
		return 0, err
	}
	if err := w.Setup(store); err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	tw, err := trace.NewWriter(dst, blockSize)
	if err != nil {
		return 0, err
	}
	hook, hookErr := tw.Hook()
	if err := w.Run(block.NewObserved(store, hook)); err != nil {
		return 0, fmt.Errorf("run: %w", err)
	}
	if err := hookErr(); err != nil {
		return 0, err
	}
	return tw.Count(), tw.Close()
}

// Workload prepares state on a plain store and then runs against a
// replicating store. A workload is a comparable value: a Cell holds it
// and a Runner keys its results by cells.
type Workload interface {
	// Name labels the workload in reports.
	Name() string
	// Setup loads initial state onto the raw device.
	Setup(store block.Store) error
	// Run drives the measured phase against the (replicating) device.
	Run(store block.Store) error
}

// onDB runs fn on the minidb database over store, a new one when
// create is set, and closes it. Every mode sees the same database
// parameters, so only the replication technique varies within a figure.
func onDB(store block.Store, create bool, fn func(db *minidb.DB) error) error {
	open := minidb.Open
	if create {
		open = minidb.Create
	}
	db, err := open(store, minidb.DBConfig{CacheBytes: 16 << 20, WALPages: 64, CheckpointEvery: 8})
	if err != nil {
		return err
	}
	if err := fn(db); err != nil {
		return err
	}
	return db.Close()
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

// Name implements Workload.
func (w TPCCWorkload) Name() string { return w.Label }

// Setup implements Workload: create and populate the database.
func (w TPCCWorkload) Setup(store block.Store) error {
	return onDB(store, true, func(db *minidb.DB) error {
		_, err := tpcc.Load(db, w.Scale, w.Seed)
		return err
	})
}

// Run implements Workload: reopen over the replicating device and run
// the transaction mix.
func (w TPCCWorkload) Run(store block.Store) error {
	return onDB(store, false, func(db *minidb.DB) error {
		client, err := tpcc.Open(db, w.Scale, w.Seed+1)
		if err != nil {
			return err
		}
		return client.Run(w.Transactions)
	})
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

// Name implements Workload.
func (w TPCWWorkload) Name() string { return "tpc-w/mysql" }

// Setup implements Workload: create and populate the bookstore, so the
// engine sees only the interactions' traffic.
func (w TPCWWorkload) Setup(store block.Store) error {
	return onDB(store, true, func(db *minidb.DB) error {
		_, err := tpcw.Load(db, w.Config, w.Seed)
		return err
	})
}

// Run implements Workload: TPC-W keeps browser and cart state in the
// client, so a fresh client attaches to the loaded tables.
func (w TPCWWorkload) Run(store block.Store) error {
	return onDB(store, false, func(db *minidb.DB) error {
		client, err := tpcw.Attach(db, w.Config, w.Seed+1)
		if err != nil {
			return err
		}
		return client.Run(w.Interactions)
	})
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

// Name implements Workload.
func (w MicroWorkload) Name() string { return "ext2-micro" }

// Setup implements Workload: mkfs, create the initial tree, and run
// one unmeasured warm-up round so the measured phase sees the steady
// state (an existing archive being re-tarred), not the one-time cost
// of materializing the archive file.
func (w MicroWorkload) Setup(store block.Store) error {
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
func (w MicroWorkload) Run(store block.Store) error {
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

// TraceWorkload replays the write trace at Path (internal/trace) onto
// a blank device as its measured phase.
type TraceWorkload struct{ Path string }

// Name implements Workload.
func (w TraceWorkload) Name() string { return "trace " + w.Path }

// Setup implements Workload: the device starts blank.
func (TraceWorkload) Setup(block.Store) error { return nil }

// Run implements Workload: trace.Replay onto the replicating device.
func (w TraceWorkload) Run(store block.Store) error {
	f, err := os.Open(w.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	defer r.Close()
	_, err = trace.Replay(r, store)
	return err
}
