package experiments

import (
	"fmt"

	"prins/internal/block"
	"prins/internal/core"
	"prins/internal/metrics"
	"prins/internal/tpcc"
)

// FanoutCell is the traffic of one (mode, replicas) combination.
type FanoutCell struct {
	Mode     core.Mode
	Replicas int
	Snapshot metrics.Snapshot
}

// FanoutFigure sweeps replica count — the paper's motivation section
// argues replica fan-out multiplies the WAN cost of traditional
// replication ("replicated data blocks have to be multicast to replica
// nodes"), which is exactly where PRINS's per-message savings compound.
type FanoutFigure struct {
	Cells []FanoutCell
}

// ReplicaCounts is the default fan-out sweep.
var ReplicaCounts = []int{1, 2, 4, 8}

// FanoutSweep runs a TPC-C workload at 8KB blocks with each technique
// replicating to 1..N replicas and measures total replication traffic.
func FanoutSweep(effort Effort, counts []int) (*FanoutFigure, error) {
	fig := &FanoutFigure{}
	for _, replicas := range counts {
		for _, mode := range core.AllModes() {
			w := &TPCCWorkload{
				Label:        "tpcc-fanout",
				Scale:        tpcc.DefaultScale(2),
				Transactions: effort.scale(200),
				Seed:         10001,
			}
			snap, err := measureFanoutCell(w, mode, 8<<10, replicas)
			if err != nil {
				return nil, fmt.Errorf("fanout mode=%v replicas=%d: %w", mode, replicas, err)
			}
			fig.Cells = append(fig.Cells, FanoutCell{Mode: mode, Replicas: replicas, Snapshot: snap})
		}
	}
	return fig, nil
}

// measureFanoutCell is MeasureCell generalized to N replicas.
func measureFanoutCell(w Workload, mode core.Mode, blockSize, replicas int) (metrics.Snapshot, error) {
	var zero metrics.Snapshot
	primary, err := block.NewSparse(blockSize, deviceBlocks(blockSize, defaultDeviceBytes))
	if err != nil {
		return zero, err
	}
	defer primary.Close()
	if err := w.Setup(primary); err != nil {
		return zero, err
	}

	engine, err := core.NewEngine(primary, core.Config{
		Mode: mode,
	})
	if err != nil {
		return zero, err
	}
	defer engine.Close()

	sinks := make([]*block.SparseStore, replicas)
	for i := range sinks {
		sinks[i], err = block.NewSparse(blockSize, primary.NumBlocks())
		if err != nil {
			return zero, err
		}
		if err := copySparse(sinks[i], primary); err != nil {
			return zero, err
		}
		engine.AttachReplica(&core.Loopback{Replica: core.NewReplicaEngine(sinks[i])})
	}

	if err := w.Run(engine); err != nil {
		return zero, err
	}
	if err := engine.Drain(); err != nil {
		return zero, err
	}
	for i, sink := range sinks {
		eq, err := sparseEqual(primary, sink)
		if err != nil {
			return zero, err
		}
		if !eq {
			return zero, fmt.Errorf("replica %d diverged", i)
		}
	}
	return engine.Traffic().Snapshot(), nil
}

// Table renders the sweep.
func (f *FanoutFigure) Table(title string) *Table {
	t := &Table{
		Title:   title,
		Note:    "total replication payload (KB) across all replicas, TPC-C at 8KB blocks",
		Columns: []string{"replicas", "traditional", "compressed", "prins", "trad-prins saved"},
	}
	counts := map[int]bool{}
	var order []int
	for _, c := range f.Cells {
		if !counts[c.Replicas] {
			counts[c.Replicas] = true
			order = append(order, c.Replicas)
		}
	}
	get := func(mode core.Mode, replicas int) int64 {
		for _, c := range f.Cells {
			if c.Mode == mode && c.Replicas == replicas {
				return c.Snapshot.PayloadBytes
			}
		}
		return 0
	}
	for _, n := range order {
		trad := get(core.ModeTraditional, n)
		comp := get(core.ModeCompressed, n)
		prins := get(core.ModePRINS, n)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			KB(trad), KB(comp), KB(prins),
			KB(trad - prins),
		})
	}
	return t
}
