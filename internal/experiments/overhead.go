package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"prins/internal/block"
	"prins/internal/core"
	"prins/internal/raid"
	"prins/internal/tpcc"
	"prins/internal/tpcw"
)

// OverheadResult quantifies the paper's Section 4 overhead claim. The
// paper measures the extra cost PRINS's parity computation and I/O add
// and reports it as "less than 10% of traditional replications" on a
// non-RAID primary, and "completely negligible" when a RAID array
// supplies the forward parity for free.
//
// We time six write paths over identical partial-update streams on
// devices with a realistic write service time (pre-image reads are
// buffer-cache hits, so reads cost RAM speed), then compare PRINS
// against traditional replication on the same substrate — the paper's
// denominators.
type OverheadResult struct {
	// PlainNsPerWrite is a local write with no replication at all.
	PlainNsPerWrite float64
	// TraditionalNsPerWrite replicates the full block.
	TraditionalNsPerWrite float64
	// PRINSNsPerWrite adds forward parity + encode on a plain store.
	PRINSNsPerWrite float64
	// RAIDNsPerWrite is a RAID-5 small write with no replication.
	RAIDNsPerWrite float64
	// RAIDTradNsPerWrite is a RAID-5 write with traditional replication.
	RAIDTradNsPerWrite float64
	// RAIDPRINSNsPerWrite is the RAID write plus PRINS piggybacking on
	// the parity the array computed anyway.
	RAIDPRINSNsPerWrite float64
	// Writes is the sample size; BlockSize the block size measured;
	// DeviceLatency the injected per-write service time.
	Writes        int
	BlockSize     int
	DeviceLatency time.Duration
}

// OverheadVsTraditionalPct is the paper's metric on a non-RAID
// primary: how much more a PRINS replication costs than a traditional
// replication of the same write. Paper: < 10%.
func (r OverheadResult) OverheadVsTraditionalPct() float64 {
	if r.TraditionalNsPerWrite == 0 {
		return 0
	}
	return (r.PRINSNsPerWrite - r.TraditionalNsPerWrite) / r.TraditionalNsPerWrite * 100
}

// RAIDOverheadPct is the paper's RAID claim: PRINS on a RAID primary
// versus traditional replication on the same RAID primary — the
// forward parity is free there, so this should be ~0.
func (r OverheadResult) RAIDOverheadPct() float64 {
	if r.RAIDTradNsPerWrite == 0 {
		return 0
	}
	return (r.RAIDPRINSNsPerWrite - r.RAIDTradNsPerWrite) / r.RAIDTradNsPerWrite * 100
}

// MeasureOverhead times the write paths. deviceLatency is the
// simulated per-write service time of the backing devices (0 = RAM
// speed, which exaggerates compute costs by design).
func MeasureOverhead(blockSize, writes int, deviceLatency time.Duration) (*OverheadResult, error) {
	res := &OverheadResult{Writes: writes, BlockSize: blockSize, DeviceLatency: deviceLatency}

	slow := func(s block.Store) block.Store {
		if deviceLatency <= 0 {
			return s
		}
		return block.NewDelayedRW(s, 0 /* cached reads */, deviceLatency)
	}
	mkEngine := func(local block.Store, mode core.Mode) (block.Store, func() error, error) {
		sink, err := block.NewMem(blockSize, 128)
		if err != nil {
			return nil, nil, err
		}
		replica := core.NewReplicaEngine(slow(sink))
		engine, err := core.NewEngine(local, core.Config{
			Mode: mode,
		})
		if err != nil {
			return nil, nil, err
		}
		engine.AttachReplica(&core.Loopback{Replica: replica})
		return engine, engine.Drain, nil
	}

	paths := []struct {
		out *float64
		mk  func(block.Store) (block.Store, func() error, error)
	}{
		{&res.PlainNsPerWrite, func(s block.Store) (block.Store, func() error, error) {
			return slow(s), nil, nil
		}},
		{&res.TraditionalNsPerWrite, func(s block.Store) (block.Store, func() error, error) {
			return mkEngine(slow(s), core.ModeTraditional)
		}},
		{&res.PRINSNsPerWrite, func(s block.Store) (block.Store, func() error, error) {
			return mkEngine(slow(s), core.ModePRINS)
		}},
		{&res.RAIDNsPerWrite, func(s block.Store) (block.Store, func() error, error) {
			arr, err := newRAID(blockSize, slow)
			return arr, nil, err
		}},
		{&res.RAIDTradNsPerWrite, func(s block.Store) (block.Store, func() error, error) {
			arr, err := newRAID(blockSize, slow)
			if err != nil {
				return nil, nil, err
			}
			return mkEngine(arr, core.ModeTraditional)
		}},
		{&res.RAIDPRINSNsPerWrite, func(s block.Store) (block.Store, func() error, error) {
			arr, err := newRAID(blockSize, slow)
			if err != nil {
				return nil, nil, err
			}
			return mkEngine(arr, core.ModePRINS)
		}},
	}
	for _, p := range paths {
		ns, err := timeWritePath(blockSize, writes, p.mk)
		if err != nil {
			return nil, err
		}
		*p.out = ns
	}
	return res, nil
}

func newRAID(blockSize int, slow func(block.Store) block.Store) (*raid.Array, error) {
	members := make([]block.Store, 4)
	for i := range members {
		m, err := block.NewMem(blockSize, 32)
		if err != nil {
			return nil, err
		}
		members[i] = slow(m)
	}
	return raid.New(raid.Level5, members)
}

// timeWritePath times a partial-update write stream through a store
// built by mk over a fresh 64-block device.
func timeWritePath(blockSize, writes int, mk func(block.Store) (block.Store, func() error, error)) (float64, error) {
	base, err := block.NewMem(blockSize, 64)
	if err != nil {
		return 0, err
	}
	target, drain, err := mk(base)
	if err != nil {
		return 0, err
	}

	rng := rand.New(rand.NewSource(99))
	buf := make([]byte, blockSize)
	rng.Read(buf)
	// Warm all blocks so every timed write is an overwrite.
	limit := target.NumBlocks()
	for lba := uint64(0); lba < limit; lba++ {
		if err := target.WriteBlock(lba, buf); err != nil {
			return 0, err
		}
	}

	start := time.Now()
	for i := 0; i < writes; i++ {
		lba := uint64(rng.Intn(int(limit)))
		off := rng.Intn(blockSize * 9 / 10)
		for j := 0; j < blockSize/10; j++ {
			buf[off+j] = byte(rng.Intn(256))
		}
		if err := target.WriteBlock(lba, buf); err != nil {
			return 0, err
		}
	}
	if drain != nil {
		if err := drain(); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(writes), nil
}

// Table renders the overhead measurement.
func (r *OverheadResult) Table() *Table {
	us := func(ns float64) string { return fmt.Sprintf("%.1f", ns/1e3) }
	return &Table{
		Title: "Section 4: PRINS primary-side overhead",
		Note: fmt.Sprintf("%d partial-block writes, %dKB blocks, %v device service time (paper: <10%% of traditional, ~0 with RAID)",
			r.Writes, r.BlockSize>>10, r.DeviceLatency),
		Columns: []string{"path", "us/write", "note"},
		Rows: [][]string{
			{"plain local write", us(r.PlainNsPerWrite), "-"},
			{"traditional replication", us(r.TraditionalNsPerWrite), "-"},
			{"PRINS (no RAID)", us(r.PRINSNsPerWrite),
				fmt.Sprintf("%+.1f%% vs traditional", r.OverheadVsTraditionalPct())},
			{"RAID-5 write", us(r.RAIDNsPerWrite), "-"},
			{"RAID-5 + traditional", us(r.RAIDTradNsPerWrite), "-"},
			{"RAID-5 + PRINS", us(r.RAIDPRINSNsPerWrite),
				fmt.Sprintf("%+.1f%% vs RAID traditional", r.RAIDOverheadPct())},
		},
	}
}

// DensityResult summarizes the 5-20% block-change observation.
type DensityResult struct {
	Workload string
	Mean     float64
	P50      float64
	P90      float64
	Writes   int
}

// MeasureDensity collects change-density statistics from the three
// workloads at 8KB blocks (the claim in Sections 1-2).
func MeasureDensity(effort Effort) ([]DensityResult, error) {
	workloads := []Workload{
		&TPCCWorkload{Label: "tpc-c", Scale: tpcc.DefaultScale(2), Transactions: effort.scale(300), Seed: 9001},
		&TPCWWorkload{Config: tpcw.DefaultConfig(), Interactions: effort.scale(900), Seed: 9002},
		&MicroWorkload{Config: microDefault(), Rounds: 5, Seed: 9003},
	}
	var out []DensityResult
	for _, w := range workloads {
		_, density, err := MeasureCell(w, core.ModePRINS, 8<<10)
		if err != nil {
			return nil, err
		}
		out = append(out, DensityResult{
			Workload: w.Name(),
			Mean:     density.Mean(),
			P50:      density.Percentile(50),
			P90:      density.Percentile(90),
			Writes:   density.Count(),
		})
	}
	return out, nil
}

// DensityTable renders the density summary.
func DensityTable(results []DensityResult) *Table {
	t := &Table{
		Title:   "Sections 1-2: fraction of a block changed per write",
		Note:    "paper's motivating observation: 5-20% typical",
		Columns: []string{"workload", "writes", "mean", "p50", "p90"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, []string{
			r.Workload,
			fmt.Sprint(r.Writes),
			fmt.Sprintf("%.1f%%", r.Mean*100),
			fmt.Sprintf("%.1f%%", r.P50*100),
			fmt.Sprintf("%.1f%%", r.P90*100),
		})
	}
	return t
}
