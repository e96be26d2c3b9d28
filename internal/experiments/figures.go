package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"prins/internal/block"
	"prins/internal/core"
	"prins/internal/memfs"
	"prins/internal/queueing"
	"prins/internal/raid"
	"prins/internal/tpcc"
	"prins/internal/tpcw"
	"prins/internal/wan"
)

// Fig4 is Figure 4's workload: TPC-C on the Oracle-style configuration
// (paper: 5 warehouses, 25 users).
func Fig4(e Effort) Workload {
	return TPCCWorkload{Label: "tpcc-oracle", Scale: tpcc.DefaultScale(2), Transactions: e.scale(300), Seed: 4001}
}

// Fig5 is Figure 5's workload: TPC-C on the Postgres-style
// configuration (paper: 10 warehouses, 50 users — double Figure 4's).
func Fig5(e Effort) Workload {
	return TPCCWorkload{Label: "tpcc-postgres", Scale: tpcc.DefaultScale(4), Transactions: e.scale(600), Seed: 5001}
}

// Fig6 is Figure 6's workload: TPC-W with 30 emulated browsers on the
// MySQL-style configuration.
func Fig6(e Effort) Workload {
	return TPCWWorkload{Config: tpcw.DefaultConfig(), Interactions: e.scale(900), Seed: 6001}
}

// Fig7 is Figure 7's workload: the Ext2 tar micro-benchmark (5
// directories, random edits, 5 tar rounds).
func Fig7(e Effort) Workload {
	return MicroWorkload{Config: memfs.DefaultMicroBenchmark(), Rounds: e.scale(5), Seed: 7001}
}

// modeCells returns the cells of w at bs to the given replica count in
// every mode, in core.AllModes order.
func (r *Runner) modeCells(w Workload, bs, replicas int) ([]Result, error) {
	var out []Result
	for _, mode := range core.AllModes() {
		res, err := r.Run(Cell{Workload: w, Mode: mode, BlockSize: bs, Replicas: replicas})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// Traffic is Figures 4–7: w's payload shipped to one replica, one row
// per block size, one column per technique, plus the savings factors
// the paper's text quotes.
func (r *Runner) Traffic(w Workload) (*Table, error) {
	t := &Table{
		Note:    "KB of payload shipped to one replica",
		Columns: []string{"block", "traditional", "compressed", "PRINS", "trad/PRINS", "comp/PRINS"},
	}
	for _, bs := range BlockSizes {
		res, err := r.modeCells(w, bs, 1)
		if err != nil {
			return nil, err
		}
		trad, comp, prins := res[0].Traffic.PayloadBytes, res[1].Traffic.PayloadBytes, res[2].Traffic.PayloadBytes
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d KB", bs>>10), KB(trad), KB(comp), KB(prins),
			fmt.Sprintf("%.1fx", float64(trad)/float64(prins)), fmt.Sprintf("%.1fx", float64(comp)/float64(prins))})
	}
	return t, nil
}

// ReplicaCounts is the fan-out sweep.
var ReplicaCounts = []int{1, 2, 4, 8}

// Fanout sweeps replica count over Figure 4's 8 KB cells — the paper's
// motivation argues replica fan-out multiplies the WAN cost of
// traditional replication ("replicated data blocks have to be
// multicast to replica nodes"), which is where PRINS's per-message
// savings compound.
func (r *Runner) Fanout() (*Table, error) {
	t := &Table{
		Note:    "KB of payload shipped to all replicas, Figure 4's TPC-C at 8 KB blocks",
		Columns: []string{"replicas", "traditional", "compressed", "PRINS", "saved vs traditional"},
	}
	for _, n := range ReplicaCounts {
		res, err := r.modeCells(Fig4(r.Effort), 8<<10, n)
		if err != nil {
			return nil, err
		}
		trad, comp, prins := res[0].Traffic.PayloadBytes, res[1].Traffic.PayloadBytes, res[2].Traffic.PayloadBytes
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), KB(trad), KB(comp), KB(prins), KB(trad - prins)})
	}
	return t, nil
}

// Density is the 5-20% block-change observation of Sections 1-2: the
// fraction of a block each write changed, in the PRINS 8 KB cells of
// Figures 4, 6 and 7.
func (r *Runner) Density() (*Table, error) {
	t := &Table{
		Note:    "fraction of a block changed per write: PRINS cells at 8 KB of Figures 4, 6 and 7",
		Columns: []string{"workload", "writes", "mean", "p50", "p90"},
	}
	pct := func(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }
	for _, w := range []Workload{Fig4(r.Effort), Fig6(r.Effort), Fig7(r.Effort)} {
		res, err := r.Run(Cell{Workload: w, Mode: core.ModePRINS, BlockSize: 8 << 10, Replicas: 1})
		if err != nil {
			return nil, err
		}
		d := res.Density
		t.Rows = append(t.Rows, []string{w.Name(), fmt.Sprint(d.Count()), pct(d.Mean()), pct(d.Percentile(50)), pct(d.Percentile(90))})
	}
	return t, nil
}

// The queueing model's fixed inputs: the delay-centre time between
// writes per node (paper: 0.1 s, from 10.22 measured writes/s) and the
// WAN routers a write traverses (paper: 2).
const (
	thinkTime = 100 * time.Millisecond
	routers   = 2
)

// Populations is the sweep of Figures 8 and 9.
var Populations = []float64{1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

// Rates is Figure 10's sweep of write requests per second.
var Rates = []float64{1, 6, 11, 16, 21, 26, 31, 36, 41, 46, 51, 56}

// payloads returns the mean payload per replicated write of Figure 4's
// three 8 KB cells, in core.AllModes order: the per-technique replica
// size the queueing figures take from the paper's TPC-C runs.
func (r *Runner) payloads() ([]float64, error) {
	res, err := r.modeCells(Fig4(r.Effort), 8<<10, 1)
	if err != nil {
		return nil, err
	}
	return []float64{res[0].Traffic.MeanPayload(), res[1].Traffic.MeanPayload(), res[2].Traffic.MeanPayload()}, nil
}

// service is a router's service time for one payload on line.
func service(payload float64, line wan.Line) time.Duration {
	return wan.RouterServiceTime(int(math.Round(payload)), line)
}

// response is the closed network's response time at population pop
// when each write ships payload bytes over line.
func response(payload float64, line wan.Line, pop int) (time.Duration, error) {
	net := queueing.Network{ThinkTime: thinkTime, RouterService: queueing.UniformRouters(service(payload, line), routers)}
	res, err := queueing.Solve(net, pop)
	return res.ResponseTime, err
}

// wait is the M/M/1 router's queueing time on T1 at rate writes/s of
// payload bytes each.
func wait(payload, rate float64) (time.Duration, error) {
	return queueing.MM1{Service: service(payload, wan.T1)}.WaitTime(rate)
}

// seconds formats a model time; an unbounded one is a saturated queue.
func seconds(d time.Duration) string {
	if d == time.Duration(math.MaxInt64) {
		return "saturated"
	}
	return fmt.Sprintf("%.4f", d.Seconds())
}

// queueTable is a table of Figures 8–10 over the payloads p: one row
// per x, one column per technique, each cell f(its payload, x).
func queueTable(p []float64, note, xName string, xs []float64, f func(payload, x float64) (time.Duration, error)) (*Table, error) {
	t := &Table{
		Note: fmt.Sprintf("%s; mean payloads of Figure 4's 8 KB cells: traditional %.0f B, compressed %.0f B, PRINS %.0f B",
			note, p[0], p[1], p[2]),
		Columns: []string{xName, "traditional (s)", "compressed (s)", "PRINS (s)"},
	}
	for _, x := range xs {
		row := []string{fmt.Sprint(x)}
		for _, payload := range p {
			d, err := f(payload, x)
			if err != nil {
				return nil, err
			}
			row = append(row, seconds(d))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Response is Figure 8 (T1) or Figure 9 (T3): the closed network's
// response time per technique across Populations.
func (r *Runner) Response(line wan.Line) (*Table, error) {
	p, err := r.payloads()
	if err != nil {
		return nil, err
	}
	note := fmt.Sprintf("MVA, %s, %d routers, think %.1f s", line, routers, thinkTime.Seconds())
	return queueTable(p, note, "population", Populations, func(payload, pop float64) (time.Duration, error) {
		return response(payload, line, int(pop))
	})
}

// Saturation is Figure 10: the M/M/1 router's queueing time on T1 per
// technique across Rates, and the rate that saturates it.
func (r *Runner) Saturation() (*Table, error) {
	p, err := r.payloads()
	if err != nil {
		return nil, err
	}
	note := fmt.Sprintf("M/M/1 router on %s, saturated (ρ ≥ 1) from traditional %.1f/s, compressed %.1f/s, PRINS %.1f/s",
		wan.T1, 1/service(p[0], wan.T1).Seconds(), 1/service(p[1], wan.T1).Seconds(), 1/service(p[2], wan.T1).Seconds())
	return queueTable(p, note, "writes/s", Rates, wait)
}

// overheadPaths are the write paths behind the paper's Section 4
// overhead claim: PRINS's parity computation and I/O cost "less than
// 10% of traditional replications" on a non-RAID primary, and are
// "completely negligible" when a RAID array supplies the forward
// parity for free. vs is the path a PRINS path is compared against,
// the paper's denominator: traditional replication on the same
// substrate.
var overheadPaths = []struct {
	name string
	raid bool      // a 4-disk RAID-5 of 32-block members, else one 64-block disk
	mode core.Mode // 0: no replication
	vs   int       // index of the path compared against, or -1
}{
	{"plain local write", false, 0, -1},
	{"traditional replication", false, core.ModeTraditional, -1},
	{"PRINS (no RAID)", false, core.ModePRINS, 1},
	{"RAID-5 write", true, 0, -1},
	{"RAID-5 + traditional", true, core.ModeTraditional, -1},
	{"RAID-5 + PRINS", true, core.ModePRINS, 4},
}

// WriteCosts is the mean nanoseconds per write of each of
// overheadPaths.
type WriteCosts []float64

// Pct is how much more path i costs than path j, in percent.
func (o WriteCosts) Pct(i, j int) float64 { return (o[i] - o[j]) / o[j] * 100 }

// MeasureOverhead times the same stream of partial-block overwrites,
// `writes` long, through every path. deviceLatency is each disk's
// write service time (pre-image reads are buffer-cache hits, so reads
// cost RAM speed); 0 is RAM speed, which exaggerates compute costs by
// design.
func MeasureOverhead(blockSize, writes int, deviceLatency time.Duration) (WriteCosts, error) {
	var o WriteCosts
	for _, p := range overheadPaths {
		// Four 32-block RAID members, a 64-block disk and a 128-block
		// replica disk.
		disks := make([]block.Store, 6)
		for i, n := range []uint64{32, 32, 32, 32, 64, 128} {
			m, err := block.NewMem(blockSize, n)
			if err != nil {
				return nil, err
			}
			disks[i] = block.NewDelayedRW(m, 0, deviceLatency)
		}
		local := disks[4]
		if p.raid {
			arr, err := raid.New(raid.Level5, disks[:4])
			if err != nil {
				return nil, err
			}
			local = arr
		}
		if p.mode != 0 {
			engine, err := replicate(local, core.Config{Mode: p.mode}, disks[5])
			if err != nil {
				return nil, err
			}
			local = engine
		}
		ns, err := timeWrites(local, writes)
		if err != nil {
			return nil, err
		}
		o = append(o, ns)
	}
	return o, nil
}

// timeWrites overwrites every block of target once, then times writes
// partial-block overwrites through it and returns the mean nanoseconds
// per write. An engine's time includes draining it; it is closed after.
func timeWrites(target block.Store, writes int) (float64, error) {
	blockSize, limit := target.BlockSize(), target.NumBlocks()
	rng := rand.New(rand.NewSource(99))
	buf := make([]byte, blockSize)
	rng.Read(buf)
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
	if engine, ok := target.(*core.Engine); ok {
		defer engine.Close()
		if err := engine.Drain(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(writes), nil
}

// Overhead is the Section 4 overhead table: every path at 8 KB blocks
// on 200 µs disks.
func (r *Runner) Overhead() (*Table, error) {
	writes := r.Effort.scale(500)
	o, err := MeasureOverhead(8<<10, writes, 200*time.Microsecond)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Note:    fmt.Sprintf("%d partial-block writes, 8 KB blocks, 200 µs device write service time, pre-image reads cache hits", writes),
		Columns: []string{"path", "µs/write", "vs baseline"},
	}
	for i, p := range overheadPaths {
		vs := "—"
		if p.vs >= 0 {
			vs = fmt.Sprintf("%+.1f%% vs %s", o.Pct(i, p.vs), overheadPaths[p.vs].name)
		}
		t.Rows = append(t.Rows, []string{p.name, fmt.Sprintf("%.0f", o[i]/1e3), vs})
	}
	return t, nil
}
