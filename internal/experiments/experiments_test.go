package experiments

import (
	"strings"
	"testing"
	"time"

	"prins/internal/core"
	"prins/internal/memfs"
	"prins/internal/tpcc"
	"prins/internal/tpcw"
	"prins/internal/wan"
)

// quickTPCC is a fast cell for harness tests.
func quickTPCC() Workload {
	return TPCCWorkload{
		Label: "tpcc-test",
		Scale: tpcc.Scale{
			Warehouses: 1, Districts: 2, CustomersPerDistrict: 10,
			Items: 40, InitialOrdersPerDistrict: 5,
		},
		Transactions: 60,
		Seed:         1,
	}
}

// quickCells runs quickTPCC at bs to the given replica count in every
// mode, in core.AllModes order.
func quickCells(t *testing.T, r *Runner, bs, replicas int) []Result {
	t.Helper()
	res, err := r.modeCells(quickTPCC(), bs, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMeasureCellConvergesAndCounts(t *testing.T) {
	r := &Runner{}
	res := quickCells(t, r, 4096, 1)
	for i, mode := range core.AllModes() {
		snap := res[i].Traffic
		if snap.Writes == 0 || snap.Replicated == 0 {
			t.Errorf("mode %v: no traffic recorded: %+v", mode, snap)
		}
	}
	density := res[2].Density
	if density.Count() == 0 {
		t.Error("PRINS cell recorded no density samples")
	}
	if m := density.Mean(); m <= 0 || m > 0.9 {
		t.Errorf("mean density = %.3f", m)
	}
	// The paper's headline ordering.
	trad, comp, prins := res[0].Traffic.PayloadBytes, res[1].Traffic.PayloadBytes, res[2].Traffic.PayloadBytes
	if !(prins < comp && comp < trad) {
		t.Errorf("payload ordering violated: prins=%d comp=%d trad=%d", prins, comp, trad)
	}
	// A cell runs once per runner: asking again returns the memoized
	// result, density samples and all, without another run.
	again, err := r.Run(Cell{Workload: quickTPCC(), Mode: core.ModePRINS, BlockSize: 4096, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if again.Density != density || len(r.done) != 3 {
		t.Errorf("a cell ran twice: %d cells held", len(r.done))
	}
}

func TestTrafficFigureShape(t *testing.T) {
	r := &Runner{}
	tbl, err := r.Traffic(quickTPCC())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(BlockSizes) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(BlockSizes))
	}
	if md := tbl.Markdown(); !strings.Contains(md, "| 4 KB |") || !strings.Contains(md, "| 64 KB |") {
		t.Errorf("table missing rows:\n%s", md)
	}

	// Traditional traffic grows with block size; PRINS stays roughly
	// flat (the paper's block-size-independence claim).
	small, big := quickCells(t, r, 4096, 1), quickCells(t, r, 16384, 1)
	tradSmall, tradBig := small[0].Traffic.PayloadBytes, big[0].Traffic.PayloadBytes
	if tradBig <= tradSmall {
		t.Error("traditional traffic did not grow with block size")
	}
	growth := float64(big[2].Traffic.PayloadBytes) / float64(small[2].Traffic.PayloadBytes)
	tradGrowth := float64(tradBig) / float64(tradSmall)
	if growth > tradGrowth*0.75 {
		t.Errorf("PRINS growth %.2fx not clearly flatter than traditional %.2fx", growth, tradGrowth)
	}
}

func TestMicroWorkloadCell(t *testing.T) {
	w := MicroWorkload{
		Config: memfs.MicroBenchmark{
			Dirs: 2, FilesPerDir: 3, FileSize: 4096,
			ChangeFraction: 0.5, EditFraction: 0.1,
		},
		Rounds: 2,
		Seed:   1,
	}
	res, err := new(Runner).Run(Cell{Workload: w, Mode: core.ModePRINS, BlockSize: 4096, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traffic.Writes == 0 {
		t.Error("micro workload produced no writes")
	}
}

func TestTPCWWorkloadCell(t *testing.T) {
	w := TPCWWorkload{
		Config:       tpcw.Config{Items: 40, Authors: 10, Customers: 10, Browsers: 4},
		Interactions: 80,
		Seed:         1,
	}
	res, err := new(Runner).Run(Cell{Workload: w, Mode: core.ModeTraditional, BlockSize: 4096, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traffic.Writes == 0 {
		t.Error("tpcw workload produced no writes")
	}
}

// measuredPayloads are the mean payloads of quickTPCC's 8 KB cells, in
// core.AllModes order: measured inputs for the queueing figures.
func measuredPayloads(t *testing.T) []float64 {
	t.Helper()
	var p []float64
	for _, res := range quickCells(t, &Runner{}, 8<<10, 1) {
		p = append(p, res.Traffic.MeanPayload())
	}
	return p
}

func TestQueueingFigures(t *testing.T) {
	p := measuredPayloads(t)
	resp := func(line wan.Line, payload float64, pop int) time.Duration {
		t.Helper()
		d, err := response(payload, line, pop)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// At population 100 the paper's ordering and separation hold.
	trad, comp, prins := resp(wan.T1, p[0], 100), resp(wan.T1, p[1], 100), resp(wan.T1, p[2], 100)
	if !(prins < comp && comp < trad) {
		t.Errorf("ordering violated: trad=%v comp=%v prins=%v", trad, comp, prins)
	}
	if trad < 10*prins {
		t.Errorf("separation too small: trad=%v prins=%v", trad, prins)
	}
	// T3 is faster but keeps the ordering.
	if resp(wan.T3, p[0], 100) >= trad {
		t.Error("T3 should be faster than T1 for traditional")
	}
	if resp(wan.T3, p[2], 100) >= resp(wan.T3, p[0], 100) {
		t.Error("T3 ordering violated")
	}

	tbl, err := queueTable(p, "note", "population", Populations, func(payload, pop float64) (time.Duration, error) {
		return response(payload, wan.T1, int(pop))
	})
	if err != nil {
		t.Fatal(err)
	}
	if md := tbl.Markdown(); len(tbl.Rows) != len(Populations) || !strings.Contains(md, "population") {
		t.Errorf("response table:\n%s", md)
	}
}

func TestFig10MM1(t *testing.T) {
	p := measuredPayloads(t)
	tbl, err := queueTable(p, "note", "writes/s", Rates, wait)
	if err != nil {
		t.Fatal(err)
	}
	// Traditional saturates within the sweep; PRINS does not.
	sawTradSaturation := false
	for _, row := range tbl.Rows {
		if row[1] == "saturated" {
			sawTradSaturation = true
		}
		if row[3] == "saturated" {
			t.Errorf("PRINS saturated at %s writes/s", row[0])
		}
	}
	if !sawTradSaturation {
		t.Error("traditional never saturated in the Fig 10 sweep")
	}
	if d, err := wait(p[0], 1e3); err != nil || d != time.Duration(1<<63-1) {
		t.Errorf("traditional at 1000 writes/s: %v, %v; want saturated", d, err)
	}
}

func TestMeasureOverhead(t *testing.T) {
	// A 200us device makes I/O dominate compute, like the paper's
	// disks; a modest write count keeps the test quick.
	o, err := MeasureOverhead(4096, 50, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(o) != len(overheadPaths) {
		t.Fatalf("%d timings for %d paths", len(o), len(overheadPaths))
	}
	for i, ns := range o {
		if ns <= 0 {
			t.Fatalf("%s: %v ns/write", overheadPaths[i].name, ns)
		}
	}
	// The paper's claim: PRINS's extra compute is under 10% of a
	// traditional replication. The bound here is deliberately loose:
	// short timed runs are noisy and the race detector slows compute
	// ~10x while leaving the simulated device time unchanged. The tight
	// measurement lives in `prinsbench overhead`.
	if pct := o.Pct(2, 1); pct > 60 {
		t.Errorf("overhead vs traditional = %.1f%%, want small on a realistic device", pct)
	}
	// The RAID-coupled path must not cost much more than the RAID
	// write itself (the zero-extra-overhead claim).
	if pct := o.Pct(5, 4); pct > 60 {
		t.Errorf("RAID-coupled overhead = %.1f%%, want small", pct)
	}
}

func TestWANServiceTimesFeedModel(t *testing.T) {
	// Glue check: the service time the model uses for an 8KB payload on
	// T1 is in the right ballpark (paper: ~57ms transmission + ~1ms).
	svc := service(8192, wan.T1)
	if svc < 50*time.Millisecond || svc > 70*time.Millisecond {
		t.Errorf("T1 8KB service time = %v, want ~58ms", svc)
	}
}

func TestEffortScale(t *testing.T) {
	if Effort(0).scale(100) != 100 || Effort(3).scale(100) != 300 {
		t.Error("effort scaling wrong")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Note:    "n",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"wide-cell-content", "x"}},
	}
	want := "n\n\n| a | long-column |\n|---|---|\n| wide-cell-content | x |\n"
	if got := tbl.Markdown(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestFanoutSweep(t *testing.T) {
	r := &Runner{}
	one, three := quickCells(t, r, 8<<10, 1), quickCells(t, r, 8<<10, 3)
	// Traffic scales linearly with fan-out for every technique...
	for i, mode := range core.AllModes() {
		if ratio := float64(three[i].Traffic.PayloadBytes) / float64(one[i].Traffic.PayloadBytes); ratio < 2.9 || ratio > 3.1 {
			t.Errorf("%v fan-out scaling = %.2fx, want ~3x", mode, ratio)
		}
	}
	// ...so the absolute savings compound with replicas.
	saved1 := one[0].Traffic.PayloadBytes - one[2].Traffic.PayloadBytes
	saved3 := three[0].Traffic.PayloadBytes - three[2].Traffic.PayloadBytes
	if saved3 < 2*saved1 {
		t.Errorf("absolute savings did not compound: %d -> %d", saved1, saved3)
	}
}
