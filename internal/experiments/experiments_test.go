package experiments

import (
	"bytes"
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
	return &TPCCWorkload{
		Label: "tpcc-test",
		Scale: tpcc.Scale{
			Warehouses: 1, Districts: 2, CustomersPerDistrict: 10,
			Items: 40, InitialOrdersPerDistrict: 5,
		},
		Transactions: 60,
		Seed:         1,
	}
}

func TestMeasureCellConvergesAndCounts(t *testing.T) {
	var payloads [4]int64
	for _, mode := range core.AllModes() {
		snap, density, err := MeasureCell(quickTPCC(), mode, 4096)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if snap.Writes == 0 || snap.Replicated == 0 {
			t.Errorf("mode %v: no traffic recorded: %+v", mode, snap)
		}
		payloads[mode] = snap.PayloadBytes
		if mode == core.ModePRINS {
			if density.Count() == 0 {
				t.Error("PRINS cell recorded no density samples")
			}
			if m := density.Mean(); m <= 0 || m > 0.9 {
				t.Errorf("mean density = %.3f", m)
			}
		}
	}
	// The paper's headline ordering.
	if !(payloads[core.ModePRINS] < payloads[core.ModeCompressed] &&
		payloads[core.ModeCompressed] < payloads[core.ModeTraditional]) {
		t.Errorf("payload ordering violated: prins=%d comp=%d trad=%d",
			payloads[core.ModePRINS], payloads[core.ModeCompressed], payloads[core.ModeTraditional])
	}
}

func TestTrafficFigureShape(t *testing.T) {
	// Two block sizes keep this quick while testing the sweep logic.
	fig, err := runTrafficFigure("test", func(bs int) Workload { return quickTPCC() },
		[]int{4096, 16384})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(fig.Cells))
	}

	// Traditional traffic grows with block size; PRINS stays roughly
	// flat (the paper's block-size-independence claim).
	tradSmall, _ := fig.cell(core.ModeTraditional, 4096)
	tradBig, _ := fig.cell(core.ModeTraditional, 16384)
	if tradBig.Snapshot.PayloadBytes <= tradSmall.Snapshot.PayloadBytes {
		t.Error("traditional traffic did not grow with block size")
	}
	prinsSmall, _ := fig.cell(core.ModePRINS, 4096)
	prinsBig, _ := fig.cell(core.ModePRINS, 16384)
	growth := float64(prinsBig.Snapshot.PayloadBytes) / float64(prinsSmall.Snapshot.PayloadBytes)
	tradGrowth := float64(tradBig.Snapshot.PayloadBytes) / float64(tradSmall.Snapshot.PayloadBytes)
	if growth > tradGrowth*0.75 {
		t.Errorf("PRINS growth %.2fx not clearly flatter than traditional %.2fx", growth, tradGrowth)
	}

	// Table renders all rows.
	var buf bytes.Buffer
	if err := fig.Table("test figure").Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "4KB") || !strings.Contains(out, "16KB") {
		t.Errorf("table missing rows:\n%s", out)
	}
}

func TestMicroWorkloadCell(t *testing.T) {
	w := &MicroWorkload{
		Config: memfs.MicroBenchmark{
			Dirs: 2, FilesPerDir: 3, FileSize: 4096,
			ChangeFraction: 0.5, EditFraction: 0.1,
		},
		Rounds: 2,
		Seed:   1,
	}
	snap, _, err := MeasureCell(w, core.ModePRINS, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Writes == 0 {
		t.Error("micro workload produced no writes")
	}
}

func TestTPCWWorkloadCell(t *testing.T) {
	w := &TPCWWorkload{
		Config:       tpcw.Config{Items: 40, Authors: 10, Customers: 10, Browsers: 4},
		Interactions: 80,
		Seed:         1,
	}
	snap, _, err := MeasureCell(w, core.ModeTraditional, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Writes == 0 {
		t.Error("tpcw workload produced no writes")
	}
}

func TestQueueingFigures(t *testing.T) {
	params := DefaultModelParams()

	fig8, err := Fig8ResponseT1(params)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig8.Points) != len(Populations) {
		t.Fatalf("points = %d", len(fig8.Points))
	}
	// At population 100 the paper's ordering and separation hold.
	last := fig8.Points[len(fig8.Points)-1]
	trad := last.Response[core.ModeTraditional]
	comp := last.Response[core.ModeCompressed]
	prins := last.Response[core.ModePRINS]
	if !(prins < comp && comp < trad) {
		t.Errorf("ordering violated: trad=%v comp=%v prins=%v", trad, comp, prins)
	}
	if trad < 10*prins {
		t.Errorf("separation too small: trad=%v prins=%v", trad, prins)
	}

	// T3 is faster but keeps the ordering.
	fig9, err := Fig9ResponseT3(params)
	if err != nil {
		t.Fatal(err)
	}
	last9 := fig9.Points[len(fig9.Points)-1]
	if last9.Response[core.ModeTraditional] >= trad {
		t.Error("T3 should be faster than T1 for traditional")
	}
	if last9.Response[core.ModePRINS] >= last9.Response[core.ModeTraditional] {
		t.Error("T3 ordering violated")
	}

	var buf bytes.Buffer
	if err := fig8.Table("fig8").Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "population") {
		t.Error("fig8 table missing header")
	}
}

func TestFig10MM1(t *testing.T) {
	fig, err := Fig10MM1(DefaultModelParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) == 0 {
		t.Fatal("no points")
	}
	// Traditional saturates within the sweep; PRINS does not.
	sawTradSaturation := false
	for _, pt := range fig.Points {
		if pt.WaitTime[core.ModeTraditional] == time.Duration(1<<63-1) {
			sawTradSaturation = true
		}
		if pt.WaitTime[core.ModePRINS] == time.Duration(1<<63-1) {
			t.Errorf("PRINS saturated at %.0f writes/s", pt.Rate)
		}
	}
	if !sawTradSaturation {
		t.Error("traditional never saturated in the Fig 10 sweep")
	}

	var buf bytes.Buffer
	if err := fig.Table("fig10").Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "saturated") {
		t.Error("fig10 table should show saturation")
	}
}

func TestMeasureOverhead(t *testing.T) {
	// A 200us device makes I/O dominate compute, like the paper's
	// disks; a modest write count keeps the test quick.
	res, err := MeasureOverhead(4096, 50, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlainNsPerWrite <= 0 || res.PRINSNsPerWrite <= 0 || res.TraditionalNsPerWrite <= 0 {
		t.Fatalf("bad timings: %+v", res)
	}
	// The paper's claim: PRINS's extra compute is under 10% of a
	// traditional replication. The bound here is deliberately loose:
	// short timed runs are noisy and the race detector slows compute
	// ~10x while leaving the simulated device time unchanged. The tight
	// measurement lives in `prinsbench overhead`.
	if pct := res.OverheadVsTraditionalPct(); pct > 60 {
		t.Errorf("overhead vs traditional = %.1f%%, want small on a realistic device", pct)
	}
	// The RAID-coupled path must not cost much more than the RAID
	// write itself (the zero-extra-overhead claim).
	if pct := res.RAIDOverheadPct(); pct > 60 {
		t.Errorf("RAID-coupled overhead = %.1f%%, want small", pct)
	}
	var buf bytes.Buffer
	if err := res.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestWANServiceTimesFeedModel(t *testing.T) {
	// Glue check: the service time the model uses for an 8KB payload on
	// T1 is in the right ballpark (paper: ~57ms transmission + ~1ms).
	svc := wan.RouterServiceTime(8192, wan.T1)
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
		Title:   "t",
		Note:    "n",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"wide-cell-content", "x"}},
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"t\n", "n\n", "long-column", "wide-cell-content"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFanoutSweep(t *testing.T) {
	fig, err := FanoutSweep(1, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(fig.Cells))
	}
	get := func(mode core.Mode, replicas int) int64 {
		for _, c := range fig.Cells {
			if c.Mode == mode && c.Replicas == replicas {
				return c.Snapshot.PayloadBytes
			}
		}
		t.Fatalf("missing cell %v/%d", mode, replicas)
		return 0
	}
	// Traffic scales linearly with fan-out for every technique...
	for _, mode := range core.AllModes() {
		one := get(mode, 1)
		three := get(mode, 3)
		if ratio := float64(three) / float64(one); ratio < 2.9 || ratio > 3.1 {
			t.Errorf("%v fan-out scaling = %.2fx, want ~3x", mode, ratio)
		}
	}
	// ...so the absolute savings compound with replicas.
	saved1 := get(core.ModeTraditional, 1) - get(core.ModePRINS, 1)
	saved3 := get(core.ModeTraditional, 3) - get(core.ModePRINS, 3)
	if saved3 < 2*saved1 {
		t.Errorf("absolute savings did not compound: %d -> %d", saved1, saved3)
	}
	var buf bytes.Buffer
	if err := fig.Table("fanout").Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "replicas") {
		t.Error("table missing header")
	}
}
