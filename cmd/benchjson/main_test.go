package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: prins
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkBatchShip/frames-1-8         	     300	   2282801 ns/op	       438.1 writes/s
BenchmarkBatchShip/frames-64-8        	     300	     67433 ns/op	        61.78 frames/batch	     14830 writes/s
some test log line
PASS
ok  	prins	1.936s
`

func TestParse(t *testing.T) {
	var echo bytes.Buffer
	report, err := parse(strings.NewReader(sample), &echo, 8)
	if err != nil {
		t.Fatal(err)
	}

	// Pass-through: every input line reaches the echo writer verbatim.
	if echo.String() != sample {
		t.Error("echoed output differs from input")
	}

	if got, want := report.Env["goos"], "linux"; got != want {
		t.Errorf("env goos = %q, want %q", got, want)
	}
	if got, want := report.Env["cpu"], "Intel(R) Xeon(R) Processor @ 2.70GHz"; got != want {
		t.Errorf("env cpu = %q, want %q", got, want)
	}

	if len(report.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(report.Benchmarks))
	}
	b := report.Benchmarks[1]
	if b.Name != "BenchmarkBatchShip/frames-64" {
		t.Errorf("name = %q", b.Name)
	}
	if b.Iterations != 300 {
		t.Errorf("iterations = %d, want 300", b.Iterations)
	}
	for unit, want := range map[string]float64{
		"ns/op": 67433, "frames/batch": 61.78, "writes/s": 14830,
	} {
		if got := b.Metrics[unit]; got != want {
			t.Errorf("metric %s = %v, want %v", unit, got, want)
		}
	}
}

// TestParseStripsProcsSuffix: the "-<GOMAXPROCS>" go test appends to a
// name comes off — and only that: a sub-benchmark's own numeric tail
// stays, whatever GOMAXPROCS the run had.
func TestParseStripsProcsSuffix(t *testing.T) {
	for _, tc := range []struct {
		line  string
		procs int
		want  string
	}{
		{"BenchmarkHotpathSyncShip/one-shard 500 373198 ns/op", 1, "BenchmarkHotpathSyncShip/one-shard"},
		{"BenchmarkHotpathSyncShip/shards-4 500 373198 ns/op", 1, "BenchmarkHotpathSyncShip/shards-4"},
		{"BenchmarkHotpathSyncShip/one-shard-2 500 373198 ns/op", 2, "BenchmarkHotpathSyncShip/one-shard"},
		{"BenchmarkHotpathSyncShip/shards-4-2 500 373198 ns/op", 2, "BenchmarkHotpathSyncShip/shards-4"},
		{"BenchmarkHotpathSyncShip/shards-4-4 500 373198 ns/op", 4, "BenchmarkHotpathSyncShip/shards-4"},
		{"BenchmarkGroupRepair-16 100 5 ns/op 1234 wireB", 16, "BenchmarkGroupRepair"},
		{"BenchmarkHotpathShards/shards-16-16 100 5 ns/op", 16, "BenchmarkHotpathShards/shards-16"},
	} {
		b, ok := parseBenchLine(tc.line, tc.procs)
		if !ok || b.Name != tc.want {
			t.Errorf("parseBenchLine(%q, %d) = %q, %v; want %q", tc.line, tc.procs, b.Name, ok, tc.want)
		}
	}
}

// TestParseFoldsRepeats: the N lines `go test -count=N` prints for one
// benchmark become one entry — median per metric (mean of the middle
// two when N is even), min and max beside it, first-seen order kept —
// and a benchmark that ran once keeps the plain single-line shape.
func TestParseFoldsRepeats(t *testing.T) {
	in := strings.Join([]string{
		"BenchmarkHotpathHash/8KB-2 2000 800 ns/op 10240 MB/s",
		"BenchmarkHotpathZRL/dense 2000 1700 ns/op 4800 MB/s",
		"BenchmarkHotpathHash/8KB-2 2000 1000 ns/op 8192 MB/s",
		"BenchmarkHotpathHash/8KB-2 2000 790 ns/op 10370 MB/s",
		"BenchmarkHotpathEven-2 10 4 ns/op",
		"BenchmarkHotpathEven-2 10 1 ns/op",
		"BenchmarkHotpathEven-2 10 2 ns/op",
		"BenchmarkHotpathEven-2 10 8 ns/op",
		"",
	}, "\n")
	report, err := parse(strings.NewReader(in), &bytes.Buffer{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []Benchmark{
		{Name: "BenchmarkHotpathHash/8KB", Iterations: 2000, GOMAXPROCS: 2, Runs: 3,
			Metrics: map[string]float64{"ns/op": 800, "MB/s": 10240},
			Min:     map[string]float64{"ns/op": 790, "MB/s": 8192},
			Max:     map[string]float64{"ns/op": 1000, "MB/s": 10370}},
		{Name: "BenchmarkHotpathZRL/dense", Iterations: 2000, GOMAXPROCS: 2,
			Metrics: map[string]float64{"ns/op": 1700, "MB/s": 4800}},
		{Name: "BenchmarkHotpathEven", Iterations: 10, GOMAXPROCS: 2, Runs: 4,
			Metrics: map[string]float64{"ns/op": 3},
			Min:     map[string]float64{"ns/op": 1},
			Max:     map[string]float64{"ns/op": 8}},
	}
	if !reflect.DeepEqual(report.Benchmarks, want) {
		t.Errorf("folded benchmarks\n got %+v\nwant %+v", report.Benchmarks, want)
	}
}

// TestParseRecordsGOMAXPROCS: every entry carries the GOMAXPROCS whose
// suffix was stripped from its name — 1 included, where there is no
// suffix — and it survives the fold and the JSON round trip.
func TestParseRecordsGOMAXPROCS(t *testing.T) {
	for _, tc := range []struct {
		in    string
		procs int
	}{
		{"BenchmarkHotpathSyncShip/shards-4 2000 285781 ns/op 3499 writes/s\n", 1},
		{"BenchmarkHotpathSyncShip/shards-4-2 2000 110000 ns/op 9028 writes/s\n", 2},
		{"BenchmarkHotpathHash/8KB-2 100 800 ns/op\nBenchmarkHotpathHash/8KB-2 100 900 ns/op\n", 2},
	} {
		report, err := parse(strings.NewReader(tc.in), &bytes.Buffer{}, tc.procs)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := json.Marshal(report)
		if err != nil {
			t.Fatal(err)
		}
		var back Report
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatal(err)
		}
		if len(back.Benchmarks) != 1 || back.Benchmarks[0].GOMAXPROCS != tc.procs {
			t.Errorf("parse(%q, %d) round-tripped to %+v, want one entry at gomaxprocs %d", tc.in, tc.procs, back.Benchmarks, tc.procs)
		}
	}
}

// TestGuardRefusesMixedGOMAXPROCS: a baseline recorded under another
// GOMAXPROCS is not compared, however the numbers read; a baseline
// from before the field existed still is.
func TestGuardRefusesMixedGOMAXPROCS(t *testing.T) {
	baseline := func(procs int) string {
		enc, err := json.Marshal(&Report{Benchmarks: []Benchmark{{
			Name: "BenchmarkHotpathSyncShip/one-shard", Iterations: 2000, GOMAXPROCS: procs,
			Metrics: map[string]float64{"writes/s": 2680},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "base.json")
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fresh := &Report{Benchmarks: []Benchmark{{
		Name: "BenchmarkHotpathSyncShip/one-shard", Iterations: 2000, GOMAXPROCS: 2,
		Metrics: map[string]float64{"writes/s": 5439},
	}}}
	err := guard(fresh, baseline(1), "writes/s", 10, false, &bytes.Buffer{})
	if err == nil {
		t.Fatal("a GOMAXPROCS=1 baseline was compared with a GOMAXPROCS=2 run")
	}
	for _, want := range []string{"BenchmarkHotpathSyncShip/one-shard", "GOMAXPROCS=1", "GOMAXPROCS=2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not mention %s", err, want)
		}
	}
	if err := guard(fresh, baseline(2), "writes/s", 10, false, &bytes.Buffer{}); err != nil {
		t.Errorf("same GOMAXPROCS refused: %v", err)
	}
	if err := guard(fresh, baseline(0), "writes/s", 10, false, &bytes.Buffer{}); err != nil {
		t.Errorf("baseline without the field refused: %v", err)
	}
}

func TestParseIgnoresMalformedLines(t *testing.T) {
	in := strings.Join([]string{
		"BenchmarkNoIterations",           // too few fields
		"BenchmarkBadCount abc 5 ns/op",   // non-numeric count
		"BenchmarkBadValue 10 five ns/op", // non-numeric value
		"NotABenchmark 10 5 ns/op",        // wrong prefix
		"BenchmarkGood 10 5 ns/op",        // valid
		"",
	}, "\n")
	report, err := parse(strings.NewReader(in), &bytes.Buffer{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 1 || report.Benchmarks[0].Name != "BenchmarkGood" {
		t.Errorf("benchmarks = %+v, want just BenchmarkGood", report.Benchmarks)
	}
}

func TestGuard(t *testing.T) {
	writeBaseline := func(t *testing.T, writesPerSec float64) string {
		t.Helper()
		base := &Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkHotpathSyncShip/group-on-8", Iterations: 100,
				Metrics: map[string]float64{"writes/s": writesPerSec, "ns/op": 1}},
			{Name: "BenchmarkOther", Iterations: 10,
				Metrics: map[string]float64{"ns/op": 5}},
		}}
		enc, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "base.json")
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fresh := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkHotpathSyncShip/group-on-8", Iterations: 100,
			Metrics: map[string]float64{"writes/s": 900}},
	}}

	// 900 vs baseline 950 is a 5.3% drop: inside a 10% budget,
	// outside a 2% budget.
	path := writeBaseline(t, 950)
	if err := guard(fresh, path, "writes/s", 10, false, &bytes.Buffer{}); err != nil {
		t.Errorf("5%% drop failed a 10%% guard: %v", err)
	}
	err := guard(fresh, path, "writes/s", 2, false, &bytes.Buffer{})
	if err == nil {
		t.Error("5% drop passed a 2% guard")
	} else if !strings.Contains(err.Error(), "BenchmarkHotpathSyncShip/group-on-8") {
		t.Errorf("guard error does not name the regressed benchmark: %v", err)
	}

	// Improvements never fail.
	if err := guard(fresh, writeBaseline(t, 100), "writes/s", 10, false, &bytes.Buffer{}); err != nil {
		t.Errorf("improvement failed the guard: %v", err)
	}

	// Nothing to compare is an error, not a silent pass.
	if err := guard(fresh, path, "no-such-metric", 10, false, &bytes.Buffer{}); err == nil {
		t.Error("guard with no shared metric passed silently")
	}
}

// TestGuardComparesBestRepeat: of a fresh benchmark's folded repeats
// the guard reads the best one — Max, or Min under -lower — and holds
// it against the baseline's median, so a burst that slows three of five
// repeats does not fail it and a slowdown of every repeat does.
func TestGuardComparesBestRepeat(t *testing.T) {
	folded := func(median, min, max float64) *Report {
		return &Report{Benchmarks: []Benchmark{{
			Name: "BenchmarkHotpathHash/8KB", Iterations: 100, Runs: 5,
			Metrics: map[string]float64{"MB/s": median, "ns/op": 8192e3 / median},
			Min:     map[string]float64{"MB/s": min, "ns/op": 8192e3 / max},
			Max:     map[string]float64{"MB/s": max, "ns/op": 8192e3 / min},
		}}}
	}
	enc, err := json.Marshal(folded(10800, 10400, 11000))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, lower := range []bool{false, true} {
		metric := "MB/s"
		if lower {
			metric = "ns/op"
		}
		if err := guard(folded(8000, 7000, 10900), path, metric, 10, lower, &bytes.Buffer{}); err != nil {
			t.Errorf("%s: noisy median with an intact best repeat failed: %v", metric, err)
		}
		if err := guard(folded(8000, 7000, 8100), path, metric, 10, lower, &bytes.Buffer{}); err == nil {
			t.Errorf("%s: every repeat 25%% slower passed", metric)
		}
	}
}

func TestGuardLowerIsBetter(t *testing.T) {
	writeBaseline := func(t *testing.T, wireB float64) string {
		t.Helper()
		base := &Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkGroupRepair", Iterations: 100,
				Metrics: map[string]float64{"wireB": wireB, "ns/op": 1}},
		}}
		enc, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "base.json")
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fresh := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkGroupRepair", Iterations: 100,
			Metrics: map[string]float64{"wireB": 1050}},
	}}

	// 1050 vs baseline 1000 is a 5% rise: inside a 10% budget, outside
	// a 2% budget — but only when the guard knows lower is better.
	path := writeBaseline(t, 1000)
	if err := guard(fresh, path, "wireB", 10, true, &bytes.Buffer{}); err != nil {
		t.Errorf("5%% rise failed a 10%% lower-is-better guard: %v", err)
	}
	err := guard(fresh, path, "wireB", 2, true, &bytes.Buffer{})
	if err == nil {
		t.Error("5% rise passed a 2% lower-is-better guard")
	} else if !strings.Contains(err.Error(), "above baseline") {
		t.Errorf("guard error does not report the rise direction: %v", err)
	}

	// A drop is an improvement under -lower and never fails.
	if err := guard(fresh, writeBaseline(t, 5000), "wireB", 10, true, &bytes.Buffer{}); err != nil {
		t.Errorf("improvement failed the lower-is-better guard: %v", err)
	}
	// Without -lower the same rise would (wrongly) read as a pass —
	// pin that the flag, not the metric name, decides direction.
	if err := guard(fresh, path, "wireB", 2, false, &bytes.Buffer{}); err != nil {
		t.Errorf("higher-is-better guard failed on a rise: %v", err)
	}
}
