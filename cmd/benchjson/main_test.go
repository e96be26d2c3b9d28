package main

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// TestQuartilesLikePython pins quartiles and median to Python's
// statistics.quantiles(v, n=4) and statistics.median, as bench/'s
// copy of them is pinned, so both places compute the same spread.
func TestQuartilesLikePython(t *testing.T) {
	for _, tc := range []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{12, 3, 7, 9, 1, 15, 8, 4, 10, 6}, 3.75, 7.5, 10.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q3 := quartiles(tc.v)
		if m := median(tc.v); q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles, median of %v = %v, %v, %v; want %v, %v, %v", tc.v, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

// runLines renders one `go test -bench` result line per value, as a
// run at GOMAXPROCS 2 prints name reporting that value of unit.
func runLines(name, unit string, vs ...float64) []string {
	var lines []string
	for _, v := range vs {
		lines = append(lines, fmt.Sprintf("%s-2 \t 100 \t 12345 ns/op \t %g %s", name, v, unit))
	}
	return lines
}

// sideFile writes one side's output — a header, then lines — to a file
// and returns its path.
func sideFile(t *testing.T, lines ...[]string) string {
	t.Helper()
	text := "goos: linux\ngoarch: amd64\npkg: prins\n"
	for _, l := range lines {
		text += strings.Join(l, "\n") + "\n"
	}
	path := filepath.Join(t.TempDir(), "side.txt")
	if err := os.WriteFile(path, []byte(text+"PASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// compareText runs -compare on the two sides and returns its table.
func compareText(t *testing.T, parent, change string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := compareFiles(parent, change, &out)
	return out.String(), err
}

// verdictOf returns what the table says of name's unit: the verdict
// column of its row, or the rest of the row for a benchmark with no
// metric column (unit "").
func verdictOf(t *testing.T, table, name, unit string) string {
	t.Helper()
	for _, row := range strings.Split(table, "\n") {
		f := strings.Fields(row)
		switch {
		case len(f) > 7 && f[0] == name && f[1] == unit:
			return strings.Join(f[7:], " ")
		case len(f) > 1 && f[0] == name && unit == "":
			return strings.Join(f[1:], " ")
		}
	}
	t.Fatalf("no %s %s row in\n%s", name, unit, table)
	return ""
}

const ship = "BenchmarkHotpathSyncShip/one-shard"

// parentRuns is a steady parent: a 2% inter-quartile range around 1000.
var parentRuns = runLines(ship, "writes/s", 1000, 990, 1010, 1005, 995, 1020, 980, 1000)

// TestCompareRegression: a change median more than 10% below a steady
// parent is a REGRESSION and an error; 4% below is within the bound.
func TestCompareRegression(t *testing.T) {
	table, err := compareText(t, sideFile(t, parentRuns), sideFile(t, runLines(ship, "writes/s", 860, 870, 850, 880, 865, 855, 875, 860)))
	if err == nil {
		t.Error("a 14% drop passed")
	}
	if v := verdictOf(t, table, ship, "writes/s"); v != "REGRESSION" {
		t.Errorf("14%% drop reads %q, want REGRESSION", v)
	}
	table, err = compareText(t, sideFile(t, parentRuns), sideFile(t, runLines(ship, "writes/s", 960, 950, 970, 965, 955, 960, 962, 958)))
	if err != nil {
		t.Errorf("a 4%% drop failed: %v", err)
	}
	if v := verdictOf(t, table, ship, "writes/s"); v != "within bound" {
		t.Errorf("4%% drop reads %q, want within bound", v)
	}
}

// TestCompareUnresolved: when the parent's own runs spread wider than
// the bound, even a large drop is reported unresolved, and passes.
func TestCompareUnresolved(t *testing.T) {
	noisy := runLines(ship, "writes/s", 1000, 700, 1300, 800, 1200, 900, 1100, 1000)
	table, err := compareText(t, sideFile(t, noisy), sideFile(t, runLines(ship, "writes/s", 600, 620, 610, 590, 605, 615, 600, 595)))
	if err != nil {
		t.Errorf("an unresolved arm failed: %v", err)
	}
	if v := verdictOf(t, table, ship, "writes/s"); !strings.HasPrefix(v, "unresolved") {
		t.Errorf("a drop against a noisy parent reads %q, want unresolved", v)
	}
}

// TestCompareBetter: a change more than 10% better reads better and
// passes.
func TestCompareBetter(t *testing.T) {
	table, err := compareText(t, sideFile(t, parentRuns), sideFile(t, runLines(ship, "writes/s", 1200, 1210, 1190, 1205, 1195, 1200, 1202, 1198)))
	if err != nil {
		t.Errorf("an improvement failed: %v", err)
	}
	if v := verdictOf(t, table, ship, "writes/s"); v != "better" {
		t.Errorf("a 20%% gain reads %q, want better", v)
	}
}

// TestCompareOneSidedArm: an arm only one side ran is reported, not
// judged and not failed; but two sides that share no judged arm have
// compared nothing, which is an error.
func TestCompareOneSidedArm(t *testing.T) {
	gone := runLines("BenchmarkHotpathShards/shards-1", "writes/s", 250000, 260000)
	added := runLines("BenchmarkHotpathNew", "MB/s", 9000, 9100)
	table, err := compareText(t, sideFile(t, parentRuns, gone), sideFile(t, parentRuns, added))
	if err != nil {
		t.Errorf("a one-sided arm failed the comparison: %v", err)
	}
	if v := verdictOf(t, table, "BenchmarkHotpathShards/shards-1", ""); v != "only in the parent, not judged" {
		t.Errorf("an arm the change dropped reads %q", v)
	}
	if v := verdictOf(t, table, "BenchmarkHotpathNew", ""); v != "only in the change, not judged" {
		t.Errorf("an arm the change added reads %q", v)
	}
	if _, err := compareText(t, sideFile(t, gone), sideFile(t, added)); err == nil || !strings.Contains(err.Error(), "compared nothing") {
		t.Errorf("sides with no shared arm: err = %v, want compared nothing", err)
	}
}

// TestCompareRefusesMixedGOMAXPROCS: each file's GOMAXPROCS comes from
// its own name suffixes, and a benchmark whose two sides ran under
// different GOMAXPROCS is not compared, however the numbers read.
func TestCompareRefusesMixedGOMAXPROCS(t *testing.T) {
	at := func(procs int) string {
		suffix := ""
		if procs > 1 {
			suffix = fmt.Sprintf("-%d", procs)
		}
		var lines []string
		for _, arm := range []string{"one-shard", "shards-4"} {
			lines = append(lines, fmt.Sprintf("BenchmarkHotpathSyncShip/%s%s 2000 160000 ns/op 6200 writes/s", arm, suffix))
		}
		return sideFile(t, lines)
	}
	for _, tc := range []struct{ parent, change int }{{2, 4}, {1, 2}} {
		_, err := compareText(t, at(tc.parent), at(tc.change))
		if err == nil {
			t.Errorf("GOMAXPROCS=%d parent compared with GOMAXPROCS=%d change", tc.parent, tc.change)
			continue
		}
		for _, want := range []string{"not comparable", fmt.Sprintf("GOMAXPROCS=%d", tc.parent), fmt.Sprintf("GOMAXPROCS=%d", tc.change)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("refusal %q does not mention %s", err, want)
			}
		}
	}
	if _, err := compareText(t, at(4), at(4)); err != nil {
		t.Errorf("same GOMAXPROCS refused: %v", err)
	}
}

// TestCompareMixedDirections: one input holds a higher-is-better metric
// (MB/s) and a lower-is-better one (repair-ms); each is judged in its
// own direction, and the unjudged ns/op beside them is not judged at
// all.
func TestCompareMixedDirections(t *testing.T) {
	const kernel, resync = "BenchmarkHotpathZRL/sparse10", "BenchmarkResync/t3-ranges"
	parent := sideFile(t,
		runLines(kernel, "MB/s", 7900, 7950, 7850, 7920, 7880),
		runLines(resync, "repair-ms", 18.0, 18.1, 17.9, 18.0, 18.2))
	// MB/s up 20% is better; repair-ms up 20% is worse.
	change := sideFile(t,
		runLines(kernel, "MB/s", 9500, 9550, 9450, 9520, 9480),
		runLines(resync, "repair-ms", 21.6, 21.7, 21.5, 21.6, 21.8))
	table, err := compareText(t, parent, change)
	if err == nil || !strings.Contains(err.Error(), "1 regression") {
		t.Errorf("err = %v, want exactly one regression", err)
	}
	if v := verdictOf(t, table, kernel, "MB/s"); v != "better" {
		t.Errorf("MB/s up 20%% reads %q, want better", v)
	}
	if v := verdictOf(t, table, resync, "repair-ms"); v != "REGRESSION" {
		t.Errorf("repair-ms up 20%% reads %q, want REGRESSION", v)
	}
	for _, row := range strings.Split(table, "\n") {
		if f := strings.Fields(row); len(f) > 1 && f[1] == "ns/op" {
			t.Errorf("ns/op was judged: %s", row)
		}
	}
}
