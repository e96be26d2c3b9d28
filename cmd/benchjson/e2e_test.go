package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tarRuns returns one side's runs of a workload whose writes_per_s is
// each of rates, in order.
func tarRuns(rates ...float64) []e2eRun {
	runs := make([]e2eRun, len(rates))
	for i, v := range rates {
		runs[i] = e2eRun{Workload: "tar", Seed: 1, Correct: true, Attempted: 100}
		runs[i].Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{"writes_per_s": {v}}
	}
	return runs
}

// drift is a host whose speed halves and recovers between pairs.
var drift = []float64{1000, 500, 1000, 500, 1000, 500}

// scaled returns vs, each times the matching factor of fs (cycled).
func scaled(vs []float64, fs ...float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * fs[i%len(fs)]
	}
	return out
}

var writesSpec = []e2eMetric{{Name: "writes_per_s", Better: "higher", Bound: 0.04}}

// TestE2EResolvesShiftUnderDrift: a change 5% slower than its parent,
// on a host whose speed halves between pairs, reads as a 5% loss in
// every pair, past a 4% bound. A per-side median rule (bench/
// compare.go's) cannot tell: the parent's own runs spread over half
// their median.
func TestE2EResolvesShiftUnderDrift(t *testing.T) {
	parent, change := tarRuns(drift...), tarRuns(scaled(drift, 0.95)...)
	var out bytes.Buffer
	err := e2eCompare(writesSpec, parent, change, &out)
	if err == nil || !strings.Contains(out.String(), "0.9500   0/6") || !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("a 5%% loss in every pair past a 4%% bound: err %v\n%s", err, out.String())
	}
	pv := append([]float64(nil), drift...)
	q1, q3 := quartiles(pv)
	if spread := (q3 - q1) / median(pv); spread <= writesSpec[0].Bound {
		t.Errorf("the parent's runs spread %.2f of their median: a per-side rule would resolve them too", spread)
	}
}

// TestE2EPassesAASeriesUnderDrift: the same drift with no change, the
// two sides differing by a percent either way, passes.
func TestE2EPassesAASeriesUnderDrift(t *testing.T) {
	parent, change := tarRuns(drift...), tarRuns(scaled(drift, 1.01, 0.99, 1.0)...)
	var out bytes.Buffer
	if err := e2eCompare(writesSpec, parent, change, &out); err != nil || !strings.Contains(out.String(), "within bound") {
		t.Fatalf("an A/A series failed: %v\n%s", err, out.String())
	}
}

// TestE2EFilesAndCorrectness reads a spec and two files of tagged
// lines: a change run that is not correct is a regression whatever its
// metrics, and a run with no partner is reported, not judged.
func TestE2EFilesAndCorrectness(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("spec.json", `{"end_to_end":[{"name":"wire_bytes_per_write","better":"lower","bound":0.05}]}`)
	line := func(correct string, wire string) string {
		return `{"workload":"tar","seed":1,"correct":` + correct + `,"attempted":10,"failed":0,"metrics":{"wire_bytes_per_write":{"value":` + wire + `,"unit":"B"}}}` + "\n"
	}
	parent := write("parent.jsonl", line("true", "38")+line("true", "38")+line("true", "38"))
	change := write("change.jsonl", line("true", "30")+line("true", "30"))
	var out bytes.Buffer
	if err := e2eCompareFiles(spec, parent, change, &out); err != nil ||
		!strings.Contains(out.String(), "2/2") || !strings.Contains(out.String(), "better") || !strings.Contains(out.String(), "1 run(s) without a partner") {
		t.Fatalf("30 B against 38 in two pairs: %v\n%s", err, out.String())
	}
	change = write("change.jsonl", line("true", "30")+line("false", "30"))
	out.Reset()
	if err := e2eCompareFiles(spec, parent, change, &out); err == nil || !strings.Contains(out.String(), "correct=false") {
		t.Fatalf("an incorrect change run passed: %v\n%s", err, out.String())
	}
	if _, err := readRuns(write("bad.jsonl", "{\"correct\":true}\n")); err == nil {
		t.Error("an untagged result line was accepted")
	}
}
