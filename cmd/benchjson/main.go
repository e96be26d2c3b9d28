// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON report. Input lines pass through to stdout
// unchanged, so it can sit at the end of a pipe without hiding the
// human-readable results:
//
//	go test -bench=BatchShip . | go run ./cmd/benchjson -out BENCH_batch.json
//
// The report captures the environment header (goos, goarch, pkg, cpu)
// and, per benchmark, the iteration count and every value/unit metric
// pair — both the standard ns/op style metrics and the custom ones
// emitted with b.ReportMetric (writes/s, frames/batch, ratio, ...).
//
// With -baseline it doubles as a regression guard: after parsing, the
// fresh run is compared against a committed report and the process
// exits nonzero if any shared benchmark's named metric (higher =
// better, e.g. writes/s) fell more than -max-regress percent below the
// baseline:
//
//	go test -bench=Hotpath . | go run ./cmd/benchjson \
//	    -baseline BENCH_hotpath.json -metric writes/s -max-regress 10
//
// For lower-is-better metrics (wire bytes, ns/op), -lower flips the
// comparison: the guard fails if the fresh value rose more than
// -max-regress percent above the baseline.
//
// A benchmark that appears more than once (`go test -count=N`) is
// folded into one entry holding the median of each metric, with the
// run count and each metric's min and max beside it, so a report rests
// on the middle run and the spread is on record. The guard holds the
// best fresh repeat against the baseline's median: on a shared host a
// busy neighbour slows a CPU-bound run in bursts that can cover most of
// five back-to-back repeats, so the guard fails only when even the best
// repeat is below the committed typical value by more than the budget.
//
// Every entry records the GOMAXPROCS it ran under (the "-N" suffix
// stripped from its name), and the guard refuses to compare two entries
// that disagree: a benchmark with parallel writers is a different
// experiment on a different number of CPUs, and a baseline from one
// held against a run on another passes or fails for free.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's result: one line of `go test -bench`
// output, or the fold of its Runs repeated lines (Metrics the medians,
// Min and Max the extremes; all three absent for a single line).
type Benchmark struct {
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// GOMAXPROCS is what the benchmark ran under; zero in reports
	// written before the field existed.
	GOMAXPROCS int                `json:"gomaxprocs,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Runs       int                `json:"runs,omitempty"`
	Min        map[string]float64 `json:"min,omitempty"`
	Max        map[string]float64 `json:"max,omitempty"`
}

// Report is the whole run: the environment header lines plus every
// benchmark result, in input order.
type Report struct {
	Env        map[string]string `json:"env,omitempty"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "file to write the JSON report to (empty = stdout only)")
	baseline := flag.String("baseline", "", "committed report to compare against (enables guard mode)")
	metric := flag.String("metric", "writes/s", "metric the guard compares (higher-is-better unless -lower)")
	maxRegress := flag.Float64("max-regress", 10, "max tolerated regression from baseline, percent")
	lower := flag.Bool("lower", false, "treat the metric as lower-is-better (guard against rises)")
	flag.Parse()

	report, err := parse(os.Stdin, os.Stdout, runtime.GOMAXPROCS(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *out != "" || *baseline == "" {
		enc, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		enc = append(enc, '\n')
		if *out == "" {
			if _, err := os.Stdout.Write(enc); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
		} else {
			if err := os.WriteFile(*out, enc, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(report.Benchmarks), *out)
		}
	}
	if *baseline != "" {
		if err := guard(report, *baseline, *metric, *maxRegress, *lower, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
}

// guard compares the fresh report against the baseline file: every
// benchmark present in both with the named metric must not have
// regressed more than maxRegress percent from its committed value —
// fallen below it for higher-is-better metrics, risen above it when
// lower is set (wire bytes, latencies). A repeated fresh benchmark is
// judged by its best repeat (see Benchmark.best), the baseline by its
// recorded median. Entries recorded under different GOMAXPROCS are not
// comparable, and finding one is an error rather than a skipped row.
func guard(fresh *Report, baselinePath, metric string, maxRegress float64, lower bool, w io.Writer) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	baseBy := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		if v, ok := b.Metrics[metric]; ok && v > 0 {
			baseBy[b.Name] = b
		}
	}
	compared := 0
	var failures, mismatched []string
	for _, b := range fresh.Benchmarks {
		got, ok := b.best(metric, lower)
		if !ok {
			continue
		}
		bb, ok := baseBy[b.Name]
		if !ok {
			continue
		}
		if bb.GOMAXPROCS != 0 && b.GOMAXPROCS != 0 && bb.GOMAXPROCS != b.GOMAXPROCS {
			mismatched = append(mismatched, fmt.Sprintf("%s: baseline recorded at GOMAXPROCS=%d, this run is at GOMAXPROCS=%d",
				b.Name, bb.GOMAXPROCS, b.GOMAXPROCS))
			continue
		}
		want := bb.Metrics[metric]
		compared++
		dropPct := (want - got) / want * 100
		direction := "below"
		if lower {
			dropPct = -dropPct
			direction = "above"
		}
		fmt.Fprintf(w, "benchjson: guard %-40s %s %12.1f baseline %12.1f (%+.1f%%)\n",
			b.Name, metric, got, want, -dropPct)
		if dropPct > maxRegress {
			failures = append(failures,
				fmt.Sprintf("%s: %s %.1f is %.1f%% %s baseline %.1f (max %.0f%%)",
					b.Name, metric, got, dropPct, direction, want, maxRegress))
		}
	}
	if len(mismatched) > 0 {
		return fmt.Errorf("not comparable with %s (re-record it on this box, or run the guard under the baseline's GOMAXPROCS):\n  %s",
			baselinePath, strings.Join(mismatched, "\n  "))
	}
	if compared == 0 {
		return fmt.Errorf("guard compared no benchmarks: no shared %q metric with %s", metric, baselinePath)
	}
	if len(failures) > 0 {
		return fmt.Errorf("performance regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// best returns the metric's best value over the benchmark's repeats —
// the highest, or the lowest when lower is better — which for a single
// run is its one value.
func (b Benchmark) best(metric string, lower bool) (float64, bool) {
	extremes := b.Max
	if lower {
		extremes = b.Min
	}
	if v, ok := extremes[metric]; ok {
		return v, true
	}
	v, ok := b.Metrics[metric]
	return v, ok
}

// parse reads `go test -bench` output from r, echoing every line to
// echo, and returns the structured report. Unrecognized lines (PASS,
// ok, test log output) are passed through and otherwise ignored. procs
// is the GOMAXPROCS the benchmarks ran under (see parseBenchLine); at
// the end of a `go test | benchjson` pipe it is this process's own.
func parse(r io.Reader, echo io.Writer, procs int) (*Report, error) {
	report := &Report{Benchmarks: []Benchmark{}}
	lines := map[string][]Benchmark{} // by name; report.Benchmarks keeps first-seen order
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if env, ok := parseEnvLine(line); ok {
			if report.Env == nil {
				report.Env = map[string]string{}
			}
			for k, v := range env {
				report.Env[k] = v
			}
			continue
		}
		if b, ok := parseBenchLine(line, procs); ok {
			if lines[b.Name] == nil {
				report.Benchmarks = append(report.Benchmarks, b)
			}
			lines[b.Name] = append(lines[b.Name], b)
		}
	}
	for i, b := range report.Benchmarks {
		report.Benchmarks[i] = fold(lines[b.Name])
	}
	return report, sc.Err()
}

// fold merges the repeated result lines of one benchmark into a single
// entry: every metric becomes the median of its values (the mean of the
// middle two for an even count), with the extremes in Min and Max.
// Iterations is the first line's. One line is returned as it is.
func fold(lines []Benchmark) Benchmark {
	if len(lines) == 1 {
		return lines[0]
	}
	b := Benchmark{
		Name: lines[0].Name, Iterations: lines[0].Iterations, GOMAXPROCS: lines[0].GOMAXPROCS, Runs: len(lines),
		Metrics: map[string]float64{}, Min: map[string]float64{}, Max: map[string]float64{},
	}
	values := map[string][]float64{}
	for _, l := range lines {
		for unit, v := range l.Metrics {
			values[unit] = append(values[unit], v)
		}
	}
	for unit, vs := range values {
		sort.Float64s(vs)
		mid := len(vs) / 2
		b.Metrics[unit] = vs[mid]
		if len(vs)%2 == 0 {
			b.Metrics[unit] = (vs[mid-1] + vs[mid]) / 2
		}
		b.Min[unit], b.Max[unit] = vs[0], vs[len(vs)-1]
	}
	return b
}

// envKeys are the header lines `go test -bench` prints before results.
var envKeys = map[string]bool{"goos": true, "goarch": true, "pkg": true, "cpu": true}

func parseEnvLine(line string) (map[string]string, bool) {
	key, val, ok := strings.Cut(line, ": ")
	if !ok || !envKeys[key] {
		return nil, false
	}
	return map[string]string{key: strings.TrimSpace(val)}, true
}

// parseBenchLine parses one result line:
//
//	BenchmarkBatchShip/frames-64-8   300   67433 ns/op   61.78 frames/batch
//
// i.e. name, iteration count, then value/unit pairs. `go test` appends
// "-<GOMAXPROCS>" to every name unless GOMAXPROCS is 1; that suffix is
// stripped, so a name is the same on every host and matches the
// committed BENCH_*.json. Only the suffix procs itself produces is
// removed: at procs 1 "shards-4" is a sub-benchmark name, at procs 4
// the same benchmark arrives as "shards-4-4". What was removed stays on
// record as the entry's GOMAXPROCS.
func parseBenchLine(line string, procs int) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	name := fields[0]
	if procs > 1 {
		name = strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
	}
	b := Benchmark{Name: name, Iterations: iters, GOMAXPROCS: procs, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
