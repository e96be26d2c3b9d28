// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON report. Input lines pass through to stdout
// unchanged, so it can sit at the end of a pipe without hiding the
// human-readable results:
//
//	go test -bench=AblationSqueeze . | go run ./cmd/benchjson -out BENCH_batch.json
//
// The report captures the environment header (goos, goarch, pkg, cpu)
// and, per benchmark, the iteration count and every value/unit metric
// pair — both the standard ns/op style metrics and the custom ones
// emitted with b.ReportMetric (writes/s, frameB, repair-ms, ...).
//
// A benchmark that appears more than once (`go test -count=N`) is
// folded into one entry holding the median of each metric, with the
// run count and each metric's min and max beside it, so a report rests
// on the middle run and the spread is on record. A report is a record:
// nothing compares against it.
//
// With -compare it judges a change against its parent instead, from
// two files of `go test -bench` output recorded side by side
// (`make bench-guard` alternates single runs of the two test binaries):
//
//	go run ./cmd/benchjson -compare parent.txt change.txt
//
// It applies bench/compare.go's rule to every judged metric (see
// judged) of every benchmark both files ran: REGRESSION when the
// change's median is worse than the parent's by more than bound,
// unresolved when the parent's own inter-quartile range is wider than
// bound times its median, better or within bound otherwise. Only a
// regression fails. A benchmark one file lacks is reported, not judged.
//
// With -e2e it judges a change by the benchmark's end-to-end runs
// instead: two files of bench/run.sh result lines recorded in pairs
// (`make e2e-guard`), each metric by the median of its per-pair
// change/parent ratios against the bound BENCHMARK.json gives it (see
// e2e.go):
//
//	go run ./cmd/benchjson -e2e parent.jsonl change.jsonl
//
// Every benchmark records the GOMAXPROCS it ran under (the "-N" suffix
// stripped from its name; -compare reads it from each file, a report
// from its own process), and -compare refuses to judge a benchmark
// whose two sides disagree: one with parallel writers is a different
// experiment on a different number of CPUs.
package main

import (
	"bufio"
	"bytes"
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
	compareMode := flag.Bool("compare", false, "judge `parent.txt change.txt`, two files of go test -bench output, instead of reading stdin")
	e2eMode := flag.Bool("e2e", false, "judge `parent.jsonl change.jsonl`, two files of paired bench/run.sh result lines, instead of reading stdin")
	spec := flag.String("spec", "BENCHMARK.json", "the benchmark declaration whose end-to-end bounds -e2e judges by")
	flag.Parse()

	if *e2eMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -e2e takes two files: parent.jsonl change.jsonl")
			os.Exit(2)
		}
		if err := e2eCompareFiles(*spec, flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	if *compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare takes two files: parent.txt change.txt")
			os.Exit(2)
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	report, err := parse(os.Stdin, os.Stdout, runtime.GOMAXPROCS(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(enc)
	} else if err = os.WriteFile(*out, enc, 0o644); err == nil {
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(report.Benchmarks), *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// bound is the regression budget -compare holds every judged metric
// to, as a fraction of the parent's median.
const bound = 0.10

// judged names the metrics -compare judges, each with whether higher
// is better. It leaves every other metric out: ns/op restates writes/s
// and MB/s, and counts (frameB, allocs/op) are asserted by tests, which
// need no parent to compare with.
var judged = map[string]bool{
	"writes/s":  true,
	"MB/s":      true,
	"repair-ms": false,
}

// compareFiles reads both files (see readSamples) and judges the change
// against the parent (see compare).
func compareFiles(parentPath, changePath string, w io.Writer) error {
	var sides [2]*samples
	for i, path := range []string{parentPath, changePath} {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if sides[i], err = readSamples(data); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return compare(sides[0], sides[1], w)
}

// samples is one side of a comparison: every result line of each
// benchmark, names in first-seen order.
type samples struct {
	names []string
	lines map[string][]Benchmark
}

// readSamples parses a file of `go test -bench` output holding one
// side's runs, under the GOMAXPROCS the file records (see procsOf).
// Every result line is one sample of its benchmark.
func readSamples(data []byte) (*samples, error) {
	side := &samples{lines: map[string][]Benchmark{}}
	_, err := scan(bytes.NewReader(data), io.Discard, procsOf(data), func(b Benchmark) {
		if side.lines[b.Name] == nil {
			side.names = append(side.names, b.Name)
		}
		side.lines[b.Name] = append(side.lines[b.Name], b)
	})
	return side, err
}

// procsOf returns the GOMAXPROCS a file of `go test -bench` output ran
// under: the N of the "-N" suffix that every result line's name ends
// in, or 1 when they share none (go test appends none at GOMAXPROCS 1).
func procsOf(data []byte) int {
	procs := 0 // 0 until the first line, 1 once the lines disagree
	// A read error surfaces from readSamples' own scan of data.
	_, _ = scan(bytes.NewReader(data), io.Discard, 1, func(b Benchmark) {
		n, err := strconv.Atoi(b.Name[strings.LastIndexByte(b.Name, '-')+1:])
		switch {
		case err != nil || n < 2 || (procs != 0 && n != procs):
			procs = 1
		case procs == 0:
			procs = n
		}
	})
	return max(procs, 1)
}

// compare prints one row per (benchmark, judged metric) the two sides
// share and returns an error if any row is a REGRESSION, if a shared
// benchmark ran under different GOMAXPROCS on the two sides, or if no
// row was judged at all (a guard that compared nothing has not passed).
// The verdict is bench/compare.go's: unresolved takes precedence, since
// a parent that spreads wider than the bound cannot tell a shift of the
// bound from its own noise.
func compare(parent, change *samples, w io.Writer) error {
	fmt.Fprintf(w, "%-42s %-9s %5s %12s %12s %8s %6s  %s\n",
		"benchmark", "metric", "runs", "parent", "change", "change", "IQR", "verdict")
	judgedRows, regressions := 0, 0
	var mismatched []string
	for _, name := range union(parent.names, change.names) {
		p, c := parent.lines[name], change.lines[name]
		switch {
		case len(p) == 0:
			fmt.Fprintf(w, "%-42s only in the change, not judged\n", name)
			continue
		case len(c) == 0:
			fmt.Fprintf(w, "%-42s only in the parent, not judged\n", name)
			continue
		case p[0].GOMAXPROCS != c[0].GOMAXPROCS:
			mismatched = append(mismatched, fmt.Sprintf("%s: parent ran at GOMAXPROCS=%d, change at GOMAXPROCS=%d",
				name, p[0].GOMAXPROCS, c[0].GOMAXPROCS))
			continue
		}
		pv, cv := values(p), values(c)
		for _, unit := range sortedKeys(pv) {
			higher, ok := judged[unit]
			if !ok || len(cv[unit]) == 0 {
				continue
			}
			pm, cm := median(pv[unit]), median(cv[unit])
			if pm == 0 {
				continue
			}
			q1, q3 := quartiles(pv[unit])
			change := (cm - pm) / pm
			worse := change
			if higher {
				worse = -change
			}
			verdict := "within bound"
			switch {
			case (q3-q1)/pm > bound:
				verdict = "unresolved (parent spread exceeds the bound)"
			case worse > bound:
				verdict = "REGRESSION"
				regressions++
			case worse < -bound:
				verdict = "better"
			}
			judgedRows++
			fmt.Fprintf(w, "%-42s %-9s %2d/%-2d %12.1f %12.1f %+7.1f%% %5.1f%%  %s\n",
				name, unit, len(pv[unit]), len(cv[unit]), pm, cm, 100*change, 100*(q3-q1)/pm, verdict)
		}
	}
	switch {
	case len(mismatched) > 0:
		return fmt.Errorf("not comparable:\n  %s", strings.Join(mismatched, "\n  "))
	case judgedRows == 0:
		return fmt.Errorf("compared nothing: the two files share no benchmark with a judged metric")
	case regressions > 0:
		return fmt.Errorf("%d regression(s) beyond %.0f%%", regressions, 100*bound)
	}
	return nil
}

// union returns a's names followed by those of b that a lacks.
func union(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range append(append([]string(nil), a...), b...) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// values collects each metric's value over a benchmark's result lines.
func values(lines []Benchmark) map[string][]float64 {
	vs := map[string][]float64{}
	for _, l := range lines {
		for unit, v := range l.Metrics {
			vs[unit] = append(vs[unit], v)
		}
	}
	return vs
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median is the middle value (the mean of the middle two for an even
// count) of vs, which it sorts.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 0 {
		return (vs[mid-1] + vs[mid]) / 2
	}
	return vs[mid]
}

// quartiles returns the first and third quartile of vs (which it
// sorts) the way Python's statistics.quantiles(v, n=4) does, exclusive
// method, as bench/metrics.go does, so a spread computed here is the
// spread bench/ computes.
func quartiles(vs []float64) (q1, q3 float64) {
	sort.Float64s(vs)
	n := len(vs)
	if n < 2 {
		if n == 1 {
			return vs[0], vs[0]
		}
		return 0, 0
	}
	quart := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (vs[j-1]*float64(4-delta) + vs[j]*float64(delta)) / 4
	}
	return quart(1), quart(3)
}

// parse reads `go test -bench` output from r, echoing every line to
// echo, and returns the structured report: one entry per benchmark, in
// first-seen order, its repeats folded (see fold). procs is the
// GOMAXPROCS the benchmarks ran under (see parseBenchLine); at the end
// of a `go test | benchjson` pipe it is this process's own.
func parse(r io.Reader, echo io.Writer, procs int) (*Report, error) {
	report := &Report{Benchmarks: []Benchmark{}}
	lines := map[string][]Benchmark{} // by name; report.Benchmarks keeps first-seen order
	env, err := scan(r, echo, procs, func(b Benchmark) {
		if lines[b.Name] == nil {
			report.Benchmarks = append(report.Benchmarks, b)
		}
		lines[b.Name] = append(lines[b.Name], b)
	})
	for i, b := range report.Benchmarks {
		report.Benchmarks[i] = fold(lines[b.Name])
	}
	report.Env = env
	return report, err
}

// scan reads `go test -bench` output from r, echoing every line to
// echo, calls result with every result line (see parseBenchLine) in
// input order, and returns the environment header. Other lines (PASS,
// ok, test log output) are passed through and otherwise ignored.
func scan(r io.Reader, echo io.Writer, procs int, result func(Benchmark)) (map[string]string, error) {
	var env map[string]string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if key, val, ok := parseEnvLine(line); ok {
			if env == nil {
				env = map[string]string{}
			}
			env[key] = val
		} else if b, ok := parseBenchLine(line, procs); ok {
			result(b)
		}
	}
	return env, sc.Err()
}

// fold merges the repeated result lines of one benchmark into a single
// entry: every metric becomes the median of its values, with the
// extremes in Min and Max. Iterations is the first line's. One line is
// returned as it is.
func fold(lines []Benchmark) Benchmark {
	if len(lines) == 1 {
		return lines[0]
	}
	b := Benchmark{
		Name: lines[0].Name, Iterations: lines[0].Iterations, GOMAXPROCS: lines[0].GOMAXPROCS, Runs: len(lines),
		Metrics: map[string]float64{}, Min: map[string]float64{}, Max: map[string]float64{},
	}
	for unit, vs := range values(lines) {
		b.Metrics[unit] = median(vs)
		b.Min[unit], b.Max[unit] = vs[0], vs[len(vs)-1]
	}
	return b
}

// envKeys are the header lines `go test -bench` prints before results.
var envKeys = map[string]bool{"goos": true, "goarch": true, "pkg": true, "cpu": true}

func parseEnvLine(line string) (key, val string, ok bool) {
	key, val, ok = strings.Cut(line, ": ")
	if !ok || !envKeys[key] {
		return "", "", false
	}
	return key, strings.TrimSpace(val), true
}

// parseBenchLine parses one result line:
//
//	BenchmarkHotpathSyncShip/shards-4-8   2000   160714 ns/op   6222 writes/s
//
// i.e. name, iteration count, then value/unit pairs. `go test` appends
// "-<GOMAXPROCS>" to every name unless GOMAXPROCS is 1; that suffix is
// stripped, so a name is the same on every host. Only the suffix procs
// itself produces is removed: at procs 1 "shards-4" is a sub-benchmark
// name, at procs 4 the same benchmark arrives as "shards-4-4". What was
// removed stays on record as the entry's GOMAXPROCS.
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
