// Command bench is the PRINS benchmark: four workloads that each stress
// a different part of the replicated write path (link round trip, CPU,
// link bandwidth, by-ref shipping and recovery), end-to-end metrics a
// user of a replicated volume would see, and a traced run that says
// which layer the time went to. See README.md.
//
//	bench/run.sh                              every workload once, end to end
//	bench/run.sh -trace 1                     every workload once, traced
//	bench/run.sh -runs 5 -json a.json         five runs each, medians and quartiles
//	bench/run.sh -compare a.json b.json       judge b against a
//	bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                          one run, one JSON line (the driver's form)
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds (a test keeps them
// equal); defaultSeed is the seed of a run that names none.
const (
	defaultSeconds = 20
	defaultSeed    = 1
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in this process and print one JSON line (default: all four, each in a child process)")
	seed := fs.Int64("seed", defaultSeed, "seed of every generated input")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured phase of one run")
	trace := fs.Int("trace", 0, "1: traced run, per-layer metrics and a span file; 0: end-to-end metrics")
	runs := fs.Int("runs", 1, "run every workload this many times (seeds seed, seed+1, ...) and report medians and quartiles")
	jsonOut := fs.String("json", "", "with -runs: also write every run's metrics to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two -json files: bench -compare base.json new.json")
	outDir := fs.String("out", "out", "directory for span and result files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare wants two files: base.json new.json")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	case fs.NArg() != 0:
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *workload != "":
		return single(runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir}, stdout, stderr)
	}
	return all(*seed, *seconds, *trace != 0, *runs, *jsonOut, *outDir, stdout, stderr)
}

// single is the driver's form: one workload, this process, a report on
// stderr and the result as the last line of stdout.
func single(cfg runConfig, stdout, stderr io.Writer) error {
	out, err := run(cfg)
	if err != nil {
		return err
	}
	report(stderr, out, cfg.trace)
	if cfg.outDir != "" {
		if err := writeResult(cfg.outDir, out, cfg.trace); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, out.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return fmt.Errorf("%s: incorrect: %d failed operations; %s", out.Workload, out.Failed, strings.Join(out.Notes, "; "))
	}
	return nil
}

// report prints every metric of a run by name with its unit, direction,
// bound and sample count.
func report(w io.Writer, out *outcome, traced bool) {
	table, which := endToEnd, "end-to-end"
	if traced {
		table, which = perLayer, "per-layer (traced run + kernel replay)"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s ==\n", out.Workload, out.Seed, which)
	e := out.Env
	fmt.Fprintf(w, "   %s | nproc %d GOMAXPROCS %d | %s | load1 %.2f | %s | %s\n",
		e.GoVersion, e.NProc, e.GOMAXPROCS, e.CPUModel, e.Load1, e.Network, e.FlushPolicy)
	for _, d := range table {
		m, ok := out.Metrics[d.name]
		if !ok {
			continue
		}
		bound := ""
		if d.bound > 0 {
			bound = fmt.Sprintf("bound %.2f", d.bound)
		}
		fmt.Fprintf(w, "   %-36s %14.4f %-6s %-6s %-10s n=%d", d.name, m.Value, d.unit, d.better, bound, out.Samples[d.name])
		if each := out.Each[d.name]; len(each) > 1 {
			fmt.Fprintf(w, "  %.4g", each)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "   attempted %d  failed %d  correct %v\n", out.Attempted, out.Failed, out.Correct)
	for _, n := range out.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	if traced {
		reconcile(w, out)
	}
}

// reconcile prints the checks that tie the traced run together.
func reconcile(w io.Writer, out *outcome) {
	v := func(name string) float64 { return out.Metrics[name].Value }
	fmt.Fprintf(w, "   reconcile: stage_sum_ratio %.3f", v("trace.stage_sum_ratio"))
	if out.Env.Sync {
		verdict := "ok"
		if r := v("trace.stage_sum_ratio"); r < 0.9 || r > 1.1 {
			verdict = "OUTSIDE 0.9-1.1"
		}
		fmt.Fprintf(w, " (%s)", verdict)
	}
	fmt.Fprintf(w, "  overhead_ratio %.3f  mva_ratio %.3f  link_busy_ratio %.3f\n",
		v("trace.overhead_ratio"), v("queueing.mva_ratio"), v("wan.link_busy_ratio"))
	kernels := v("parity.xor_count_ns") + v("xcode.encode_ns") + v("iscsi.hash_ns") + // primary
		v("xcode.decode_ns") + v("parity.backward_ns") + v("iscsi.hash_ns") // replica
	fmt.Fprintf(w, "   kernel replay sum (xor+encode+hash, decode+backward+hash): %.2f us per write\n", kernels/1e3)
}

func writeResult(dir string, out *outcome, traced bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if traced {
		kind = "trace"
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("result-%s-%s.json", out.Workload, kind)), append(data, '\n'), 0o644)
}

// runSet is what -runs collects and -compare reads: per workload, per
// metric, the value of every run, plus the most operations any run saw
// fail.
type runSet struct {
	Env     *environment                    `json:"env"`
	Seconds float64                         `json:"seconds"`
	Seeds   []int64                         `json:"seeds"`
	Values  map[string]map[string][]float64 `json:"values"`
	Failed  map[string]int64                `json:"failed"`
}

// all runs every workload, each run in a fresh child process so that
// CPU time, peak RSS and allocation counts belong to one workload.
func all(seed int64, seconds float64, traced bool, runs int, jsonOut, outDir string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := runSet{Seconds: seconds, Values: map[string]map[string][]float64{}, Failed: map[string]int64{}}
	var bad []string
	for r := 0; r < runs; r++ {
		set.Seeds = append(set.Seeds, seed+int64(r))
		for _, w := range workloads {
			traceArg := "0"
			if traced {
				traceArg = "1"
			}
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(r), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg, "-out", outDir)
			var buf bytes.Buffer
			cmd.Stdout = &buf
			cmd.Stderr = stderr
			runErr := cmd.Run()
			out, perr := lastJSONLine(buf.Bytes())
			if runErr != nil || perr != nil {
				bad = append(bad, fmt.Sprintf("%s (run %d): %v", w.name, r+1, errors.Join(runErr, perr)))
				continue
			}
			if set.Values[w.name] == nil {
				set.Values[w.name] = map[string][]float64{}
			}
			for name, m := range out.Metrics {
				set.Values[w.name][name] = append(set.Values[w.name][name], m.Value)
			}
			if out.Failed > set.Failed[w.name] {
				set.Failed[w.name] = out.Failed
			}
		}
	}
	set.Env = readEnvironment(spec{})
	summary(stdout, set, traced)
	if jsonOut != "" {
		data, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d run(s) failed: %s", len(bad), strings.Join(bad, "; "))
	}
	return nil
}

func lastJSONLine(stdout []byte) (*outcome, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	if last == "" {
		return nil, errors.New("no result line")
	}
	var out outcome
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &out, nil
}

// summary prints one row per (metric, workload): median, quartiles and
// their spread as a share of the median.
func summary(w io.Writer, set runSet, traced bool) {
	table := endToEnd
	if traced {
		table = perLayer
	}
	fmt.Fprintf(w, "\n%-36s %-22s %-6s %-6s %14s %14s %14s %7s %3s\n",
		"metric", "workload", "unit", "bound", "median", "q1", "q3", "spread", "n")
	for _, d := range table {
		for _, wl := range workloads {
			vals := set.Values[wl.name][d.name]
			if len(vals) == 0 {
				continue
			}
			med := median(vals)
			q1, q3 := quartiles(vals)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			bound := ""
			if d.bound > 0 {
				bound = strconv.FormatFloat(d.bound, 'f', 2, 64)
			}
			fmt.Fprintf(w, "%-36s %-22s %-6s %-6s %14.4f %14.4f %14.4f %7.4f %3d\n",
				d.name, wl.name, d.unit, bound, med, q1, q3, spread, len(vals))
		}
	}
	fmt.Fprintf(w, "GOMAXPROCS %d; seeds %v; %.0f s measured per run\n", runtime.GOMAXPROCS(0), set.Seeds, set.Seconds)
}
