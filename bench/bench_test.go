package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"prins/internal/block"
	"prins/internal/iscsi"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// benchmarkJSON is the driver's contract file, key for key.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonMetric   `json:"end_to_end"`
	PerLayer   []jsonLayer    `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func fromTables() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, jsonWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, jsonMetric{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonLayer{d.name, d.unit, d.better})
	}
	return b
}

const benchmarkFile = "../BENCHMARK.json"

// TestBenchmarkJSON keeps the contract file and the tables the harness
// prints from in step, so a name cannot drift: regenerate with
// `go test -run TestBenchmarkJSON -update`.
func TestBenchmarkJSON(t *testing.T) {
	want := fromTables()
	if *update {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(want); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchmarkFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%s: %v", benchmarkFile, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s is out of step with the tables in bench/; run go test -run TestBenchmarkJSON -update", benchmarkFile)
	}

	// The contract's own limits.
	if len(data) > 64<<10 {
		t.Errorf("file is %d bytes, limit 64 KiB", len(data))
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	name := func(s string) {
		t.Helper()
		if s == "" || len(s) > 64 || strings.Trim(s, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-") != "" || strings.ContainsAny(s[:1], "_.-") {
			t.Errorf("name %q is outside the allowed alphabet", s)
		}
		if seen[s] {
			t.Errorf("name %q is used twice", s)
		}
		seen[s] = true
	}
	unit := func(s string) {
		t.Helper()
		if s == "" || len(s) > 16 || strings.Trim(s, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-") != "" {
			t.Errorf("unit %q is outside the allowed alphabet", s)
		}
	}
	for _, w := range got.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s: %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range got.EndToEnd {
		name(m.Name)
		unit(m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range got.PerLayer {
		name(m.Name)
		unit(m.Unit)
	}
}

func keys(m map[string]metricValue) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(table []metricDef) []string {
	var out []string
	for _, d := range table {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsSmall runs every workload at about 1/100 scale (a
// smaller device, link delays and byte times scaled down with it), end
// to end and traced: the replica must converge, nothing may fail, and
// the names printed must be exactly the names in the tables, which
// TestBenchmarkJSON ties to BENCHMARK.json.
func TestWorkloadsSmall(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w.name, seed: 3, seconds: 0.3, trace: traced, scale: 0.01}
			if traced {
				cfg.outDir = t.TempDir()
			}
			out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%v",
					w.name, traced, out.Correct, out.Attempted, out.Failed, out.Notes)
			}
			want := names(endToEnd)
			if traced {
				want = names(perLayer)
			}
			if got := keys(out.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metric names\n got %v\nwant %v", w.name, traced, got, want)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
				if r := out.Metrics["trace.stage_sum_ratio"].Value; r < 0.5 || r > 1.5 {
					t.Errorf("%s: stage_sum_ratio %v: the tracer lost track of the writes", w.name, r)
				}
			} else {
				for _, d := range endToEnd {
					if out.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w.name, d.name, out.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// opStreamHash digests the first n generated operations of a workload
// for a seed, without running the system. The raw workloads hash the
// generated ops; memfs hashes the block writes it issues against a bare
// store. minidb flushes a checkpoint's pages in map order, so which of
// its writes come first is not a function of the seed: tpcc is digested
// as the device image a fixed number of transactions leaves behind.
func opStreamHash(sp spec, seed int64, n int) (uint64, error) {
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	if sp.kind == kindRaw {
		for w := 0; w < sp.writers; w++ {
			g := rawGen{
				rng:       rand.New(rand.NewSource(mix(seed, streamWriter0+uint64(w)))),
				blockSize: sp.blockSize, numBlocks: sp.numBlocks,
				denseShare: sp.denseShare, poolLen: poolBytes + sp.blockSize,
			}
			for i := 0; i < n/sp.writers; i++ {
				op := g.next()
				put(op.lba)
				put(uint64(op.off)<<40 | uint64(op.n)<<20 | uint64(op.src))
			}
		}
		return h.Sum64(), nil
	}

	store, err := block.NewMem(sp.blockSize, sp.numBlocks)
	if err != nil {
		return 0, err
	}
	if err := sp.populate(store, seed); err != nil {
		return 0, err
	}
	seen := 0
	obs := block.NewObserved(store, func(lba uint64, _, data []byte) {
		seen++
		if sp.kind == kindTar && seen <= n {
			put(lba)
			put(iscsi.HashBlock(data))
		}
	})
	clients, err := newClients(sp, obs, nil, seed)
	if err != nil {
		return 0, err
	}
	// Stock-Level reads its items in map order too, so even the count of
	// device writes after k transactions is not fixed: count transactions.
	more := func(steps int) bool { return seen < n }
	if sp.kind == kindTPCC {
		more = func(steps int) bool { return steps < n/8 }
	}
	for steps := 0; more(steps); steps++ {
		if err := clients[0].step(); err != nil {
			return 0, err
		}
	}
	if sp.kind == kindTPCC {
		if err := clients[0].finish(); err != nil {
			return 0, err
		}
		put(uint64(clients[0].ops()))
		buf := make([]byte, sp.blockSize)
		for lba := uint64(0); lba < sp.numBlocks; lba++ {
			if err := store.ReadBlock(lba, buf); err != nil {
				return 0, err
			}
			put(iscsi.HashBlock(buf))
		}
	}
	return h.Sum64(), nil
}

// TestOpStreamFromSeedOnly: the same seed generates the same first
// operations, another seed generates others, for every workload.
func TestOpStreamFromSeedOnly(t *testing.T) {
	for _, w := range workloads {
		n := 10_000
		if w.kind != kindRaw {
			n = 2_000 // the applications run to produce theirs
		}
		a, err := opStreamHash(w, 7, n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := opStreamHash(w, 7, n)
		if err != nil {
			t.Fatal(err)
		}
		c, err := opStreamHash(w, 8, n)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: seed 7 hashed to %x then %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 hashed alike (%x)", w.name, a)
		}
	}
}

// TestQuartilesLikePython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesLikePython(t *testing.T) {
	v := []float64{12, 3, 7, 9, 1, 15, 8, 4, 10, 6}
	q1, q3 := quartiles(v)
	if q1 != 3.75 || q3 != 10.5 { // python3 -c "import statistics as s; print(s.quantiles([...], n=4))"
		t.Errorf("quartiles = %v, %v; want 3.75, 10.5", q1, q3)
	}
	if m := median(v); m != 7.5 {
		t.Errorf("median = %v, want 7.5", m)
	}
}

// TestCompare covers the verdicts -compare can reach.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, set runSet) string {
		t.Helper()
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	w := workloads[0].name
	mk := func(wps, mean []float64, failed int64) runSet {
		return runSet{
			Values: map[string]map[string][]float64{w: {"writes_per_s": wps, "write_mean_ms": mean}},
			Failed: map[string]int64{w: failed},
		}
	}
	base := write("base.json", mk([]float64{100, 101, 99, 100, 102}, []float64{5, 5.1, 4.9, 5, 5}, 0))
	noisy := write("noisy.json", mk([]float64{100, 140, 60, 100, 120}, []float64{5, 5.1, 4.9, 5, 5}, 0))

	var buf bytes.Buffer
	if err := compareFiles(base, write("same.json", mk([]float64{98, 99, 100, 97, 99}, []float64{5, 5, 5.2, 5.1, 5}, 0)), &buf); err != nil {
		t.Errorf("a 2%% change was judged a regression: %v\n%s", err, buf.String())
	}
	buf.Reset()
	if err := compareFiles(base, write("slow.json", mk([]float64{70, 71, 69, 70, 72}, []float64{5, 5, 5, 5, 5}, 0)), &buf); err == nil || !strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("30%% fewer writes per second passed:\n%s", buf.String())
	}
	buf.Reset()
	if err := compareFiles(base, write("failing.json", mk([]float64{100, 100, 100, 100, 100}, []float64{5, 5, 5, 5, 5}, 3)), &buf); err == nil {
		t.Errorf("more failed operations passed:\n%s", buf.String())
	}
	buf.Reset()
	if err := compareFiles(noisy, write("slow2.json", mk([]float64{70, 71, 69, 70, 72}, []float64{5, 5, 5, 5, 5}, 0)), &buf); err != nil || !strings.Contains(buf.String(), "unresolved") {
		t.Errorf("a base whose spread exceeds the bound must read unresolved, not regressed (err %v):\n%s", err, buf.String())
	}
}
