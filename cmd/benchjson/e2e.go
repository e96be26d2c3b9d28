package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// End-to-end pairs: benchjson -e2e parent.jsonl change.jsonl judges a
// change by the benchmark's own runs (`bash bench/run.sh --workload W
// --seed S ...`, whose last stdout line is its result as one JSON
// object), recorded in pairs by `make e2e-guard`: each pair runs the
// parent and the change back to back, so a host whose speed drifts
// between pairs slows both sides of a pair alike. Each file holds one
// side's lines, each tagged with its workload and seed; the k-th line of
// a (workload, seed) in one file pairs with the k-th in the other.
//
// Every end-to-end metric BENCHMARK.json lists is judged per workload
// by the median of its per-pair change/parent ratios, read in the
// direction the file gives: REGRESSION when that median is worse than
// the metric's bound, better when it is better by more, within bound
// otherwise. Beside it go how many pairs the change won and the ratios'
// inter-quartile range, the pairs' own noise; a verdict whose ratios
// spread past the bound says so, and stands. A side's own
// median would fold the host's drift into the spread between its runs
// (see bench/compare.go, which calls such a spread unresolved); a ratio
// within a pair cancels it. A change run that is not correct, or whose
// share of failed operations is above the parent's in its pair, is a
// regression too.

// e2eMetric is one end-to-end metric of BENCHMARK.json.
type e2eMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// e2eRun is one run's result line, tagged with its workload and seed.
type e2eRun struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// failedShare is the run's share of failed operations.
func (r e2eRun) failedShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// readSpec reads the end-to-end metrics of a BENCHMARK.json.
func readSpec(path string) ([]e2eMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []e2eMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// readRuns parses a file of tagged result lines; blank lines are
// skipped, anything else that is not one is an error.
func readRuns(path string) ([]e2eRun, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []e2eRun
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r e2eRun
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Workload == "" {
			return nil, fmt.Errorf("%s:%d: not a tagged result line: %q", path, n, line)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// e2ePair is one pair of runs of a workload and seed.
type e2ePair struct{ parent, change e2eRun }

// pairRuns pairs the k-th run of each (workload, seed) in parent with
// the k-th in change, keys in parent's order of first appearance, and
// counts the runs left without a partner.
func pairRuns(parent, change []e2eRun) (keys []string, pairs map[string][]e2ePair, unpaired int) {
	type key struct {
		w string
		s int64
	}
	byKey := func(runs []e2eRun) (map[key][]e2eRun, []key) {
		m := map[key][]e2eRun{}
		var order []key
		for _, r := range runs {
			k := key{r.Workload, r.Seed}
			if m[k] == nil {
				order = append(order, k)
			}
			m[k] = append(m[k], r)
		}
		return m, order
	}
	p, order := byKey(parent)
	c, corder := byKey(change)
	pairs = map[string][]e2ePair{}
	for _, k := range order {
		name := fmt.Sprintf("%s/seed%d", k.w, k.s)
		n := min(len(p[k]), len(c[k]))
		for i := range n {
			pairs[name] = append(pairs[name], e2ePair{p[k][i], c[k][i]})
		}
		unpaired += len(p[k]) + len(c[k]) - 2*n
		if n > 0 {
			keys = append(keys, name)
		}
	}
	for _, k := range corder {
		if _, ok := p[k]; !ok {
			unpaired += len(c[k])
		}
	}
	return keys, pairs, unpaired
}

// e2eCompareFiles reads the spec and both sides (see readSpec, readRuns)
// and judges the change (see e2eCompare).
func e2eCompareFiles(specPath, parentPath, changePath string, w io.Writer) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	parent, err := readRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	return e2eCompare(spec, parent, change, w)
}

// e2eCompare prints one row per (workload, metric) with a pair that has
// it and returns an error if any row, or any change run's correctness,
// is a regression, or if there was no pair to judge.
func e2eCompare(spec []e2eMetric, parent, change []e2eRun, w io.Writer) error {
	keys, pairs, unpaired := pairRuns(parent, change)
	if len(keys) == 0 {
		return fmt.Errorf("compared nothing: the two files share no workload and seed")
	}
	fmt.Fprintf(w, "%-32s %-28s %12s %12s %8s %6s %6s %5s  %s\n",
		"workload", "metric", "parent", "change", "ratio", "wins", "IQR", "bound", "verdict")
	regressions := 0
	for _, name := range keys {
		ps := pairs[name]
		for _, pr := range ps {
			if !pr.change.Correct || pr.change.failedShare() > pr.parent.failedShare() {
				fmt.Fprintf(w, "%-32s change run correct=%v, %d of %d operations failed (parent: %d of %d)  REGRESSION\n",
					name, pr.change.Correct, pr.change.Failed, pr.change.Attempted, pr.parent.Failed, pr.parent.Attempted)
				regressions++
			}
		}
		for _, m := range spec {
			var pv, cv, ratios []float64
			wins := 0
			for _, pr := range ps {
				p, okp := pr.parent.Metrics[m.Name]
				c, okc := pr.change.Metrics[m.Name]
				if !okp || !okc || p.Value == 0 {
					continue
				}
				r := c.Value / p.Value
				pv, cv, ratios = append(pv, p.Value), append(cv, c.Value), append(ratios, r)
				if m.Better == "higher" && r > 1 || m.Better != "higher" && r < 1 {
					wins++
				}
			}
			if len(ratios) == 0 {
				continue
			}
			ratio := median(ratios)
			q1, q3 := quartiles(ratios)
			worse := ratio - 1
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within bound"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressions++
			case worse < -m.Bound:
				verdict = "better"
			}
			if q3-q1 > m.Bound {
				verdict += " (ratios spread past the bound)"
			}
			fmt.Fprintf(w, "%-32s %-28s %12.4f %12.4f %8.4f %3d/%-2d %6.4f %5.2f  %s\n",
				name, m.Name, median(pv), median(cv), ratio, wins, len(ratios), q3-q1, m.Bound, verdict)
		}
	}
	if unpaired > 0 {
		fmt.Fprintf(w, "%d run(s) without a partner on the other side, not judged\n", unpaired)
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s) past their bounds", regressions)
	}
	return nil
}
