package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readRunSet(path string) (runSet, error) {
	var set runSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// compareFiles judges the runs in newPath against those in basePath,
// one row per (metric, workload). A metric regresses when its median is
// worse than the base median by more than its bound; it is unresolved,
// not unchanged, when the base's own inter-quartile spread is wider
// than the bound. More failed operations than the base is a regression
// whatever the timings say. Per-layer metrics have no bound and are
// printed for the reader.
func compareFiles(basePath, newPath string, w io.Writer) error {
	base, err := readRunSet(basePath)
	if err != nil {
		return err
	}
	cur, err := readRunSet(newPath)
	if err != nil {
		return err
	}
	regressions := 0
	fmt.Fprintf(w, "%-36s %-22s %14s %14s %8s %6s  %s\n", "metric", "workload", "base median", "new median", "change", "bound", "verdict")
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			for _, wl := range workloads {
				b, n := base.Values[wl.name][d.name], cur.Values[wl.name][d.name]
				if len(b) == 0 || len(n) == 0 {
					continue
				}
				bm, nm := median(b), median(n)
				change, worse := 0.0, 0.0
				if bm != 0 {
					change = (nm - bm) / bm
					worse = change
					if d.better == "higher" {
						worse = -change
					}
				}
				verdict := ""
				if d.bound > 0 {
					q1, q3 := quartiles(b)
					switch {
					case bm != 0 && (q3-q1)/bm > d.bound:
						verdict = "unresolved (base spread exceeds the bound)"
					case worse > d.bound:
						verdict = "REGRESSION"
						regressions++
					case worse < -d.bound:
						verdict = "better"
					default:
						verdict = "within bound"
					}
				}
				bound := ""
				if d.bound > 0 {
					bound = fmt.Sprintf("%.2f", d.bound)
				}
				fmt.Fprintf(w, "%-36s %-22s %14.4f %14.4f %+7.1f%% %6s  %s\n", d.name, wl.name, bm, nm, 100*change, bound, verdict)
			}
		}
	}
	for _, wl := range workloads {
		if cur.Failed[wl.name] > base.Failed[wl.name] {
			fmt.Fprintf(w, "%-36s %-22s %14d %14d %8s %6s  REGRESSION\n", "failed operations", wl.name, base.Failed[wl.name], cur.Failed[wl.name], "", "")
			regressions++
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s)", regressions)
	}
	return nil
}
