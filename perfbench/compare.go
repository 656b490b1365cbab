package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// bound is one end-to-end metric's regression bound from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runCompare prints, per workload and metric, each result set's median
// and quartiles, and judges every bounded metric: "unresolved" when
// either side's run-to-run spread exceeds the bound, "REGRESSED" or
// "improved" when the medians differ by more than the bound, "same"
// otherwise. It exits 1 when any metric regressed.
func runCompare(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	boundsPath := fs.String("bounds", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds")
	traced := fs.Bool("traced", false, "compare traced runs (per-layer metrics) instead of untraced ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bounds BENCHMARK.json] [-traced] <results-A> <results-B>")
		return 2
	}
	bounds, err := loadBounds(*boundsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	a, err := loadResults(fs.Arg(0), *traced)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = loadResults(fs.Arg(1), *traced); err == nil {
			if compareSets(w, bounds, a, b) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
	return 2
}

func loadBounds(path string) (map[string]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, b := range def.EndToEnd {
		out[b.Name] = b
	}
	return out, nil
}

// loadResults reads every saved result under dir and returns, per
// workload, each metric's values across the runs.
func loadResults(dir string, traced bool) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(p) != ".json" {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var sr savedResult
		if err := json.Unmarshal(data, &sr); err != nil || sr.Result == nil {
			return fmt.Errorf("%s: not a perfbench result", p)
		}
		if sr.Provenance.Traced != traced {
			return nil
		}
		wl := out[sr.Provenance.Workload]
		if wl == nil {
			wl = map[string][]float64{}
			out[sr.Provenance.Workload] = wl
		}
		for _, m := range []metrics{sr.Result.E2E, sr.Result.Extra, sr.Result.Layers} {
			for name, v := range m {
				wl[name] = append(wl[name], v.Value)
			}
		}
		return nil
	})
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("%s: no results", dir)
	}
	return out, err
}

// compareSets prints the comparison and reports whether any bounded
// metric regressed.
func compareSets(w io.Writer, bounds map[string]bound, a, b map[string]map[string][]float64) bool {
	regressed := false
	fmt.Fprintf(w, "%-13s %-34s %-34s %-34s %8s  %s\n", "workload", "metric", "A median [q1 q3] n", "B median [q1 q3] n", "change", "verdict")
	for _, wl := range unionKeys(a, b) {
		for _, name := range unionKeys(a[wl], b[wl]) {
			xa, xb := a[wl][name], b[wl][name]
			ma, mb := med(xa), med(xb)
			change := math.NaN()
			if ma != 0 {
				change = (mb - ma) / math.Abs(ma)
			}
			verdict := "-"
			if bd, ok := bounds[name]; ok {
				verdict = judge(bd, xa, xb)
				regressed = regressed || verdict == "REGRESSED"
			}
			fmt.Fprintf(w, "%-13s %-34s %-34s %-34s %+7.1f%%  %s\n", wl, name, describe(xa), describe(xb), 100*change, verdict)
		}
	}
	return regressed
}

// judge applies the bound to two samples of one metric.
func judge(bd bound, xa, xb []float64) string {
	sa, okA := spread(xa)
	sb, okB := spread(xb)
	if !okA || !okB || sa > bd.Bound || sb > bd.Bound {
		return "unresolved"
	}
	ma, mb := med(xa), med(xb)
	worse := (mb - ma) / math.Abs(ma)
	if bd.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bd.Bound:
		return "REGRESSED"
	case worse < -bd.Bound:
		return "improved"
	}
	return "same"
}

func describe(xs []float64) string {
	q1, q2, q3, ok := quartiles(xs)
	if !ok {
		return fmt.Sprintf("%.4g n=%d", med(xs), len(xs))
	}
	return fmt.Sprintf("%.4g [%.4g %.4g] n=%d", q2, q1, q3, len(xs))
}

func unionKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
