// Command perfbench is the repository's end-to-end benchmark of the
// cyclic-debugging pipeline: record a region once, then replay and
// slice it many times (DrDebug, Fig. 2 and §7). Each workload is a
// closed loop of clients, every answer is checked against a reference
// computed in-process by a different path, and the last line of
// standard output is one JSON object with the run's metrics.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench compare [-bounds BENCHMARK.json] <results-A> <results-B>
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it records a span around every call it makes into a layer's public
// function, writes the spans at exit and reports the per-layer metrics.
// NOTES.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one named traffic mix; NOTES.md says why each exists.
type workload struct {
	name string
	run  func(e *env) (*result, error)
}

var workloadList = []workload{
	{"cyclic-1m", runCyclic},
	{"daemon-mixed", runDaemon},
	{"fleet-2w", runFleet},
	{"capture", runCapture},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is one run's configuration and instrumentation.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	nproc   int
	work    string    // scratch directory of this run, removed at exit
	rec     *Recorder // nil in untraced runs
	// layers holds per-layer samples gathered outside spans, from the
	// run's main goroutine only.
	layers map[string][]float64
}

// layerSample adds one sample of a per-layer metric; the reported value
// is the median of its samples.
func (e *env) layerSample(name string, v float64) {
	e.layers[name] = append(e.layers[name], v)
}

// opRec is the recorder for client operation i. A traced run traces
// alternate blocks of period operations and leaves the others
// untraced, so it measures its own tracing overhead; period is the
// length of the workload's input rotation, so both halves see the same
// mix. Untraced runs record nothing.
func (e *env) opRec(i, period int) *Recorder {
	if (i/period)%2 == 0 {
		return e.rec
	}
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result and span files")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	// The benchmark measures the engine at the machine's parallelism,
	// never pinned below it.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		nproc:   nproc,
		work:    filepath.Join(*work, fmt.Sprintf("%s-%d", w.name, os.Getpid())),
		layers:  map[string][]float64{},
	}
	if e.traced {
		e.rec = newRecorder()
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(e.work)

	res, err := w.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if e.traced {
		spans := e.rec.Spans()
		e.finishLayers(res, spans)
		if err := os.MkdirAll(*out, 0o755); err == nil {
			path := filepath.Join(*out, fmt.Sprintf("%s-seed%d-spans.jsonl", w.name, e.seed))
			if err := writeSpans(path, spans); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			}
		}
	}
	for _, m := range endToEnd {
		if _, ok := res.E2E[m.Name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s produced no %s\n", w.name, m.Name)
			return 1
		}
	}
	res.Extra.set("failed_ratio", "ratio", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)

	prov := provenance(e, w.name)
	printSummary(stdout, prov, res)
	if err := saveResult(*out, prov, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: saving result: %v\n", err)
	}

	line, correct, err := finalLine(res, e.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed: %s\n",
			w.name, res.Failed, res.Attempted, strings.Join(res.Failures, "; "))
		return 1
	}
	return 0
}

// finalLine is the run's last output line: whether every answer was
// correct, the operation counts, and the end-to-end metrics (untraced)
// or the per-layer metrics (traced).
func finalLine(res *result, traced bool) ([]byte, bool, error) {
	defs, src := endToEnd, res.E2E
	if traced {
		defs, src = perLayer, res.Layers
	}
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{Correct: res.Failed == 0 && res.Attempted > 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]Metric{}}
	for _, m := range defs {
		final.Metrics[m.Name] = Metric{Value: src[m.Name].Value, Unit: m.Unit}
	}
	line, err := json.Marshal(final)
	return line, final.Correct, err
}

func workloadNames() string {
	var names []string
	for _, w := range workloadList {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// finishLayers turns the traced run's spans and samples into the
// per-layer metrics. A metric the workload set itself is kept; any
// other is the median of its samples or, for "<span name>_ms", of the
// durations of the spans of that name; with neither it reads 0.
func (e *env) finishLayers(res *result, spans []Span) {
	ops := 0
	for _, s := range spans {
		if s.Parent == 0 && s.Req > 0 {
			ops++
		}
	}
	for layer, ms := range selfTimes(spans) {
		res.Layers.set(layer+".self_ms", "ms", ms/float64(max(1, ops)), ops)
	}
	res.Layers.set("bench.spans", "count", float64(len(spans)), 0)
	for _, m := range perLayer {
		if _, ok := res.Layers[m.Name]; ok {
			continue
		}
		xs := e.layers[m.Name]
		if span, ok := strings.CutSuffix(m.Name, "_ms"); ok && xs == nil {
			xs = durations(spans, span)
		}
		res.Layers.set(m.Name, m.Unit, med(xs), len(xs))
	}
}

// overheadSplit collects a traced run's operation latencies by class
// (criterion, engine or kernel), apart for traced and untraced
// operations.
type overheadSplit struct{ traced, untraced map[int][]float64 }

func newOverheadSplit() *overheadSplit {
	return &overheadSplit{traced: map[int][]float64{}, untraced: map[int][]float64{}}
}

func (o *overheadSplit) add(traced bool, class int, ms float64) {
	if traced {
		o.traced[class] = append(o.traced[class], ms)
	} else {
		o.untraced[class] = append(o.untraced[class], ms)
	}
}

// report sets bench.trace_overhead_pct: over the classes both halves
// sampled, the sum of the traced class medians over the sum of the
// untraced ones, less one. Pairing by class keeps a difference in the
// halves' mix of slow and fast operations from posing as overhead.
func (o *overheadSplit) report(res *result) {
	var t, u float64
	n := 0
	for class, xs := range o.traced {
		if ys, ok := o.untraced[class]; ok {
			t += med(xs)
			u += med(ys)
			n += len(xs) + len(ys)
		}
	}
	if u > 0 {
		res.Layers.set("bench.trace_overhead_pct", "%", 100*(t/u-1), n)
	}
}

// Provenance is the header every result carries.
type Provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Unix       int64  `json:"unix"`
}

func provenance(e *env, name string) Provenance {
	return Provenance{
		Workload:   name,
		Seed:       e.seed,
		Seconds:    int(e.seconds / time.Second),
		Traced:     e.traced,
		NProc:      e.nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     sourceID("."),
		Unix:       time.Now().Unix(),
	}
}

// printSummary prints the provenance header and every metric with its
// unit and sample count, as comment lines before the final JSON line.
func printSummary(w io.Writer, prov Provenance, res *result) {
	hdr, _ := json.Marshal(prov)
	fmt.Fprintf(w, "# provenance %s\n", hdr)
	fmt.Fprintf(w, "# attempted %d failed %d (rejected %d, incorrect %d)\n", res.Attempted, res.Failed, res.Rejected, res.Incorrect)
	for _, group := range []struct {
		label string
		m     metrics
	}{{"e2e", res.E2E}, {"extra", res.Extra}, {"layer", res.Layers}} {
		names := make([]string, 0, len(group.m))
		for n := range group.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := group.m[n]
			fmt.Fprintf(w, "# %-5s %-36s %14.4f %-6s n=%d\n", group.label, n, m.Value, m.Unit, m.N)
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "# failure %s\n", f)
	}
}

// savedResult is one run's record in the results directory; compare
// mode reads these.
type savedResult struct {
	Provenance Provenance `json:"provenance"`
	Result     *result    `json:"result"`
}

func saveResult(dir string, prov Provenance, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(savedResult{prov, res}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", prov.Workload, prov.Seed, b2i(prov.Traced), time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
