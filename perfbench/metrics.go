package main

import "fmt"

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of each workload sees, printed by
// every untraced run. Every workload reports every one of them; the
// operation behind latency_ms and ops_per_s is defined per workload in
// NOTES.md. latency_ms is a classMedian.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"retained_mb", "MB"},
	{"pinball_kb", "KB"},
}

// perLayer are the traced run's metrics, one set for every workload; a
// layer the workload does not touch reads 0.
var perLayer = []metricDef{
	{"core.first_slice_ms", "ms"},
	{"core.next_slice_ms", "ms"},
	{"core.trace_ms", "ms"},
	{"pinplay.replay_ms", "ms"},
	{"pinplay.record_ms", "ms"},
	{"vm.instrs_per_s", "1/s"},
	{"tracer.collect_ms", "ms"},
	{"tracer.collect_alloc_b_per_entry", "B"},
	{"tracer.global_ms", "ms"},
	{"tracer.retained_b_per_entry", "B"},
	{"tracer.entries", "count"},
	{"slice.build_ms", "ms"},
	{"slice.seq_build_ms", "ms"},
	{"slice.query_ms", "ms"},
	{"slice.seq_query_ms", "ms"},
	{"slice.engine_hit_ratio", "ratio"},
	{"cfg.hit_ratio", "ratio"},
	{"pinball.load_ms", "ms"},
	{"pinball.encode_ms", "ms"},
	{"pinball.save_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.dedup_ratio", "ratio"},
	{"store.manifest_records", "count"},
	{"sessiond.overhead_ms", "ms"},
	{"sessiond.queued", "count"},
	{"sessiond.rejected", "count"},
	{"fleet.hops_per_slice", "count"},
	{"fleet.hop_ms", "ms"},
	{"fleet.redispatched", "count"},
	{"core.self_ms", "ms"},
	{"pinball.self_ms", "ms"},
	{"pinplay.self_ms", "ms"},
	{"tracer.self_ms", "ms"},
	{"slice.self_ms", "ms"},
	{"store.self_ms", "ms"},
	{"sessiond.self_ms", "ms"},
	{"fleet.self_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.spans", "count"},
}

// Metric is one reported value. N is the sample count behind it (0 for
// values that are not sample statistics).
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metrics holds named values.
type metrics map[string]Metric

func (m metrics) set(name, unit string, v float64, n int) {
	m[name] = Metric{Value: v, Unit: unit, N: n}
}

// result is what one workload run produces before it is printed.
type result struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Rejected counts requests the system refused (overload, draining);
	// Incorrect counts answers that disagreed with the reference.
	Rejected  int `json:"rejected"`
	Incorrect int `json:"incorrect"`
	// E2E holds the end-to-end metrics (traced runs measure them too, so
	// the two runs can be compared); Extra the metrics of this
	// workload that are not shared by every workload (percentiles
	// obey the percentile rule and are absent when too few samples lie
	// beyond them); Layers the per-layer metrics of a traced run.
	E2E    metrics `json:"e2e"`
	Extra  metrics `json:"extra"`
	Layers metrics `json:"layers,omitempty"`
	// Failures lists the first few failure messages.
	Failures []string `json:"failures,omitempty"`
}

func newResult() *result {
	return &result{E2E: metrics{}, Extra: metrics{}, Layers: metrics{}}
}

// fail records one failed operation.
func (r *result) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN records n failed operations with one message.
func (r *result) failN(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// latency records a latency sample set: median always, p90 only when
// the percentile rule allows.
func (r *result) latency(prefix string, ms []float64) {
	if m, ok := median(ms); ok {
		r.Extra.set(prefix+"_p50_ms", "ms", m, len(ms))
	}
	if p, ok := tail(ms, 90); ok {
		r.Extra.set(prefix+"_p90_ms", "ms", p, len(ms))
	}
}
