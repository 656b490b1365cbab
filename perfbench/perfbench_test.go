package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sessiond"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		report bool
	}{
		{n: 99, p: 90, want: 90, report: false},  // 9 samples beyond
		{n: 100, p: 90, want: 90, report: true},  // 10 beyond
		{n: 250, p: 90, want: 225, report: true}, // 25 beyond
		{n: 40, p: 75, want: 30, report: true},
		{n: 39, p: 75, want: 30, report: false},
		{n: 5, p: 90, want: 5, report: false},
	} {
		got, ok := tail(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.report {
			t.Errorf("tail(n=%d, p%g) = %g, %v; want %g, %v", tc.n, tc.p, got, ok, tc.want, tc.report)
		}
	}
	if _, ok := tail(nil, 90); ok {
		t.Error("an empty sample reported a percentile")
	}
	if m, ok := median([]float64{4, 1, 3, 2}); !ok || m != 2.5 {
		t.Errorf("median = %g, %v; want 2.5", m, ok)
	}

	// The run-to-run spread uses the quartiles of Python's
	// statistics.quantiles(xs, n=4): [2.75, 5.5, 8.25] for 1..10.
	q1, q2, q3, ok := quartiles(seq(10))
	if !ok || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g", q1, q2, q3)
	}
	if s, _ := spread(seq(10)); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want 1", s)
	}

	res := newResult()
	res.latency("slice", seq(99))
	if _, ok := res.Extra["slice_p90_ms"]; ok {
		t.Error("p90 reported from 99 samples")
	}
	if m := res.Extra["slice_p50_ms"]; m.Value != 50 || m.N != 99 {
		t.Errorf("slice_p50_ms = %+v", m)
	}
}

// smallPool builds a two-kernel pool of short regions.
func smallPool(t *testing.T, seed int64) (*env, *pool) {
	t.Helper()
	e := &env{seed: seed, seconds: time.Second, nproc: 2, work: t.TempDir(), layers: map[string][]float64{}}
	p, err := e.buildPool([]string{"blackscholes", "canneal"}, 3000, seed, daemonPick)
	if err != nil {
		t.Fatal(err)
	}
	return e, p
}

func TestSameSeedSameInputs(t *testing.T) {
	encode := func(seed int64) []byte {
		_, p := smallPool(t, seed)
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, v := range []any{p.table, requestStream(seed, 0, 512, len(p.table), 2), requestStream(seed, 1, 512, len(p.table), 2)} {
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	a, b := encode(7), encode(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different criteria tables or request streams")
	}
	if bytes.Equal(a, encode(8)) {
		t.Fatal("different seeds gave identical inputs")
	}
}

func TestTamperedReferenceCaught(t *testing.T) {
	c := criterion{Want: "00000000000000aa"}
	if err := checkSlice("00000000000000aa", c); err != nil {
		t.Fatalf("matching digest rejected: %v", err)
	}
	if checkSlice("00000000000000ab", c) == nil {
		t.Fatal("a wrong slice digest passed")
	}
	data := []byte("DRPB pinball bytes")
	if err := checkReadBack(data, digestOf(data), data); err != nil {
		t.Fatalf("intact read-back rejected: %v", err)
	}
	if checkReadBack(data, "ffffffffffffffff", data) == nil {
		t.Fatal("a tampered put digest passed")
	}
	if checkReadBack([]byte("DRPB pinball bytez"), digestOf(data), data) == nil {
		t.Fatal("altered read-back bytes passed")
	}

	// Over the wire: a daemon answer checked against a tampered
	// reference is reported incorrect.
	e, p := smallPool(t, 3)
	d, err := e.startDaemon(filepath.Join(e.work, "setup"), p)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	cl, err := sessiond.Dial(d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	crit := p.crits[0][1]
	if err := p.do(cl, crit, 0); err != nil {
		t.Fatalf("untampered request: %v", err)
	}
	crit.Want = "0123456789abcdef"
	if err := p.do(cl, crit, 2); !errors.Is(err, errIncorrect) {
		t.Fatalf("tampered reference gave %v, want errIncorrect", err)
	}
}

func TestFailuresCountAgainstAttempted(t *testing.T) {
	e, p := smallPool(t, 5)
	d, err := e.startDaemon(filepath.Join(e.work, "setup"), p)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	for i := range p.table {
		p.table[i].Want = "ffffffffffffffff"
	}
	res := newResult()
	ls, err := e.runClients(res, d.addr, p, "sessiond.request", p.inProcessMS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted == 0 || res.Failed != res.Attempted || res.Incorrect != res.Attempted || ls.correct != 0 {
		t.Fatalf("attempted %d, failed %d, incorrect %d, correct %d", res.Attempted, res.Failed, res.Incorrect, ls.correct)
	}
	ls.report(res, e, p, []float64{1})
	res.E2E.set("retained_mb", "MB", 1, 0)
	line, ok, err := finalLine(res, false)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if ok || got.Correct || got.Failed != res.Attempted || got.Attempted != res.Attempted {
		t.Fatalf("final line %s claims success", line)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Req: 1, Name: "bench.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "slice.query", Start: 10, End: 40},
		{ID: 3, Parent: 1, Req: 1, Name: "slice.query", Start: 30, End: 50},
		{ID: 4, Parent: 2, Req: 1, Name: "tracer.collect", Start: 15, End: 25},
		{ID: 5, Req: 0, Name: "pinball.load", Start: 0, End: 1000}, // a probe, not an operation
	}
	got := selfTimes(spans)
	want := map[string]float64{"bench": 60e-6, "slice": 40e-6, "tracer": 10e-6}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-12 {
			t.Errorf("%s self = %g ms, want %g", layer, got[layer], w)
		}
	}
	if _, ok := got["pinball"]; ok {
		t.Error("probe span counted as operation self time")
	}
}

func TestJudge(t *testing.T) {
	bd := bound{Name: "latency_ms", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		b    []float64
		want string
	}{
		{scaled(1.05), "same"},
		{scaled(1.2), "REGRESSED"},
		{scaled(0.8), "improved"},
		{[]float64{50, 150, 80, 120, 100}, "unresolved"},
	} {
		if got := judge(bd, base, tc.b); got != tc.want {
			t.Errorf("judge(%v) = %s, want %s", tc.b, got, tc.want)
		}
	}
	if got := judge(bound{Better: "higher", Bound: 0.1}, base, scaled(0.8)); got != "REGRESSED" {
		t.Errorf("a higher-is-better drop judged %s", got)
	}
}

// TestBenchmarkDefinition keeps BENCHMARK.json in step with the
// workloads and metrics this program reports.
func TestBenchmarkDefinition(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []bound                       `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(def.Workloads), len(workloadList))
	}
	for i, w := range def.Workloads {
		if w.Name != workloadList[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloadList[i].name)
		}
	}
	if len(def.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(def.EndToEnd), len(endToEnd))
	}
	for i, m := range def.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end-to-end %d: %s/%s vs %+v", i, m.Name, m.Unit, endToEnd[i])
		}
	}
	if len(def.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(def.PerLayer), len(perLayer))
	}
	for i, m := range def.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per-layer %d: %s/%s vs %+v", i, m.Name, m.Unit, perLayer[i])
		}
	}
}
