package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer's public function, recorded by
// the benchmark around the call. Name is "<layer>.<call>"; Req groups
// the spans of one client operation (0 for set-up probes); Parent is the
// enclosing span's ID (0 at the root). Times are nanoseconds since the
// run started.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s Span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// Recorder keeps spans in memory until the run ends. A nil recorder
// records nothing: untraced runs, and the untraced half of a traced
// run's operations, pass nil.
type Recorder struct {
	t0    time.Time
	seq   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// noEnd is what a nil recorder hands back.
func noEnd() {}

// Start opens a span and returns its ID (0 when not recording) and the
// function that closes it.
func (r *Recorder) Start(name string, parent, req int64) (int64, func()) {
	if r == nil {
		return 0, noEnd
	}
	id := r.seq.Add(1)
	start := time.Since(r.t0).Nanoseconds()
	return id, func() {
		end := time.Since(r.t0).Nanoseconds()
		r.mu.Lock()
		r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
		r.mu.Unlock()
	}
}

// Spans returns a copy of the recorded spans in start order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeSpans writes one span per line.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the durations in ms of every span with this name.
func durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfTimes returns each layer's total self time in ms over the spans
// of client operations (Req > 0): a span's duration minus the part of
// it its child spans cover.
func selfTimes(spans []Span) map[string]float64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		if s.Req == 0 {
			continue
		}
		covered := coveredNS(s, children[s.ID])
		out[s.layer()] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// coveredNS is the length of the union of the children's intervals,
// clipped to the parent.
func coveredNS(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}
