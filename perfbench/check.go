package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/store"
	"repro/internal/tracer"
)

// digestOf is the store's content digest of file bytes.
func digestOf(data []byte) string { return store.Digest(data) }

// sliceDigest is the order-sensitive digest of a slice's members and
// edges — the value the daemon and the fleet return for a slice.
func sliceDigest(sl *slice.Slice) string { return slice.Summarize(sl).Digest }

// probe computes the reference slices for one pinball file by a
// different path than the one under test: a fresh in-process session
// whose trace feeds the sequential slicer (slice.New), never the
// parallel engine or its cache. pick chooses the criteria from the
// trace; the returned criteria carry their reference digests. A traced
// run also records a span around each layer call, times plain replay
// as the floor collection is judged against, re-runs the global merge
// on its own, and measures collection's allocated and retained bytes
// per trace entry.
func (e *env) probe(prog *isa.Program, path string, pick func(*tracer.Trace) ([]criterion, error)) ([]criterion, error) {
	_, end := e.rec.Start("pinball.load", 0, 0)
	pb, err := pinball.Load(path)
	end()
	if err != nil {
		return nil, err
	}
	if e.traced {
		_, end := e.rec.Start("pinplay.replay", 0, 0)
		_, err := pinplay.Replay(prog, pb, nil)
		end()
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", path, err)
		}
	}

	var before runtime.MemStats
	if e.traced {
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	_, end = e.rec.Start("tracer.collect", 0, 0)
	tr, err := core.Open(prog, pb).Trace()
	end()
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}
	if e.traced {
		entries := float64(tr.Len())
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		e.layerSample("tracer.collect_alloc_b_per_entry", float64(after.TotalAlloc-before.TotalAlloc)/entries)
		runtime.GC()
		runtime.ReadMemStats(&after)
		e.layerSample("tracer.retained_b_per_entry", (float64(after.HeapAlloc)-float64(before.HeapAlloc))/entries)
		e.layerSample("tracer.entries", entries)
		_, end := e.rec.Start("tracer.global", 0, 0)
		err := tr.BuildGlobal()
		end()
		if err != nil {
			return nil, err
		}
	}

	crits, err := pick(tr)
	if err != nil {
		return nil, err
	}
	_, end = e.rec.Start("slice.seq_build", 0, 0)
	seq, err := slice.New(prog, tr, slice.DefaultOptions())
	end()
	if err != nil {
		return nil, err
	}
	for i := range crits {
		_, end := e.rec.Start("slice.seq_query", 0, 0)
		sl, err := seq.Slice(crits[i].Ref)
		end()
		if err != nil {
			return nil, fmt.Errorf("reference slice %d of %s: %w", i, path, err)
		}
		crits[i].Want = sliceDigest(sl)
	}
	return crits, nil
}

// timed records a span and stores the call's duration in ms into dst.
func (e *env) timed(name string, dst *float64) func() {
	_, end := e.rec.Start(name, 0, 0)
	t0 := time.Now()
	return func() {
		*dst = msSince(t0)
		end()
	}
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// checkReadBack verifies a store read-back: the bytes must hash to the
// digest the put returned and equal the bytes that were put.
func checkReadBack(got []byte, putDigest string, put []byte) error {
	if d := digestOf(got); d != putDigest {
		return fmt.Errorf("read-back hashes to %s, put returned %s", d, putDigest)
	}
	if !bytes.Equal(got, put) {
		return fmt.Errorf("read-back of %s differs from the bytes put", putDigest)
	}
	return nil
}

// checkSlice compares an answer's digest with the reference.
func checkSlice(got string, c criterion) error {
	if got != c.Want {
		return fmt.Errorf("pool %d criterion %+v: digest %s, reference %s", c.Pool, c.Ref, got, c.Want)
	}
	return nil
}
