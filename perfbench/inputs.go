package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/tracer"
	"repro/internal/workloads"
)

// Every input of a run derives from --seed through newRand; stream
// separates the independent uses (recording seeds, criteria, each
// client's requests) so adding one does not shift the others.
func newRand(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

const (
	// threads is the worker-thread count of every recorded kernel (the
	// paper's 4-threaded runs).
	threads = 4
	// hugeSize makes a kernel's work open-ended; the logger cuts the
	// region at the requested main-thread length.
	hugeSize int64 = 1 << 40
	// warmupSkip fast-forwards past thread creation before the region.
	warmupSkip int64 = 1000
)

// program compiles a registered kernel (compilation is cached per
// process by the workload registry).
func program(kernel string) (*isa.Program, error) {
	w, err := workloads.ByName(kernel)
	if err != nil {
		return nil, err
	}
	return w.Program()
}

// recordRegion logs region main-thread instructions of kernel under the
// scheduling seed recSeed.
func recordRegion(kernel string, region, recSeed int64) (*isa.Program, *pinball.Pinball, error) {
	w, err := workloads.ByName(kernel)
	if err != nil {
		return nil, nil, err
	}
	prog, err := w.Program()
	if err != nil {
		return nil, nil, err
	}
	pb, err := pinplay.Log(prog, pinplay.LogConfig{
		Seed:     recSeed,
		RandSeed: recSeed,
		Input:    w.Input(threads, hugeSize),
	}, pinplay.RegionSpec{SkipMain: warmupSkip, LengthMain: region})
	if err != nil {
		return nil, nil, fmt.Errorf("record %s: %w", kernel, err)
	}
	return prog, pb, nil
}

// fixture is one recorded pinball file a workload serves.
type fixture struct {
	Kernel string
	Path   string
	Size   int64
	// ID is the recording's content identity (pinball.ID), Digest the
	// store's digest of the file bytes. Recording is deterministic in the
	// seed, so every call with the same arguments yields the same ID;
	// the encoding is not, so the file bytes and Digest may differ.
	ID     string
	Digest string
}

// recordFixtures records each kernel once into dir and saves the
// pinball files.
func recordFixtures(dir string, kernels []string, region, seed int64) ([]fixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := newRand(seed, 1)
	out := make([]fixture, len(kernels))
	for i, k := range kernels {
		recSeed := 1 + r.Int63n(1<<30)
		_, pb, err := recordRegion(k, region, recSeed)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%02d-%s.pinball", i, k))
		if err := pb.Save(path); err != nil {
			return nil, fmt.Errorf("save %s: %w", k, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		out[i] = fixture{Kernel: k, Path: path, Size: int64(len(data)), ID: pb.ID(), Digest: digestOf(data)}
	}
	return out, nil
}

// criterion is one slice request's criterion: Var (last read of a
// global) or Tid/Line/Nth (the Nth execution of a source line by a
// thread), against pool pinball Pool, where it is the K-th criterion.
// Ref is where it resolves in the trace and Want the reference slice
// digest.
type criterion struct {
	Pool int        `json:"pool"`
	K    int        `json:"k"`
	Var  string     `json:"var,omitempty"`
	Tid  int        `json:"tid,omitempty"`
	Line int        `json:"line,omitempty"`
	Nth  int        `json:"nth,omitempty"`
	Ref  tracer.Ref `json:"ref"`
	Want string     `json:"want,omitempty"`
}

// lineCriteria draws n line criteria whose events lie in the first
// maxPos entries of the global trace (all of it when maxPos <= 0), one
// from each of n equal strata of that range, so every table spreads
// its criteria (and the query cost, or the fleet's chain length, that
// position implies) evenly whatever the seed. The position bound is
// what keeps a fleet shard chain short.
func lineCriteria(r *rand.Rand, prog *isa.Program, tr *tracer.Trace, pool, n, maxPos int) ([]criterion, error) {
	limit := len(tr.Global)
	if maxPos > 0 && maxPos < limit {
		limit = maxPos
	}
	var out []criterion
	for j := 0; j < n; j++ {
		lo, hi := j*limit/n, (j+1)*limit/n
		for tries := 0; ; tries++ {
			if tries > 1000 || hi <= lo {
				return nil, fmt.Errorf("pool %d: no line event in trace entries [%d, %d)", pool, lo, hi)
			}
			ref := tr.Global[lo+r.Intn(hi-lo)]
			line := lineOf(prog, tr, ref)
			if line <= 0 {
				continue
			}
			nth := 0
			for pos := int32(0); pos <= ref.Pos; pos++ {
				if lineOf(prog, tr, tracer.Ref{Tid: ref.Tid, Pos: pos}) == line {
					nth++
				}
			}
			out = append(out, criterion{Pool: pool, Tid: int(ref.Tid), Line: int(line), Nth: nth, Ref: ref})
			break
		}
	}
	return out, nil
}

func lineOf(prog *isa.Program, tr *tracer.Trace, ref tracer.Ref) int32 {
	return prog.Code[tr.Entry(ref).PC].Line
}

// varCriteria draws up to n distinct global variables the trace reads.
func varCriteria(r *rand.Rand, prog *isa.Program, tr *tracer.Trace, pool, n int) []criterion {
	var cands []criterion
	for _, sym := range prog.Symbols {
		if ref, err := slice.LastReadOf(tr, sym.Addr); err == nil {
			cands = append(cands, criterion{Pool: pool, Var: sym.Name, Ref: ref})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Var < cands[j].Var })
	r.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	return cands[:min(n, len(cands))]
}

// request is one client request of the daemon and fleet workloads: a
// criterion from the table and the slicing engine it asks for.
type request struct {
	Crit    int `json:"crit"`
	Workers int `json:"workers"`
}

// requestStream is client c's request sequence: every (criterion,
// engine) pair of the table once per cycle, in a fresh seeded order per
// cycle, so each run covers the table evenly. The engine is the CLI
// default Workers=0 (sequential slicer) for half the pairs and
// Workers=nproc (parallel engine) for the other half.
func requestStream(seed int64, client, n, tableLen, nproc int) []request {
	r := newRand(seed, 100+int64(client))
	pairs := make([]request, 0, 2*tableLen)
	for c := 0; c < tableLen; c++ {
		pairs = append(pairs, request{Crit: c}, request{Crit: c, Workers: nproc})
	}
	out := make([]request, 0, n+len(pairs))
	for len(out) < n {
		r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		out = append(out, pairs...)
	}
	return out[:n]
}
