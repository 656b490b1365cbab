package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/slice"
	"repro/internal/tracer"
)

const (
	// cyclicRegion is the paper's "1 million instructions (main thread)"
	// region; with 4 threads it traces about 3.8M entries.
	cyclicRegion int64 = 1_000_000
	// cyclicCriteria is the paper's criterion count per region (§7).
	cyclicCriteria = 10
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median.
	setupReps = 3
)

// cyclicKernels alternate: blackscholes has dense slices (query-heavy),
// swaptions a large pinball with sparse slices (collection-heavy).
var cyclicKernels = []string{"blackscholes", "swaptions"}

// cyclicSchedules fixes the recorded schedules. Across schedules the
// cost of blackscholes' last-read criteria is bimodal (slices of about
// 30k or 900k members, 15 ms or 450 ms per query), and a run can
// afford the sequential reference of only one recording per kernel,
// so a schedule drawn from --seed would make the run-to-run spread of
// every cyclic metric exceed any usable bound. --seed orders the
// sessions instead.
const cyclicSchedules int64 = 1

// runCyclic is one client opening fresh sessions from pinball files, as
// `drslice -workers N` does in a new process: pinball.Load, core.Open,
// SetParallelWorkers(nproc), then the 10 LastReadsInRegion criteria.
// The engine and CFG caches are reset before every session.
func runCyclic(e *env) (*result, error) {
	res := newResult()
	pre, err := recordFixtures(filepath.Join(e.work, "pre"), cyclicKernels, cyclicRegion, cyclicSchedules)
	if err != nil {
		return nil, err
	}
	progs := make([]*isa.Program, len(pre))
	refs := make([][]criterion, len(pre))
	for i, f := range pre {
		if progs[i], err = program(f.Kernel); err != nil {
			return nil, err
		}
		pool := i
		refs[i], err = e.probe(progs[i], f.Path, func(tr *tracer.Trace) ([]criterion, error) {
			var cs []criterion
			for _, ref := range slice.LastReadsInRegion(tr, cyclicCriteria) {
				cs = append(cs, criterion{Pool: pool, Ref: ref})
			}
			return cs, nil
		})
		if err != nil {
			return nil, err
		}
	}

	var fx []fixture
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if fx, err = recordFixtures(filepath.Join(e.work, fmt.Sprintf("setup%d", rep)), cyclicKernels, cyclicRegion, cyclicSchedules); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := sameFixtures(pre, fx); err != nil {
		return nil, err
	}

	var first, next, retained, sessionMS []float64
	firstByKernel := map[int][]float64{}
	split := newOverheadSplit()
	var caches cacheCounters // summed over sessions; each starts from reset caches
	answers := 0
	order := []int{0, 1}
	if newRand(e.seed, 2).Intn(2) == 1 {
		order = []int{1, 0}
	}
	deadline := time.Now().Add(e.seconds)
	op := 0
	// Whole pairs only, so both kernels weigh equally in every run.
	for pair := 0; pair == 0 || time.Now().Before(deadline); pair++ {
		rec := e.opRec(pair, 1)
		for _, i := range order {
			f := fx[i]
			slice.ResetEngineCache()
			cfg.ResetGraphCache()
			runtime.GC() // a fresh process starts with an empty heap
			op++
			s := cyclicSession(res, rec, e.nproc, progs[i], f, refs[i], int64(op))
			if s.first > 0 {
				first = append(first, s.first)
				firstByKernel[i] = append(firstByKernel[i], s.first)
				split.add(rec != nil, i, s.first)
			}
			next = append(next, s.next...)
			answers += s.correct
			sessionMS = append(sessionMS, s.totalMS)
			retained = append(retained, s.retainedMB)
			caches = caches.plus(snapshotCaches())
		}
	}

	res.E2E.set("setup_s", "s", med(setups), len(setups))
	lat, n := classMedian(firstByKernel)
	res.E2E.set("latency_ms", "ms", lat, n)
	res.E2E.set("ops_per_s", "1/s", float64(answers)/(sum(sessionMS)/1000), answers)
	res.E2E.set("retained_mb", "MB", med(retained), len(retained))
	res.E2E.set("pinball_kb", "KB", meanKB(fx), len(fx))
	res.Extra.set("first_slice_s", "s", med(first)/1000, len(first))
	res.latency("next_slice", next)
	if e.traced {
		res.Layers.set("core.first_slice_ms", "ms", med(first), len(first))
		res.Layers.set("core.next_slice_ms", "ms", med(next), len(next))
		caches.report(res)
		split.report(res)
	}
	return res, nil
}

// sessionStats is one cyclic session's account.
type sessionStats struct {
	first      float64   // ms from pinball file to the first answer (0 if none)
	next       []float64 // ms per later answer
	totalMS    float64
	correct    int
	retainedMB float64 // live heap with the session open
}

// cyclicSession runs one fresh session and checks every answer against
// the reference.
func cyclicSession(res *result, rec *Recorder, nproc int, prog *isa.Program, f fixture, ref []criterion, req int64) sessionStats {
	var s sessionStats
	res.Attempted += len(ref)
	root, endRoot := rec.Start("bench.op", 0, req)
	t0 := time.Now()
	span := func(name string) func() {
		_, end := rec.Start(name, root, req)
		return end
	}
	failAll := func(err error) sessionStats {
		endRoot()
		res.failN(len(ref), "%s session: %v", f.Kernel, err)
		return s
	}

	end := span("pinball.load")
	pb, err := pinball.Load(f.Path)
	end()
	if err != nil {
		return failAll(err)
	}
	sess := core.Open(prog, pb)
	sess.SetParallelWorkers(nproc)
	end = span("core.trace")
	tr, err := sess.Trace()
	end()
	if err != nil {
		return failAll(err)
	}
	end = span("slice.criteria")
	crits := slice.LastReadsInRegion(tr, cyclicCriteria)
	end()
	end = span("slice.build")
	_, err = sess.ParallelSlicer()
	end()
	if err != nil {
		return failAll(err)
	}
	last := t0
	for i, want := range ref {
		if i >= len(crits) {
			res.fail("%s: session found %d criteria, reference %d", f.Kernel, len(crits), len(ref))
			continue
		}
		end := span("slice.query")
		sl, err := sess.SliceFor(crits[i])
		end()
		now := time.Now()
		lat := float64(now.Sub(last).Nanoseconds()) / 1e6
		last = now
		if i == 0 {
			s.first = lat
		} else {
			s.next = append(s.next, lat)
		}
		switch {
		case err != nil:
			res.fail("%s criterion %d: %v", f.Kernel, i, err)
		case crits[i] != want.Ref:
			res.Incorrect++
			res.fail("%s criterion %d is %+v, reference %+v", f.Kernel, i, crits[i], want.Ref)
		default:
			if err := checkSlice(sliceDigest(sl), want); err != nil {
				res.Incorrect++
				res.fail("%s: %v", f.Kernel, err)
				continue
			}
			s.correct++
		}
	}
	s.totalMS = msSince(t0)
	endRoot()
	s.retainedMB = retainedMB()
	runtime.KeepAlive(sess)
	return s
}

// sameFixtures checks that set-up recorded the same executions the
// references were computed from.
func sameFixtures(want, got []fixture) error {
	for i := range want {
		if want[i].ID != got[i].ID {
			return fmt.Errorf("recording %s is not deterministic: %s then %s", want[i].Kernel, want[i].ID, got[i].ID)
		}
	}
	return nil
}

func meanKB(fx []fixture) float64 {
	var total int64
	for _, f := range fx {
		total += f.Size
	}
	return float64(total) / float64(len(fx)) / 1024
}
