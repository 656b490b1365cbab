package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/store"
)

const (
	// captureRegion is the main-thread length of every recording.
	captureRegion int64 = 300_000
	// captureReplayEvery samples the read-back replay check: every
	// captureReplayEvery-th operation's bytes are decoded and replayed.
	captureReplayEvery = 8
)

// captureKernels rotate, one per operation.
var captureKernels = []string{"blackscholes", "swaptions", "canneal", "dedup", "ammp", "wupwise"}

// captureOp is one operation's outcome.
type captureOp struct {
	ms     float64
	size   int64
	put    *store.PutResult
	instrs int64
}

// runCapture is one client recording pinballs of a rotating kernel set
// under varying seeds: pinplay.Log, durable Pinball.Save, store.Put,
// then store.Get and a read-back check. Each run starts from an empty
// store.
func runCapture(e *env) (*result, error) {
	res := newResult()
	var st *store.Store
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		dir := filepath.Join(e.work, fmt.Sprintf("setup%d", rep))
		var err error
		if st, err = startCapture(e, dir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	seeds := newRand(e.seed, 200)
	var lat []float64
	split := newOverheadSplit()
	byKernel := map[int][]float64{}
	var puts []*store.PutResult
	var bytes int64
	correct := 0
	opsDir := filepath.Join(e.work, "ops")
	if err := os.MkdirAll(opsDir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(e.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		kernel := captureKernels[i%len(captureKernels)]
		recSeed := 1 + seeds.Int63n(1<<30)
		rec := e.opRec(i, len(captureKernels))
		res.Attempted++
		op, err := captureOnce(e, rec, int64(i+1), st, opsDir, kernel, recSeed, i%captureReplayEvery == 0)
		if err != nil {
			res.fail("%s seed %d: %v", kernel, recSeed, err)
			continue
		}
		correct++
		lat = append(lat, op.ms)
		byKernel[i%len(captureKernels)] = append(byKernel[i%len(captureKernels)], op.ms)
		puts = append(puts, op.put)
		bytes += op.size
		split.add(rec != nil, i%len(captureKernels), op.ms)
	}
	wall := time.Since(start)

	res.E2E.set("setup_s", "s", med(setups), len(setups))
	latency, n := classMedian(byKernel)
	res.E2E.set("latency_ms", "ms", latency, n)
	res.E2E.set("ops_per_s", "1/s", float64(correct)/wall.Seconds(), correct)
	res.E2E.set("retained_mb", "MB", retainedMB(), 0)
	res.E2E.set("pinball_kb", "KB", ratio(float64(bytes), float64(len(lat)))/1024, len(lat))
	res.latency("record", lat)
	if e.traced {
		split.report(res)
		storeLayers(res, st.Root(), puts)
	}
	return res, nil
}

// startCapture is the capture workload's set-up: an empty store, and
// one full operation per kernel into a throw-away store so compilation
// and first-use costs are paid before timing.
func startCapture(e *env, dir string) (*store.Store, error) {
	warm, err := store.Open(filepath.Join(dir, "warm"))
	if err != nil {
		return nil, err
	}
	for i, k := range captureKernels {
		if _, err := captureOnce(e, nil, 0, warm, dir, k, int64(i+1), false); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return store.Open(filepath.Join(dir, "store"))
}

// captureOnce records, saves, puts and reads back one pinball, checking
// the read-back; replay also decodes and replays the read-back bytes.
// Only the four pipeline steps are timed.
func captureOnce(e *env, rec *Recorder, req int64, st *store.Store, dir, kernel string, recSeed int64, replay bool) (*captureOp, error) {
	root, endRoot := rec.Start("bench.op", 0, req)
	span := func(name string) func() {
		_, end := rec.Start(name, root, req)
		return end
	}
	t0 := time.Now()
	end := span("pinplay.record")
	prog, pb, err := recordRegion(kernel, captureRegion, recSeed)
	end()
	if err != nil {
		endRoot()
		return nil, err
	}
	recordMS := msSince(t0)
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.pinball", kernel, recSeed))
	end = span("pinball.save")
	err = pb.Save(path)
	end()
	if err != nil {
		endRoot()
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		endRoot()
		return nil, err
	}
	end = span("store.put")
	pr, err := st.Put(data, store.PutMeta{Program: kernel, Kind: "capture"})
	end()
	if err != nil {
		endRoot()
		return nil, err
	}
	end = span("store.get")
	got, err := st.Get(pr.Digest)
	end()
	op := &captureOp{ms: msSince(t0), size: int64(len(data)), put: pr, instrs: pb.TotalQuantumInstrs()}
	endRoot()
	if err != nil {
		return nil, err
	}
	if err := os.Remove(path); err != nil {
		return nil, err
	}
	if err := checkReadBack(got, pr.Digest, data); err != nil {
		return nil, err
	}
	if rec != nil {
		e.layerSample("vm.instrs_per_s", float64(op.instrs)/(recordMS/1000))
		_, end := rec.Start("pinball.encode", 0, 0)
		_, err := pb.EncodeBytes()
		end()
		if err != nil {
			return nil, err
		}
	}
	if replay {
		back, err := pinball.Decode(got)
		if err != nil {
			return nil, fmt.Errorf("decode read-back: %w", err)
		}
		_, end := rec.Start("pinplay.replay", 0, 0)
		_, err = pinplay.Replay(prog, back, nil)
		end()
		if err != nil {
			return nil, fmt.Errorf("replay read-back: %w", err)
		}
	}
	return op, nil
}
