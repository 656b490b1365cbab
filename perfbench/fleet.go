package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cfg"
	"repro/internal/fleet"
	"repro/internal/isa"
	"repro/internal/pinplay"
	"repro/internal/sessiond"
	"repro/internal/slice"
	"repro/internal/store"
	"repro/internal/tracer"
)

const (
	// fleetRegion keeps every hop's session (load, replay, collect)
	// short enough that a run completes a hundred or more chains.
	fleetRegion int64 = 20_000
	fleetCrits        = 8
	// fleetShardWindows is the coordinator's default hop size.
	fleetShardWindows = 4
	// fleetMaxHops bounds the chains: criteria lie in the first
	// fleetMaxHops hops' worth of the global trace, so chains run from
	// one hop to fleetMaxHops.
	fleetMaxHops = 8
)

// fleetKernels is the pool the fleet serves.
var fleetKernels = []string{"x264", "streamcluster", "vips", "dedup"}

// fleetSchedules fixes the recorded schedules: over a 20k-instruction
// main-thread region the other threads' share swings the traced work
// by +-30% between schedules, which four pinballs do not average out.
// --seed draws the criteria and the request streams.
const fleetSchedules int64 = 1

func fleetPick(r *rand.Rand, i int, prog *isa.Program, tr *tracer.Trace) ([]criterion, error) {
	maxPos := fleetMaxHops * fleetShardWindows * pinplay.WindowSize(nil)
	return lineCriteria(r, prog, tr, i, fleetCrits, maxPos)
}

// fleetRig is an in-process coordinator with two sessiond.Server +
// fleet.Agent workers on loopback.
type fleetRig struct {
	co      *fleet.Coordinator
	addr    string
	coDone  chan error
	workers []*fleetWorker
}

type fleetWorker struct {
	srv     *sessiond.Server
	served  chan error
	cancel  context.CancelFunc
	stopped chan error
}

// startFleet is the fleet workload's set-up: record the pool, start the
// coordinator and two workers, put the pool through the coordinator
// (which replicates it to both workers' stores) and warm it.
func (e *env) startFleet(dir string, p *pool) (*fleetRig, error) {
	slice.ResetEngineCache()
	cfg.ResetGraphCache()
	fx, err := p.record(filepath.Join(dir, "pool"))
	if err != nil {
		return nil, err
	}
	lis, err := listen()
	if err != nil {
		return nil, err
	}
	rig := &fleetRig{
		co:     fleet.NewCoordinator(fleet.Config{ShardWindows: fleetShardWindows}),
		addr:   lis.Addr().String(),
		coDone: make(chan error, 1),
	}
	go func() { rig.coDone <- rig.co.Serve(lis) }()
	for w := 0; w < 2; w++ {
		if err := rig.addWorker(filepath.Join(dir, fmt.Sprintf("w%d", w)), fmt.Sprintf("w%d", w)); err != nil {
			rig.stop()
			return nil, err
		}
	}
	if err := rig.awaitWorkers(2); err != nil {
		rig.stop()
		return nil, err
	}
	if err := rig.putPool(e, fx); err != nil {
		rig.stop()
		return nil, err
	}
	p.fx = fx
	if err := p.warm(rig.addr, e.nproc); err != nil {
		rig.stop()
		return nil, err
	}
	return rig, nil
}

func (rig *fleetRig) addWorker(dir, name string) error {
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	lis, err := listen()
	if err != nil {
		return err
	}
	w := &fleetWorker{srv: sessiond.New(serverConfig(st)), served: make(chan error, 1), stopped: make(chan error, 1)}
	go func() { w.served <- w.srv.Serve(lis) }()
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	agent := fleet.NewAgent(w.srv, fleet.AgentConfig{
		Coordinator: rig.addr,
		Name:        name,
		Addr:        lis.Addr().String(),
		Capacity:    4,
	})
	go func() { w.stopped <- agent.Run(ctx) }()
	rig.workers = append(rig.workers, w)
	return nil
}

func (rig *fleetRig) awaitWorkers(n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for len(rig.co.Registry().Alive()) < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d fleet workers registered", len(rig.co.Registry().Alive()), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// putPool uploads every pool pinball through the coordinator.
func (rig *fleetRig) putPool(e *env, fx []fixture) error {
	cl, err := sessiond.Dial(rig.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	for _, f := range fx {
		blob, err := os.ReadFile(f.Path)
		if err != nil {
			return err
		}
		_, end := e.rec.Start("store.put", 0, 0)
		resp, err := cl.Do(&sessiond.Request{Op: sessiond.OpStorePut, Proto: sessiond.ProtoCurrent,
			Blob: blob, StoreProgram: f.Kernel, StoreKind: "bench"})
		end()
		if err != nil {
			return err
		}
		var pr sessiond.StorePutResult
		if !resp.OK || json.Unmarshal(resp.Result, &pr) != nil || pr.Digest != f.Digest || len(pr.Replicas) != len(rig.workers) {
			return fmt.Errorf("store put of %s through the coordinator: %s %s (%+v)", f.Kernel, resp.Code, resp.Error, pr)
		}
	}
	return nil
}

// stop ends the agents, drains the workers and then the coordinator,
// and waits for every server and agent goroutine to return.
func (rig *fleetRig) stop() {
	for _, w := range rig.workers {
		w.cancel()
		<-w.stopped
	}
	for _, w := range rig.workers {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		_ = w.srv.Shutdown(ctx) // a drain past the deadline still closes the listener
		cancel()
		<-w.served
	}
	_ = rig.co.Shutdown(20 * time.Second)
	<-rig.coDone
}

// fleetCounters sums the workers' completed and rejected session counts
// and reads the coordinator's re-dispatch count.
func (rig *fleetRig) counters() (completed, rejected, redispatched int64, err error) {
	for _, w := range rig.workers {
		st, err := serverStats(w.srv)
		if err != nil {
			return 0, 0, 0, err
		}
		completed += st.Completed
		rejected += st.Rejected
	}
	cl, err := sessiond.Dial(rig.addr)
	if err != nil {
		return 0, 0, 0, err
	}
	defer cl.Close()
	resp, err := cl.Do(&sessiond.Request{Op: sessiond.OpStats})
	if err != nil {
		return 0, 0, 0, err
	}
	var cs sessiond.StatsResult
	if err := json.Unmarshal(resp.Result, &cs); err != nil {
		return 0, 0, 0, err
	}
	// The coordinator reports re-dispatches in its Rejected field.
	return completed, rejected, cs.Rejected, nil
}

// runFleet is a coordinator and two workers serving the same kind of
// digest slice requests as the daemon workload; with two live workers
// every slice runs as a chain of slice_shard hops.
func runFleet(e *env) (*result, error) {
	res := newResult()
	p, err := e.buildPool(fleetKernels, fleetRegion, fleetSchedules, fleetPick)
	if err != nil {
		return nil, err
	}
	var rig *fleetRig
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if rig != nil {
			rig.stop()
		}
		t0 := time.Now()
		if rig, err = e.startFleet(filepath.Join(e.work, fmt.Sprintf("setup%d", rep)), p); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer rig.stop()
	if e.traced {
		if err := e.measureCalls(p); err != nil {
			return nil, err
		}
	}

	hops0, rej0, redis0, err := rig.counters()
	if err != nil {
		return nil, err
	}
	caches := snapshotCaches()
	stopQ := e.sampleQueued(rig.workers[0].srv, rig.workers[1].srv)
	// Every hop runs on the parallel engine, whatever Workers asks for.
	ls, err := e.runClients(res, rig.addr, p, "fleet.request", func(c criterion, _ int) float64 {
		return p.inProcessMS(c, e.nproc)
	})
	meanQueued := stopQ()
	if err != nil {
		return nil, err
	}
	hops1, rej1, redis1, err := rig.counters()
	if err != nil {
		return nil, err
	}
	res.Rejected = int(rej1 - rej0)

	ls.report(res, e, p, setups)
	res.E2E.set("retained_mb", "MB", retainedMB(), 0)
	hopsPerSlice := ratio(float64(hops1-hops0), float64(ls.correct))
	res.Extra.set("hops_per_slice", "count", hopsPerSlice, ls.correct)
	if e.traced {
		snapshotCaches().minus(caches).report(res)
		res.Layers.set("fleet.hops_per_slice", "count", hopsPerSlice, ls.correct)
		// What a chain adds per hop over answering the same slice in one
		// in-process session.
		res.Layers.set("fleet.hop_ms", "ms", ratio(ratio(sum(ls.excessMS), float64(len(ls.excessMS))), hopsPerSlice), len(ls.excessMS))
		res.Layers.set("fleet.redispatched", "count", float64(redis1-redis0), 0)
		res.Layers.set("sessiond.queued", "count", meanQueued, 0)
		res.Layers.set("sessiond.rejected", "count", float64(res.Rejected), 0)
	}
	return res, nil
}
