package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/sessiond"
	"repro/internal/slice"
	"repro/internal/store"
	"repro/internal/supervisor"
	"repro/internal/tracer"
)

const (
	// daemonRegion is the main-thread length of each pool pinball.
	daemonRegion int64 = 100_000
	// Criteria per pool pinball: source-line instances anywhere in the
	// trace, and last reads of global variables (the region's end).
	daemonLineCrits = 6
	daemonVarCrits  = 2
)

// daemonKernels are six different PARSEC / SPEC OMP kernels: the pool
// a resident daemon keeps hot.
var daemonKernels = []string{"blackscholes", "swaptions", "fluidanimate", "canneal", "ammp", "mgrid"}

// daemonSchedules fixes the recorded schedules: the other threads'
// share of a 100k-instruction region, and with it the traced work, the
// pinball size and the cached engines' size, moves by about 10% with
// the schedule. --seed draws the criteria and the request streams.
const daemonSchedules int64 = 1

func daemonPick(r *rand.Rand, i int, prog *isa.Program, tr *tracer.Trace) ([]criterion, error) {
	cs, err := lineCriteria(r, prog, tr, i, daemonLineCrits, 0)
	if err != nil {
		return nil, err
	}
	return append(cs, varCriteria(r, prog, tr, i, daemonVarCrits)...), nil
}

// serverConfig is drserved's default robustness policy.
func serverConfig(st *store.Store) sessiond.Config {
	return sessiond.Config{
		Store:      st,
		Admission:  sessiond.AdmissionConfig{MaxSessions: 4, MaxQueue: 16},
		Breaker:    sessiond.BreakerConfig{K: 3, Cooldown: 30 * time.Second},
		Supervisor: supervisor.Options{MaxAttempts: 3, Backoff: 10 * time.Millisecond},
	}
}

// daemon is one in-process sessiond.Server on loopback with its store.
type daemon struct {
	st     *store.Store
	srv    *sessiond.Server
	addr   string
	served chan error
	puts   []*store.PutResult
}

// startDaemon is the daemon workload's set-up: record the pool, put it
// into a fresh store, start the server and warm it.
func (e *env) startDaemon(dir string, p *pool) (*daemon, error) {
	slice.ResetEngineCache()
	cfg.ResetGraphCache()
	fx, err := p.record(filepath.Join(dir, "pool"))
	if err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	d := &daemon{st: st}
	for _, f := range fx {
		data, err := os.ReadFile(f.Path)
		if err != nil {
			return nil, err
		}
		_, end := e.rec.Start("store.put", 0, 0)
		pr, err := st.Put(data, store.PutMeta{Program: f.Kernel, Kind: "bench"})
		end()
		if err != nil {
			return nil, err
		}
		if pr.Digest != f.Digest {
			return nil, fmt.Errorf("store put %s returned digest %s, want %s", f.Kernel, pr.Digest, f.Digest)
		}
		d.puts = append(d.puts, pr)
	}
	lis, err := listen()
	if err != nil {
		return nil, err
	}
	d.srv = sessiond.New(serverConfig(st))
	d.addr = lis.Addr().String()
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(lis) }()
	p.fx = fx
	if err := p.warm(d.addr, e.nproc); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the server and waits for Serve to return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // a drain past the deadline still closes the listener
	<-d.served
}

// runDaemon is a resident sessiond.Server with a warm pool of six
// 100k-region pinballs in its store, driven by nproc clients sending
// OpSlice by digest; half the requests use the CLI default Workers=0,
// half Workers=nproc.
func runDaemon(e *env) (*result, error) {
	res := newResult()
	p, err := e.buildPool(daemonKernels, daemonRegion, daemonSchedules, daemonPick)
	if err != nil {
		return nil, err
	}
	var d *daemon
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		if d, err = e.startDaemon(filepath.Join(e.work, fmt.Sprintf("setup%d", rep)), p); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.stop()

	if e.traced {
		if err := e.measureCalls(p); err != nil {
			return nil, err
		}
		for _, f := range p.fx {
			_, end := e.rec.Start("store.get", 0, 0)
			_, err := d.st.Get(f.Digest)
			end()
			if err != nil {
				return nil, err
			}
		}
	}
	before, err := serverStats(d.srv)
	if err != nil {
		return nil, err
	}
	caches := snapshotCaches()
	stopQ := e.sampleQueued(d.srv)
	ls, err := e.runClients(res, d.addr, p, "sessiond.request", p.inProcessMS)
	meanQueued := stopQ()
	if err != nil {
		return nil, err
	}
	after, err := serverStats(d.srv)
	if err != nil {
		return nil, err
	}
	res.Rejected = int(after.Rejected - before.Rejected)

	ls.report(res, e, p, setups)
	res.E2E.set("retained_mb", "MB", retainedMB(), 0)
	if e.traced {
		snapshotCaches().minus(caches).report(res)
		res.Layers.set("sessiond.overhead_ms", "ms", med(ls.excessMS), len(ls.excessMS))
		res.Layers.set("sessiond.queued", "count", meanQueued, 0)
		res.Layers.set("sessiond.rejected", "count", float64(res.Rejected), 0)
		storeLayers(res, d.st.Root(), d.puts)
	}
	return res, nil
}

// storeLayers sets the store's dedup ratio and manifest size.
func storeLayers(res *result, root string, puts []*store.PutResult) {
	var shared, size float64
	for _, pr := range puts {
		shared += float64(pr.SharedBytes)
		size += float64(pr.Size)
	}
	res.Layers.set("store.dedup_ratio", "ratio", ratio(shared, size), len(puts))
	res.Layers.set("store.manifest_records", "count", manifestRecords(root), 0)
}
