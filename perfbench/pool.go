package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/sessiond"
	"repro/internal/slice"
	"repro/internal/tracer"
)

// pool is the set of pinballs a server workload serves, with the
// criteria table its clients draw from and the in-process reference
// answers, all computed before set-up is timed. Set-up records the pool
// again (see record) and replaces fx with what it stored.
type pool struct {
	kernels   []string
	region    int64
	schedules int64 // the seed the recorded schedules derive from
	fx        []fixture
	progs     []*isa.Program
	crits     [][]criterion // per pool pinball
	table     []criterion   // every criterion, the clients' draw
	cost      []callCost    // per pool pinball, measured by traced runs
}

// pickFunc chooses the criteria of pool pinball i from its trace.
type pickFunc func(r *rand.Rand, i int, prog *isa.Program, tr *tracer.Trace) ([]criterion, error)

// buildPool records the pool once with schedules drawn from
// scheduleSeed, builds the criteria table from each trace with the
// run's seed, and computes the reference slices.
func (e *env) buildPool(kernels []string, region, scheduleSeed int64, pick pickFunc) (*pool, error) {
	fx, err := recordFixtures(filepath.Join(e.work, "pre"), kernels, region, scheduleSeed)
	if err != nil {
		return nil, err
	}
	p := &pool{kernels: kernels, region: region, schedules: scheduleSeed, fx: fx, progs: make([]*isa.Program, len(fx)), crits: make([][]criterion, len(fx))}
	for i, f := range fx {
		if p.progs[i], err = program(f.Kernel); err != nil {
			return nil, err
		}
		r := newRand(e.seed, 10+int64(i))
		prog := p.progs[i]
		p.crits[i], err = e.probe(prog, f.Path, func(tr *tracer.Trace) ([]criterion, error) {
			return pick(r, i, prog, tr)
		})
		if err != nil {
			return nil, err
		}
		for k := range p.crits[i] {
			p.crits[i][k].K = k
		}
		p.table = append(p.table, p.crits[i]...)
	}
	return p, nil
}

// callCost is what one pool pinball's public call sequence costs
// in-process, in ms: the sequence the server's slice runner makes for
// a request.
type callCost struct {
	Load, Trace, SeqBuild float64
	SeqQuery, ParQuery    []float64
}

// callReps is how many times a traced run times each pool pinball's
// call sequence; the per-call medians absorb a garbage collection that
// lands in one of them.
const callReps = 3

// measureCalls times, with the server set up and its caches warm, each
// pool pinball's call sequence in-process the way the server runs a
// request: pinball.Load, core.Open, Session.Trace, then slice.New and
// Slice (Workers=0) or the cached parallel engine and Slice
// (Workers=nproc). Every answer is checked against the reference.
func (e *env) measureCalls(p *pool) error {
	p.cost = make([]callCost, len(p.fx))
	for i := range p.fx {
		reps := make([]callCost, callReps)
		for r := range reps {
			var err error
			if reps[r], err = e.callSequence(p, i); err != nil {
				return err
			}
		}
		at := func(get func(callCost) float64) float64 {
			xs := make([]float64, len(reps))
			for r, c := range reps {
				xs[r] = get(c)
			}
			return med(xs)
		}
		c := callCost{
			Load:     at(func(c callCost) float64 { return c.Load }),
			Trace:    at(func(c callCost) float64 { return c.Trace }),
			SeqBuild: at(func(c callCost) float64 { return c.SeqBuild }),
		}
		for k := range p.crits[i] {
			c.SeqQuery = append(c.SeqQuery, at(func(c callCost) float64 { return c.SeqQuery[k] }))
			c.ParQuery = append(c.ParQuery, at(func(c callCost) float64 { return c.ParQuery[k] }))
		}
		p.cost[i] = c
	}
	return nil
}

// callSequence times pool pinball i's call sequence once.
func (e *env) callSequence(p *pool, i int) (callCost, error) {
	c := callCost{SeqQuery: make([]float64, len(p.crits[i])), ParQuery: make([]float64, len(p.crits[i]))}
	end := e.timed("pinball.load", &c.Load)
	pb, err := pinball.Load(p.fx[i].Path)
	end()
	if err != nil {
		return c, err
	}
	sess := core.Open(p.progs[i], pb)
	end = e.timed("core.trace", &c.Trace)
	tr, err := sess.Trace()
	end()
	if err != nil {
		return c, err
	}
	end = e.timed("slice.seq_build", &c.SeqBuild)
	seq, err := slice.New(p.progs[i], tr, slice.DefaultOptions())
	end()
	if err != nil {
		return c, err
	}
	sess.SetParallelWorkers(e.nproc)
	par, err := sess.ParallelSlicer()
	if err != nil {
		return c, err
	}
	for k, crit := range p.crits[i] {
		for _, q := range []struct {
			name string
			eng  slice.Querier
			dst  *float64
		}{{"slice.seq_query", seq, &c.SeqQuery[k]}, {"slice.query", par, &c.ParQuery[k]}} {
			end := e.timed(q.name, q.dst)
			sl, err := q.eng.Slice(crit.Ref)
			end()
			if err != nil {
				return c, err
			}
			if err := checkSlice(sliceDigest(sl), crit); err != nil {
				return c, err
			}
		}
	}
	return c, nil
}

// record is set-up's recording of the pool into dir: the same
// executions the references were computed from.
func (p *pool) record(dir string) ([]fixture, error) {
	fx, err := recordFixtures(dir, p.kernels, p.region, p.schedules)
	if err != nil {
		return nil, err
	}
	return fx, sameFixtures(p.fx, fx)
}

// request builds the wire request for a table entry.
func (p *pool) request(c criterion, workers int) *sessiond.Request {
	return &sessiond.Request{
		Op:       sessiond.OpSlice,
		Proto:    sessiond.ProtoCurrent,
		Workload: p.fx[c.Pool].Kernel,
		Digest:   p.fx[c.Pool].Digest,
		Var:      c.Var,
		Tid:      c.Tid,
		Line:     c.Line,
		Nth:      c.Nth,
		Workers:  workers,
	}
}

// inProcessMS is what a request's layer calls cost in-process (see
// measureCalls).
func (p *pool) inProcessMS(c criterion, workers int) float64 {
	cc := p.cost[c.Pool]
	t := cc.Load + cc.Trace
	if workers == 0 {
		return t + cc.SeqBuild + cc.SeqQuery[c.K]
	}
	return t + cc.ParQuery[c.K]
}

// errIncorrect marks an answer that disagreed with the reference.
var errIncorrect = errors.New("incorrect answer")

// do sends one slice request and checks the answer against the
// reference.
func (p *pool) do(cl *sessiond.Client, c criterion, workers int) error {
	resp, err := cl.Do(p.request(c, workers))
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("%s: %s", resp.Code, resp.Error)
	}
	var sr sessiond.SliceResult
	if err := json.Unmarshal(resp.Result, &sr); err != nil {
		return err
	}
	if err := checkSlice(sr.Digest, c); err != nil {
		return fmt.Errorf("%w: %v", errIncorrect, err)
	}
	return nil
}

// warm sends one parallel-engine request per pool pinball, so the
// engine, CFG and spool caches hold the pool before timing starts.
func (p *pool) warm(addr string, nproc int) error {
	cl, err := sessiond.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	for i := range p.fx {
		if err := p.do(cl, p.crits[i][0], nproc); err != nil {
			return fmt.Errorf("warm-up of %s: %w", p.fx[i].Kernel, err)
		}
	}
	return nil
}

// loopStats is what the clients of a server workload observed.
type loopStats struct {
	mu        sync.Mutex // also guards the result the clients account into
	lat       []float64  // ms of every correct answer
	byWorkers map[int][]float64
	// split parts a traced run's latencies by (criterion, engine), and
	// excessMS is each traced answer's latency minus its in-process
	// layer cost.
	split    *overheadSplit
	excessMS []float64
	correct  int
	wall     time.Duration
}

// runClients drives nproc closed-loop clients against addr until the
// run's time is up, checking every answer. rootSpan names the span a
// traced request is recorded under, and inProcess gives what the
// request's layer calls cost in-process.
func (e *env) runClients(res *result, addr string, p *pool, rootSpan string, inProcess func(criterion, int) float64) (*loopStats, error) {
	ls := &loopStats{byWorkers: map[int][]float64{}, split: newOverheadSplit()}
	clients := make([]*sessiond.Client, e.nproc)
	for c := range clients {
		cl, err := sessiond.Dial(addr)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		clients[c] = cl
	}
	var reqSeq atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(e.seconds)
	for c, cl := range clients {
		wg.Add(1)
		go func(c int, cl *sessiond.Client) {
			defer wg.Done()
			stream := requestStream(e.seed, c, streamLen, len(p.table), e.nproc)
			for i := 0; time.Now().Before(deadline); i++ {
				rq := stream[i%len(stream)]
				crit := p.table[rq.Crit]
				rec := e.opRec(i, 1)
				id := reqSeq.Add(1)
				_, end := rec.Start(rootSpan, 0, id)
				t0 := time.Now()
				err := p.do(cl, crit, rq.Workers)
				lat := msSince(t0)
				end()
				ls.mu.Lock()
				res.Attempted++
				switch {
				case errors.Is(err, errIncorrect):
					res.Incorrect++
					res.fail("%v", err)
				case err != nil:
					res.fail("request %+v: %v", crit.Ref, err)
				}
				if err != nil {
					ls.mu.Unlock()
					continue
				}
				ls.correct++
				ls.lat = append(ls.lat, lat)
				ls.byWorkers[rq.Workers] = append(ls.byWorkers[rq.Workers], lat)
				ls.split.add(rec != nil, 2*rq.Crit+min(rq.Workers, 1), lat)
				if rec != nil {
					ls.excessMS = append(ls.excessMS, lat-inProcess(crit, rq.Workers))
				}
				ls.mu.Unlock()
			}
		}(c, cl)
	}
	wg.Wait()
	ls.wall = time.Since(start)
	return ls, nil
}

// streamLen is how many requests each client's stream holds before it
// repeats; far more than a run sends.
const streamLen = 1 << 14

// report sets the metrics every server workload shares.
func (ls *loopStats) report(res *result, e *env, p *pool, setups []float64) {
	res.E2E.set("setup_s", "s", med(setups), len(setups))
	lat, n := classMedian(ls.byWorkers)
	res.E2E.set("latency_ms", "ms", lat, n)
	res.E2E.set("ops_per_s", "1/s", float64(ls.correct)/ls.wall.Seconds(), ls.correct)
	res.E2E.set("pinball_kb", "KB", meanKB(p.fx), len(p.fx))
	res.latency("slice", ls.lat)
	res.Extra.set("slices_per_s", "1/s", float64(ls.correct)/ls.wall.Seconds(), ls.correct)
	res.latency("slice_workers0", ls.byWorkers[0])
	res.latency("slice_workersN", ls.byWorkers[e.nproc])
	if e.traced {
		ls.split.report(res)
	}
}

// retainedMB is the live heap after two collections (the second frees
// what sync.Pools held through the first).
func retainedMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cacheCounters are the engine and CFG cache counters.
type cacheCounters struct{ engHits, engLookups, cfgHits, cfgLookups int64 }

func snapshotCaches() cacheCounters {
	es, cs := slice.GetEngineCacheStats(), cfg.GraphCacheStats()
	return cacheCounters{es.Hits, es.Hits + es.Misses, cs.Hits, cs.Hits + cs.Misses}
}

func (c cacheCounters) plus(o cacheCounters) cacheCounters {
	return cacheCounters{c.engHits + o.engHits, c.engLookups + o.engLookups, c.cfgHits + o.cfgHits, c.cfgLookups + o.cfgLookups}
}

func (c cacheCounters) minus(o cacheCounters) cacheCounters {
	return cacheCounters{c.engHits - o.engHits, c.engLookups - o.engLookups, c.cfgHits - o.cfgHits, c.cfgLookups - o.cfgLookups}
}

// report sets the cache hit ratios.
func (c cacheCounters) report(res *result) {
	res.Layers.set("slice.engine_hit_ratio", "ratio", ratio(float64(c.engHits), float64(c.engLookups)), int(c.engLookups))
	res.Layers.set("cfg.hit_ratio", "ratio", ratio(float64(c.cfgHits), float64(c.cfgLookups)), int(c.cfgLookups))
}

// serverStats asks an in-process server for its stats op.
func serverStats(srv *sessiond.Server) (sessiond.StatsResult, error) {
	var st sessiond.StatsResult
	resp := srv.Execute(&sessiond.Request{Op: sessiond.OpStats}, "perfbench")
	if !resp.OK {
		return st, fmt.Errorf("stats: %s", resp.Error)
	}
	return st, json.Unmarshal(resp.Result, &st)
}

// sampleQueued samples the servers' admission queue depth every few
// milliseconds in a traced run; the returned function stops sampling
// and returns the mean total depth. Untraced runs do not sample.
func (e *env) sampleQueued(servers ...*sessiond.Server) func() float64 {
	if !e.traced {
		return func() float64 { return 0 }
	}
	stop := make(chan struct{})
	mean := make(chan float64, 1)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var total, n float64
		for {
			select {
			case <-stop:
				mean <- ratio(total, n)
				return
			case <-tick.C:
				for _, s := range servers {
					_, q := s.Load()
					total += float64(q)
				}
				n++
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-mean
	}
}

// listen opens a loopback listener.
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// manifestRecords counts the records in a store's manifest (one per
// line after the header).
func manifestRecords(root string) float64 {
	data, err := os.ReadFile(filepath.Join(root, "manifest.db"))
	if err != nil {
		return 0
	}
	lines := 0
	for _, b := range data {
		if b == '\n' {
			lines++
		}
	}
	return float64(max(0, lines-1))
}
