package slice

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cfg"
	"repro/internal/fnv1a"
	"repro/internal/isa"
	"repro/internal/tracer"
)

// Querier is the slice-computation interface shared by the sequential
// Slicer (the paper's algorithm and the test oracle) and the parallel
// engine, so benchmarks and differential tests can drive either one.
type Querier interface {
	Slice(crit tracer.Ref) (*Slice, error)
}

// ParallelOptions configures the parallel engine's build phase.
type ParallelOptions struct {
	// Workers bounds the worker pool used for the forward pass and the
	// dependence-shard build. <= 0 means GOMAXPROCS.
	Workers int
	// WindowSize is the global-trace entries per dependence shard.
	// Callers normally pass the pinball's checkpoint cadence (see
	// pinplay.TraceWindows); <= 0 falls back to tracer.DefaultLPBlock.
	WindowSize int
	// Ctx cancels the build cooperatively: the worker pools check it
	// between per-thread forward passes and between window shards, so an
	// aborted or preempted session stops burning workers promptly. Ctx
	// does not shape the built engine (it is excluded from the cache
	// fingerprint). nil means no cancellation.
	Ctx context.Context
}

// EngineStats reports the parallel engine's build/query accounting.
type EngineStats struct {
	Workers    int   // resolved worker count
	Shards     int   // dependence-shard windows built
	IndexDefs  int64 // definitions in the stitched index
	Queries    int64 // Slice calls answered so far
	IndexSteps int64 // demand-resolution events across all queries
}

// ParallelSlicer computes backward dynamic slices with the sharded
// engine: the forward pass (CFG refinement, control parents,
// save/restore verification) runs one thread per worker, the global
// trace is cut into checkpoint-cadence windows whose definition shards
// are built concurrently and stitched deterministically, and each query
// then resolves demands by binary search in the stitched index instead
// of re-walking the trace.
//
// The engine is bit-identical to the sequential Slicer by construction:
// a query simulates the exact backward sweep of Slicer.Slice — same
// demand set, same per-entry match selection, same save/restore
// bypasses, same exemplar-edge order — but visits only the positions
// where something can happen (the next pending definition or control
// parent), which the index serves in O(log n). Results therefore do
// not depend on the worker count, only the build cost does.
//
// A built engine is immutable and safe for concurrent Slice calls.
type ParallelSlicer struct {
	Prog  *isa.Program
	Trace *tracer.Trace
	Opts  Options

	analyzer *cfg.Analyzer
	fwd      *forward
	idx      *tracer.DefIndex
	// bypassAt flags the global positions of verified save/restore
	// entries; bypassRank and bypassInfos form its rank directory, so a
	// query reads an entry's bypass roles with popcount arithmetic
	// instead of probing the (large) forward-pass map.
	bypassAt    []uint64
	bypassRank  []int32
	bypassInfos []bypassInfo

	// Query scratches are pooled on an engine-owned free list rather
	// than a sync.Pool: the arrays are tens of megabytes and rebuilding
	// (and re-zeroing) them after every GC cycle costs more than the
	// retention. The list holds at most one scratch per concurrent
	// query, for the engine's lifetime.
	scratchMu sync.Mutex
	scratches []*queryScratch
	mkScratch func() *queryScratch
	// depsHint tracks the largest dependence-edge count any query has
	// produced, so later queries allocate their result once.
	depsHint atomic.Int64

	workers    int
	windowSize int
	queries    atomic.Int64
	indexSteps atomic.Int64
}

// wantedSet is the query's demand set: location -> demanding member.
// Locations inside the trace's dense LocSpace live in a direct-indexed
// table (a presence bitset plus a requester array — the hot path);
// out-of-space locations (untouched addresses) fall back to a map.
type wantedSet struct {
	space tracer.LocSpace
	bits  []uint64
	ref   []tracer.Ref
	over  map[tracer.Loc]tracer.Ref
}

// add records ref as l's requester and reports whether l was freshly
// demanded (not already wanted).
func (ws *wantedSet) add(l tracer.Loc, r tracer.Ref) bool {
	if i, ok := ws.space.Index(l); ok {
		w, b := i>>6, uint64(1)<<(i&63)
		fresh := ws.bits[w]&b == 0
		ws.bits[w] |= b
		ws.ref[i] = r
		return fresh
	}
	_, had := ws.over[l]
	ws.over[l] = r
	return !had
}

// get returns l's requester and whether l is wanted.
func (ws *wantedSet) get(l tracer.Loc) (tracer.Ref, bool) {
	if i, ok := ws.space.Index(l); ok {
		if ws.bits[i>>6]&(1<<(i&63)) == 0 {
			return tracer.Ref{}, false
		}
		return ws.ref[i], true
	}
	r, ok := ws.over[l]
	return r, ok
}

// has reports whether l is wanted.
func (ws *wantedSet) has(l tracer.Loc) bool {
	if i, ok := ws.space.Index(l); ok {
		return ws.bits[i>>6]&(1<<(i&63)) != 0
	}
	_, ok := ws.over[l]
	return ok
}

// del kills the demand on l.
func (ws *wantedSet) del(l tracer.Loc) {
	if i, ok := ws.space.Index(l); ok {
		ws.bits[i>>6] &^= 1 << (i & 63)
		return
	}
	delete(ws.over, l)
}

// queryScratch is the reusable allocation block of one Slice call:
// the demand set, the member bitset, the candidate heap and the drain
// buffer. Engines pool scratches so repeated queries (the cyclic
// debugging loop) allocate only their results.
type queryScratch struct {
	ws      wantedSet
	members []uint64
	events  []uint64
	h       candHeap
	batch   []tracer.Loc
}

// getScratch pops a pooled scratch or builds a fresh one.
func (s *ParallelSlicer) getScratch() *queryScratch {
	s.scratchMu.Lock()
	defer s.scratchMu.Unlock()
	if n := len(s.scratches); n > 0 {
		sc := s.scratches[n-1]
		s.scratches = s.scratches[:n-1]
		return sc
	}
	return s.mkScratch()
}

func (s *ParallelSlicer) putScratch(sc *queryScratch) {
	s.scratchMu.Lock()
	s.scratches = append(s.scratches, sc)
	s.scratchMu.Unlock()
}

// NewParallel builds the parallel engine: forward-pass metadata and the
// per-window dependence shards, computed on a bounded worker pool.
func NewParallel(prog *isa.Program, tr *tracer.Trace, opts Options, popts ParallelOptions) (*ParallelSlicer, error) {
	if opts.MaxSave == 0 {
		opts.MaxSave = 10
	}
	workers := popts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(tr.Global) == 0 && tr.Len() > 0 {
		if err := tr.BuildGlobal(); err != nil {
			return nil, err
		}
	}
	var an *cfg.Analyzer
	if opts.UseJumpTables {
		an = cfg.NewAnalyzerWithTables(prog)
	} else {
		an = cfg.NewAnalyzer(prog)
	}
	var cand *srCandidates
	if opts.PruneSaveRestore {
		cand = findSaveRestoreCandidates(prog, opts.MaxSave)
	}
	if err := buildCancelled(popts.Ctx); err != nil {
		return nil, err
	}
	fwd, err := runForwardParallel(popts.Ctx, tr, an, cand, !opts.DisableRefinement, workers)
	if err != nil {
		return nil, err
	}
	windowSize := popts.WindowSize
	if windowSize <= 0 {
		windowSize = tracer.DefaultLPBlock
	}
	windows := tracer.SplitWindows(len(tr.Global), windowSize)
	idx, err := tracer.BuildDefIndexCtx(popts.Ctx, tr, windows, workers)
	if err != nil {
		return nil, err
	}

	// Bypass rank directory: bitset over global positions plus the
	// per-word rank prefix into the position-ordered info array. Two
	// passes over the forward-pass map — set the bits, then place each
	// info at its rank — avoid sorting.
	bypassAt := make([]uint64, len(tr.Global)/64+1)
	for ref := range fwd.bypass {
		if g, ok := tr.GlobalPosOf(ref); ok {
			bypassAt[g>>6] |= 1 << (g & 63)
		}
	}
	bypassRank := make([]int32, len(bypassAt))
	rank := int32(0)
	for w, word := range bypassAt {
		bypassRank[w] = rank
		rank += int32(bits.OnesCount64(word))
	}
	bypassInfos := make([]bypassInfo, rank)
	for ref, bp := range fwd.bypass {
		if g, ok := tr.GlobalPosOf(ref); ok {
			w, b := g>>6, uint(g&63)
			bypassInfos[int(bypassRank[w])+bits.OnesCount64(bypassAt[w]&(1<<b-1))] = bp
		}
	}

	s := &ParallelSlicer{
		Prog:        prog,
		Trace:       tr,
		Opts:        opts,
		analyzer:    an,
		fwd:         fwd,
		idx:         idx,
		bypassAt:    bypassAt,
		bypassRank:  bypassRank,
		bypassInfos: bypassInfos,
		workers:     workers,
		windowSize:  windowSize,
	}
	space := idx.Space()
	nGlobal := len(tr.Global)
	s.mkScratch = func() *queryScratch {
		return &queryScratch{
			ws: wantedSet{
				space: space,
				bits:  make([]uint64, space.Total()/64+1),
				ref:   make([]tracer.Ref, space.Total()),
				over:  make(map[tracer.Loc]tracer.Ref),
			},
			members: make([]uint64, nGlobal/64+1),
			events:  make([]uint64, nGlobal/64+1),
			batch:   make([]tracer.Loc, 0, 16),
		}
	}
	return s, nil
}

// bypassAtPos returns the bypass roles of the entry at global position g
// via the rank directory; ok is false for non-bypass positions.
func (s *ParallelSlicer) bypassAtPos(g int) (bypassInfo, bool) {
	w, b := g>>6, uint(g&63)
	word := s.bypassAt[w]
	if word&(1<<b) == 0 {
		return bypassInfo{}, false
	}
	i := int(s.bypassRank[w]) + bits.OnesCount64(word&(1<<b-1))
	return s.bypassInfos[i], true
}

// Stats returns the engine's accounting counters.
func (s *ParallelSlicer) Stats() EngineStats {
	return EngineStats{
		Workers:    s.workers,
		Shards:     s.idx.Shards,
		IndexDefs:  s.idx.DefCount(),
		Queries:    s.queries.Load(),
		IndexSteps: s.indexSteps.Load(),
	}
}

// buildCancelled reports a (possibly nil) build context's cancellation
// as an error. Cancellation is polled via Err() only — never a Done()
// select — so tests can drive it with deterministic counting contexts.
func buildCancelled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// runForwardParallel is runForward with both phases fanned out over the
// worker pool. Phase 1 (indirect-target observation) is a set union, so
// the refinement count and the refined CFGs are independent of worker
// interleaving; phase 2 runs each thread's Xin-Zhang stack — threads
// are mutually independent — and merges per-thread results in thread-id
// order. A cancelled ctx stops the pools between per-thread jobs and
// fails the build with ctx's error.
func runForwardParallel(ctx context.Context, tr *tracer.Trace, an *cfg.Analyzer, cand *srCandidates, refine bool, workers int) (*forward, error) {
	tids := make([]int, 0, len(tr.Locals))
	for tid := range tr.Locals {
		tids = append(tids, tid)
	}
	sort.Ints(tids)

	runPool := func(job func(tid int)) {
		n := workers
		if n > len(tids) {
			n = len(tids)
		}
		if n <= 1 {
			for _, tid := range tids {
				if buildCancelled(ctx) != nil {
					return
				}
				job(tid)
			}
			return
		}
		next := make(chan int, len(tids))
		for _, tid := range tids {
			next <- tid
		}
		close(next)
		var wg sync.WaitGroup
		for k := 0; k < n; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for tid := range next {
					if buildCancelled(ctx) != nil {
						continue // drain the queue without working
					}
					job(tid)
				}
			}()
		}
		wg.Wait()
	}

	var refs atomic.Int64
	if refine {
		runPool(func(tid int) {
			refs.Add(observeIndirects(an, tr.Locals[tid]))
		})
	}
	if err := buildCancelled(ctx); err != nil {
		return nil, err
	}

	results := make(map[int]threadForward, len(tids))
	errs := make(map[int]error, len(tids))
	var mu sync.Mutex
	runPool(func(tid int) {
		res, err := forwardThread(tr, an, cand, tid, tr.Locals[tid])
		mu.Lock()
		results[tid] = res
		errs[tid] = err
		mu.Unlock()
	})
	if err := buildCancelled(ctx); err != nil {
		return nil, err
	}

	f := &forward{
		parent:         make(map[int][]tracer.Ref, len(tids)),
		bypass:         make(map[tracer.Ref]bypassInfo),
		cfgRefinements: refs.Load(),
	}
	for _, tid := range tids {
		if err := errs[tid]; err != nil {
			return nil, err
		}
		res := results[tid]
		f.parent[tid] = res.parents
		for ref, bp := range res.bypass {
			f.bypass[ref] = bp
		}
		f.pairs += res.pairs
	}
	return f, nil
}

// demandCand is one pending resolution event of a query: either "the
// next definition of loc is at pos" or "the control parent awaited at
// pos" (event). Stale entries are filtered at pop time.
type demandCand struct {
	pos   int32
	loc   tracer.Loc
	event bool
}

// candHeap is a max-heap on pos (the query processes positions in the
// same descending order as the sequential sweep).
type candHeap []demandCand

func (h *candHeap) push(c demandCand) {
	*h = append(*h, c)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].pos >= (*h)[i].pos {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *candHeap) pop() demandCand {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && (*h)[l].pos > (*h)[big].pos {
			big = l
		}
		if r < n && (*h)[r].pos > (*h)[big].pos {
			big = r
		}
		if big == i {
			break
		}
		(*h)[i], (*h)[big] = (*h)[big], (*h)[i]
		i = big
	}
	return top
}

// query is one in-progress backward slice computation: the pooled
// scratch plus the result accumulators. A query either runs to
// completion in-process (Slice) or is advanced one window range at a
// time with its live state serialised between ranges (SliceShard) —
// both paths drive the same sweep loop, so a sharded query is
// bit-identical to a monolithic one by construction.
type query struct {
	s        *ParallelSlicer
	sc       *queryScratch
	crit     tracer.Ref
	startPos int
	// deps collects the dependence edges appended during the current
	// range. A suspending query folds them into depHash/depCount (result
	// payloads carry counts and a digest, not the edge list); a
	// monolithic query hands them to the Slice result untouched.
	deps     []DepEdge
	depHash  uint64
	depCount int64
	pruned   int64
	steps    int64
	batch    []tracer.Loc
	locBuf   [8]tracer.Loc
}

// newQuery resolves the criterion and prepares a cleared scratch.
func (s *ParallelSlicer) newQuery(crit tracer.Ref) (*query, error) {
	startPos, ok := s.Trace.GlobalPosOf(crit)
	if !ok {
		return nil, fmt.Errorf("slice: criterion %+v outside trace", crit)
	}
	// The scratch holds the query's allocation-heavy state; resetting a
	// pooled one costs a few bitset clears instead of rebuilding maps.
	sc := s.getScratch()
	clear(sc.ws.bits)
	clear(sc.ws.over)
	clear(sc.members)
	clear(sc.events)
	sc.h = sc.h[:0]
	return &query{
		s:        s,
		sc:       sc,
		crit:     crit,
		startPos: startPos,
		// deps is sized from the engine's running maximum so
		// steady-state queries allocate their result exactly once.
		deps:    make([]DepEdge, 0, s.depsHint.Load()),
		depHash: fnv1a.Offset,
		batch:   sc.batch[:0],
	}, nil
}

// release returns the scratch to the engine pool and flushes counters.
func (q *query) release() {
	q.sc.batch = q.batch
	q.s.putScratch(q.sc)
	q.s.indexSteps.Add(q.steps)
	q.steps = 0
}

func (q *query) isMember(g int) bool {
	return q.sc.members[g>>6]&(1<<(g&63)) != 0
}

// demand mirrors the sequential `wanted[l] = ...; wantedBy[l] = ref`
// writes: a fresh demand gets its next-definition candidate from the
// index; re-demanding an already-wanted location only retargets the
// requester (the pending candidate stays correct — every definition
// between it and `at` has already been processed).
func (q *query) demand(l tracer.Loc, ref tracer.Ref, at int) {
	if q.sc.ws.add(l, ref) {
		if p, ok := q.s.idx.NearestDefBefore(l, at); ok {
			q.sc.h.push(demandCand{pos: int32(p), loc: l})
		}
	}
}

// include takes the entry's already-decoded definitions when the
// caller has them (the data-match path), avoiding a second decode.
func (q *query) include(gpos int, ref tracer.Ref, defs []tracer.Loc) {
	if q.isMember(gpos) {
		return
	}
	q.sc.members[gpos>>6] |= 1 << (gpos & 63)
	e := q.s.Trace.Entry(ref)
	if defs == nil {
		defs = tracer.Defs(e, q.locBuf[:0])
	}
	// Kill the locations this entry defines, then demand its uses.
	for _, l := range defs {
		q.sc.ws.del(l)
	}
	for _, l := range tracer.Uses(e, q.locBuf[:0]) {
		q.demand(l, ref, gpos)
	}
	if q.s.Opts.ControlDeps {
		if p, ok := q.s.fwd.parentOf(ref); ok {
			if pg, ok := q.s.Trace.GlobalPosOf(p); ok && pg <= q.startPos {
				if !q.isMember(pg) {
					// sc.events flags the global positions with a pending
					// control parent. The sequential sweep keys its map by
					// position too, and the demanding member is never read
					// back (the control edge is emitted at demand time), so
					// presence bits carry the whole state.
					if q.sc.events[pg>>6]&(1<<(pg&63)) == 0 {
						q.sc.events[pg>>6] |= 1 << (pg & 63)
						q.sc.h.push(demandCand{pos: int32(pg), event: true})
					}
				}
				q.deps = append(q.deps, DepEdge{From: ref, To: p, Kind: DepControl})
			}
		}
	}
}

// runTo advances the sweep, handling candidate positions in descending
// order, until the heap is exhausted or every remaining candidate lies
// below lo. runTo(0) is the complete sweep; a positive lo suspends the
// query at a window boundary with its state capturable by captureState.
func (q *query) runTo(lo int) {
	tr := q.s.Trace
	wanted := &q.sc.ws
	wantedEvents := q.sc.events
	h := &q.sc.h
	batch := q.batch
	for len(*h) > 0 && int((*h)[0].pos) >= lo {
		// Drain every candidate at the current position: the position is
		// handled once, exactly like one iteration of the backward sweep.
		// Candidates whose location was killed since they were pushed are
		// stale; dropping them here (one presence-bit probe) skips the
		// entry decode for positions where nothing is live.
		g := int((*h)[0].pos)
		batch = batch[:0]
		event := false
		for len(*h) > 0 && int((*h)[0].pos) == g {
			c := h.pop()
			if c.event {
				event = true
			} else if wanted.has(c.loc) {
				batch = append(batch, c.loc)
			}
		}
		q.steps++

		// Pending control parent: include and skip data matching, as the
		// sequential sweep does. Demands this entry satisfies are killed
		// by include; the drained candidates die with them.
		if event {
			if wantedEvents[g>>6]&(1<<(g&63)) != 0 {
				wantedEvents[g>>6] &^= 1 << (g & 63)
				q.include(g, tr.Global[g], nil)
				continue
			}
		}
		if len(batch) == 0 {
			continue // all drained demands went stale since they were pushed
		}
		ref := tr.Global[g]

		// Save/restore bypass: same redirection as the sequential sweep.
		// A verified save/restore entry defines exactly one tracked
		// location (the PUSH's slot or the POP's register; SP is excluded
		// from dependence tracking), recorded in its bypass info — so the
		// match is decided against the batch without decoding the entry,
		// which matters: bypass hops dominate the event count on
		// call-heavy traces. The entry is not included, so any other
		// demand whose candidate was this position must look further back.
		if q.s.Opts.PruneSaveRestore {
			if bp, isBp := q.s.bypassAtPos(g); isBp {
				from, to := bp.slot, bp.reg
				if bp.role == bypassRestore {
					from, to = bp.reg, bp.slot
				}
				live := false
				for _, l := range batch {
					if l == from {
						live = true
						break
					}
				}
				if !live {
					continue // the pending demand on `from` went stale
				}
				requester, _ := wanted.get(from)
				wanted.del(from)
				q.demand(to, requester, g)
				q.pruned++
				for _, l := range batch {
					if wanted.has(l) {
						if p, ok := q.s.idx.NearestDefBefore(l, g); ok {
							h.push(demandCand{pos: int32(p), loc: l})
						}
					}
				}
				continue
			}
		}

		// Data match: the first location in the entry's definition order
		// with a pending demand, exactly the sequential sweep's selection.
		// Every wanted location this entry defines has its candidate in
		// the drained batch (candidates pop in position order), so the
		// batch doubles as the set of live demands to match against.
		e := tr.Entry(ref)
		defs := tracer.Defs(e, q.locBuf[:0])
		matched := tracer.Loc(0)
		found := false
		for _, l := range defs {
			for _, b := range batch {
				if b == l {
					matched = l
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			continue // all drained demands went stale since they were pushed
		}
		if from, ok := wanted.get(matched); ok {
			q.deps = append(q.deps, DepEdge{From: from, To: ref, Kind: DepData, Loc: matched})
		}
		q.include(g, ref, defs)
	}
	q.batch = batch
}

// finish materialises the completed query's Slice result.
func (q *query) finish() *Slice {
	out := &Slice{Criterion: q.crit, Deps: q.deps}
	if n := int64(len(q.deps)); n > q.s.depsHint.Load() {
		q.s.depsHint.Store(n)
	}
	// Materialise members in global order straight off the bitset. The
	// membership map is left to Contains to build on demand.
	members := q.sc.members
	n := 0
	for _, word := range members {
		n += bits.OnesCount64(word)
	}
	out.Members = make([]tracer.Ref, 0, n)
	for w, word := range members {
		for word != 0 {
			g := w<<6 + bits.TrailingZeros64(word)
			out.Members = append(out.Members, q.s.Trace.Global[g])
			word &= word - 1
		}
	}
	out.Stats.TraceLen = len(q.s.Trace.Global)
	out.Stats.Members = len(out.Members)
	out.Stats.VerifiedPairs = q.s.fwd.pairs
	out.Stats.CFGRefinements = q.s.fwd.cfgRefinements
	out.Stats.PrunedBypasses = q.pruned
	return out
}

// Slice computes the backward dynamic slice of the criterion. See the
// type comment: this is an event-driven simulation of Slicer.Slice over
// the stitched definition index, producing an identical Slice.
func (s *ParallelSlicer) Slice(crit tracer.Ref) (*Slice, error) {
	q, err := s.newQuery(crit)
	if err != nil {
		return nil, err
	}
	defer q.release()
	s.queries.Add(1)
	q.include(q.startPos, crit, nil)
	q.runTo(0)
	return q.finish(), nil
}
