package slice

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/fnv1a"
	"repro/internal/tracer"
)

// This file is the distributed face of the parallel engine: a backward
// slice query that can be suspended at a window boundary, serialised,
// and resumed by a different process holding an engine built from the
// same pinball. The fleet coordinator uses it to fan one query's window
// ranges out across workers and to re-dispatch a range when the worker
// computing it dies.
//
// Why this is sound: when the sweep has handled every candidate at
// positions >= B, its live state is exactly (a) the wanted set — each
// demanded location with its demanding member, (b) the pending
// control-parent positions < B, and (c) the members so far. A wanted
// location l's unprocessed heap candidate is always NearestDefBefore(l,
// B): the candidate is the nearest definition before l's demand
// position, and any definition in [B, demandPos) would itself have been
// the candidate and been processed already. Pending event bits are by
// construction the event candidates not yet popped, all < B. So the
// heap can be rebuilt from (wanted, events, B) alone, stale candidates
// and all — re-running a shard from the same state is idempotent, which
// is what makes hedged and re-dispatched shard requests safe.

// queryStateVersion guards the wire form of QueryState.
const queryStateVersion = 1

// WantedLoc is one live demand of a suspended query: the location and
// the slice member that demanded it.
type WantedLoc struct {
	Loc int64 `json:"l"`
	Tid int32 `json:"t"`
	Pos int32 `json:"p"`
}

// QueryState is the serialisable continuation of a backward slice query
// suspended at a window boundary: every position >= Bound has been
// handled, everything below has not. It is a pure value — running a
// shard is a state -> state function with no engine-side residue — so
// the same state may be executed twice (hedging, straggler re-dispatch)
// and both executions return byte-identical successors.
type QueryState struct {
	V    int        `json:"v"`
	Crit tracer.Ref `json:"crit"`
	// Bound is the exclusive low edge of the handled region; 0 when Done.
	Bound int  `json:"bound"`
	Done  bool `json:"done,omitempty"`
	// Wanted and Events rebuild the candidate heap on resume.
	Wanted []WantedLoc `json:"wanted,omitempty"`
	Events []int32     `json:"events,omitempty"`
	// Members are the slice members found so far, as ascending global
	// trace positions.
	Members []int32 `json:"members,omitempty"`
	// DepCount/DepHash carry the dependence edges in digest form: edge
	// lists grow with the slice, but shard hops only need the running
	// FNV-1a fold (edges are appended in a deterministic order, so the
	// fold is deterministic too).
	DepCount int64  `json:"dep_count"`
	DepHash  uint64 `json:"dep_hash"`
	Pruned   int64  `json:"pruned,omitempty"`
}

// StartBound returns the initial bound of a fresh query on crit — one
// past the criterion's global position, i.e. "nothing handled yet".
// Shard planners use it to window the first dispatch.
func (s *ParallelSlicer) StartBound(crit tracer.Ref) (int, error) {
	pos, ok := s.Trace.GlobalPosOf(crit)
	if !ok {
		return 0, fmt.Errorf("slice: criterion %+v outside trace", crit)
	}
	return pos + 1, nil
}

// NextShardLo returns the window-aligned low bound that advances a
// query at `bound` by `windows` checkpoint-cadence windows (the
// engine's shard unit). 0 means the next shard finishes the query.
func (s *ParallelSlicer) NextShardLo(bound, windows int) int {
	if windows < 1 {
		windows = 1
	}
	if bound <= 0 {
		return 0
	}
	// Window index of the highest unhandled position, minus the stride.
	lo := ((bound-1)/s.windowSize - (windows - 1)) * s.windowSize
	if lo < 0 {
		lo = 0
	}
	return lo
}

// SliceShard advances a backward slice query by one window range:
// st == nil starts a fresh query at crit, otherwise st is resumed. The
// sweep runs until every candidate position >= lo is handled, then the
// successor state is captured (Done when the sweep exhausted its
// candidates before reaching lo). The caller owns shard geometry; any
// descending sequence of lo values chains to the exact monolithic
// Slice result.
func (s *ParallelSlicer) SliceShard(crit tracer.Ref, st *QueryState, lo int) (*QueryState, error) {
	var q *query
	var err error
	if st == nil {
		q, err = s.newQuery(crit)
		if err != nil {
			return nil, err
		}
		s.queries.Add(1)
		q.include(q.startPos, crit, nil)
		if lo > q.startPos {
			lo = q.startPos
		}
	} else {
		if st.Done {
			return st, nil
		}
		q, err = s.resumeQuery(st)
		if err != nil {
			return nil, err
		}
		if lo > st.Bound {
			lo = st.Bound
		}
	}
	defer q.release()
	if lo < 0 {
		lo = 0
	}
	q.runTo(lo)
	return q.captureState(lo), nil
}

// resumeQuery reconstructs a suspended query from its wire state. See
// the file comment for why NearestDefBefore(l, Bound) recovers every
// live candidate.
func (s *ParallelSlicer) resumeQuery(st *QueryState) (*query, error) {
	if st.V != queryStateVersion {
		return nil, fmt.Errorf("slice: query state version %d, want %d", st.V, queryStateVersion)
	}
	q, err := s.newQuery(st.Crit)
	if err != nil {
		return nil, err
	}
	q.depHash, q.depCount, q.pruned = st.DepHash, st.DepCount, st.Pruned
	for _, w := range st.Wanted {
		l := tracer.Loc(w.Loc)
		q.sc.ws.add(l, tracer.Ref{Tid: w.Tid, Pos: w.Pos})
		if p, ok := s.idx.NearestDefBefore(l, st.Bound); ok {
			q.sc.h.push(demandCand{pos: int32(p), loc: l})
		}
	}
	for _, p := range st.Events {
		q.sc.events[p>>6] |= 1 << (p & 63)
		q.sc.h.push(demandCand{pos: p, event: true})
	}
	for _, m := range st.Members {
		q.sc.members[m>>6] |= 1 << (m & 63)
	}
	return q, nil
}

// captureState snapshots the suspended query at bound. The capture
// order is canonical (dense wanted locations ascending, then overflow
// locations sorted; events and members ascending), so equal states
// serialise to equal bytes — duplicate shard executions can be
// compared, and deduplicated, textually.
func (q *query) captureState(bound int) *QueryState {
	h, n := q.depHash, q.depCount
	for _, d := range q.deps {
		h = foldDep(h, d)
	}
	n += int64(len(q.deps))
	st := &QueryState{
		V:        queryStateVersion,
		Crit:     q.crit,
		Bound:    bound,
		Done:     len(q.sc.h) == 0,
		DepCount: n,
		DepHash:  h,
		Pruned:   q.pruned,
	}
	for w, word := range q.sc.members {
		for word != 0 {
			g := w<<6 + bits.TrailingZeros64(word)
			st.Members = append(st.Members, int32(g))
			word &= word - 1
		}
	}
	if st.Done {
		st.Bound = 0
		return st
	}
	ws := &q.sc.ws
	for w, word := range ws.bits {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			r := ws.ref[i]
			st.Wanted = append(st.Wanted, WantedLoc{Loc: int64(ws.space.LocAt(i)), Tid: r.Tid, Pos: r.Pos})
			word &= word - 1
		}
	}
	if len(ws.over) > 0 {
		locs := make([]tracer.Loc, 0, len(ws.over))
		for l := range ws.over {
			locs = append(locs, l)
		}
		sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
		for _, l := range locs {
			r := ws.over[l]
			st.Wanted = append(st.Wanted, WantedLoc{Loc: int64(l), Tid: r.Tid, Pos: r.Pos})
		}
	}
	for w, word := range q.sc.events {
		for word != 0 {
			g := w<<6 + bits.TrailingZeros64(word)
			st.Events = append(st.Events, int32(g))
			word &= word - 1
		}
	}
	return st
}

// Summary is the scalar outcome of a slice query plus a content digest
// of the full result. A sharded query's Summary must equal the
// single-node Summarize of the same criterion bit for bit — that is the
// fleet's correctness check.
type Summary struct {
	Members        int    `json:"members"`
	TraceLen       int    `json:"trace_len"`
	Deps           int64  `json:"deps"`
	PrunedBypasses int64  `json:"pruned_bypasses,omitempty"`
	Digest         string `json:"digest"`
}

// foldDep folds one dependence edge into the FNV-1a digest in its
// append order: the edge stream is deterministic, so so is the fold.
func foldDep(h uint64, d DepEdge) uint64 {
	h = fnv1a.Fold(h, uint64(uint32(d.From.Tid)))
	h = fnv1a.Fold(h, uint64(uint32(d.From.Pos)))
	h = fnv1a.Fold(h, uint64(uint32(d.To.Tid)))
	h = fnv1a.Fold(h, uint64(uint32(d.To.Pos)))
	h = fnv1a.Fold(h, uint64(d.Kind))
	h = fnv1a.Fold(h, uint64(d.Loc))
	return h
}

// foldRef folds one member reference into the digest.
func foldRef(h uint64, r tracer.Ref) uint64 {
	h = fnv1a.Fold(h, uint64(uint32(r.Tid)))
	h = fnv1a.Fold(h, uint64(uint32(r.Pos)))
	return h
}

// Summarize digests a completed slice: dependence edges in append
// order, then members in ascending global order. This is the
// single-node reference the fleet's shard chain is checked against.
func Summarize(sl *Slice) Summary {
	h := fnv1a.Offset
	for _, d := range sl.Deps {
		h = foldDep(h, d)
	}
	for _, m := range sl.Members {
		h = foldRef(h, m)
	}
	return Summary{
		Members:        len(sl.Members),
		TraceLen:       sl.Stats.TraceLen,
		Deps:           int64(len(sl.Deps)),
		PrunedBypasses: sl.Stats.PrunedBypasses,
		Digest:         fmt.Sprintf("%016x", h),
	}
}

// SummarizeState converts a finished query state into its Summary,
// continuing the state's dependence digest with the member fold. The
// state must be Done.
func (s *ParallelSlicer) SummarizeState(st *QueryState) (Summary, error) {
	if !st.Done {
		return Summary{}, fmt.Errorf("slice: query state not done (bound %d)", st.Bound)
	}
	h := st.DepHash
	for _, g := range st.Members {
		h = foldRef(h, s.Trace.Global[g])
	}
	return Summary{
		Members:        len(st.Members),
		TraceLen:       len(s.Trace.Global),
		Deps:           st.DepCount,
		PrunedBypasses: st.Pruned,
		Digest:         fmt.Sprintf("%016x", h),
	}, nil
}

// SummarizeProvenance is the shard-protocol counterpart of
// AnnotateProvenance: a member-level provenance breakdown of a finished
// query state. Shard hops carry dependence edges only in digest form, so
// edge counts are not recoverable — but every edge's provenance is the
// worst of its two member endpoints, so member counts alone decide both
// Exact() and Degraded() exactly as a full annotation would. Returns nil
// over gap-free traces (matching SliceFor on a full recording).
func (s *ParallelSlicer) SummarizeProvenance(st *QueryState) *ProvSummary {
	if len(s.Trace.Gaps) == 0 {
		return nil
	}
	sum := &ProvSummary{MinConfidence: 1.0}
	for _, g := range st.Members {
		p := s.Trace.ProvenanceOf(s.Trace.Global[g])
		switch p {
		case tracer.ProvExact:
			sum.ExactMembers++
		case tracer.ProvBridged:
			sum.BridgedMembers++
		case tracer.ProvEstimated:
			sum.EstimatedMembers++
		}
		if c := p.Confidence(); c < sum.MinConfidence {
			sum.MinConfidence = c
		}
	}
	return sum
}
