package pinplay

import (
	"sort"

	"repro/internal/fnv1a"
	"repro/internal/pinball"
	"repro/internal/vm"
)

// Flight-recorder (ring) recording. Instead of retaining the whole
// region, the recorder seals the event streams into flush windows and
// keeps a bounded FIFO of them: once the estimated retained bytes exceed
// the budget (or the sampling policy says so), the oldest windows are
// dropped. What survives an eviction is deliberately small and
// deliberately sufficient: the window's step span and the windowed
// FNV-1a hash of every instruction event inside it (plus every divergence
// checkpoint, which the ring never evicts). Gap-bridging replay
// re-derives the dropped content by re-executing the region from the
// recipe and proves the re-derivation against those hashes.

// ringWindow is one sealed flush window held in the recorder's ring.
type ringWindow struct {
	id       int64
	fromStep int64 // first global region step of the window (exclusive base)
	toStep   int64 // last global region step of the window (inclusive)
	hash     uint64
	quanta   []vm.Quantum
	syscalls []vm.SyscallRecord
	edges    []vm.OrderEdge
	est      int64 // deterministic byte estimate
}

// ringState is the recorder's flight-recorder mode state.
type ringState struct {
	budget int64 // retained byte budget (0 = unbounded)
	sample int64 // keep 1 window in N (<=1 = keep all)
	recipe *pinball.Recipe

	hash     uint64 // rolling event hash of the open window
	step     int64  // region instructions observed so far
	sealedTo int64  // region step the last sealed window ended at
	nextID   int64

	windows   []ringWindow // retained, oldest first
	kept      int64        // estimated retained bytes
	evictions []pinball.Eviction
}

// estimate is the deterministic per-window byte estimate the eviction
// policy charges against the budget. It deliberately uses fixed per-entry
// costs rather than real encoded sizes, so eviction decisions (and
// therefore the recorded pinball) are identical across runs and builds.
func (w *ringWindow) estimate() int64 {
	return 16 + 16*int64(len(w.quanta)) + 32*int64(len(w.syscalls)) + 32*int64(len(w.edges))
}

// admit appends a sealed window and applies the sampling and budget
// eviction policies. The final window of a region — the failure
// neighbourhood a flight recorder exists to keep — is exempt from
// sampling and is never evicted.
func (rs *ringState) admit(w ringWindow, final bool) {
	w.est = w.estimate()
	if !final && rs.sample > 1 && w.id%rs.sample != 0 {
		rs.evict(w)
		return
	}
	rs.windows = append(rs.windows, w)
	rs.kept += w.est
	if rs.budget > 0 {
		for rs.kept > rs.budget && len(rs.windows) > 1 {
			old := rs.windows[0]
			rs.windows = rs.windows[1:]
			rs.kept -= old.est
			rs.evict(old)
		}
	}
}

func (rs *ringState) evict(w ringWindow) {
	rs.evictions = append(rs.evictions, pinball.Eviction{
		ID: w.id, FromStep: w.fromStep, ToStep: w.toStep, Bytes: w.est, Hash: w.hash,
	})
}

// EnableRing switches the recorder to flight-recorder mode: flush
// windows of windowEvery instructions (0 = DefaultJournalFlushEvery) are
// sealed into a bounded ring of budget estimated bytes, sampled keep-1-
// in-sample, with recipe as the bridge recipe evictions will replay
// against. Call after StartRecording (and after AttachJournal when
// journaling — the recipe frame lands right behind the header sections).
func (r *Recorder) EnableRing(budget, sample, windowEvery int64, recipe *pinball.Recipe) error {
	if windowEvery <= 0 {
		windowEvery = DefaultJournalFlushEvery
	}
	r.ring = &ringState{budget: budget, sample: sample, recipe: recipe, hash: fnv1a.Offset}
	r.tracer.ring = r.ring
	r.tracer.flushEvery = windowEvery
	r.tracer.flush = r.sealRing
	if r.jw != nil {
		return r.jw.AppendRecipe(recipe)
	}
	return nil
}

// sealRing is the tracer flush hook in ring mode.
func (r *Recorder) sealRing() { r.sealRingWindow(false) }

// sealRingWindow closes the open flush window: the event-stream deltas
// since the previous seal become the window's content, the rolling event
// hash its divergence hash. With a journal attached, the checkpoint delta
// and the tiny window-seal frame are written immediately — content is
// deferred to commit time (it may yet be evicted), which is what keeps an
// interrupted ring journal recoverable as a fully bridgeable pinball.
func (r *Recorder) sealRingWindow(final bool) {
	rs := r.ring
	if rs.step == rs.sealedTo {
		return
	}
	q := r.m.Quanta()
	var dq []vm.Quantum
	for i := r.qIdx; i < len(q); i++ {
		e := q[i]
		if i == r.qIdx {
			e.Count -= r.qOff
		}
		if e.Count > 0 {
			dq = append(dq, e)
		}
	}
	if n := len(q); n > 0 {
		r.qIdx, r.qOff = n-1, q[n-1].Count
	}
	ds, de := r.tracer.syscalls, r.tracer.edges
	r.tracer.syscalls, r.tracer.edges = nil, nil
	var dc []pinball.Checkpoint
	if ck := r.tracer.ck; ck != nil {
		dc = ck.cps[r.cIdx:]
		r.cIdx = len(ck.cps)
	}

	w := ringWindow{
		id: rs.nextID, fromStep: rs.sealedTo, toStep: rs.step,
		hash: rs.hash, quanta: dq, syscalls: ds, edges: de,
	}
	rs.nextID++
	rs.sealedTo = rs.step
	rs.hash = fnv1a.Offset // windowed: the next window hashes afresh
	if r.jw != nil {
		if len(dc) > 0 {
			r.jw.AppendChunk(nil, nil, nil, dc)
		}
		r.jw.AppendWindowSeal(w.id, w.fromStep, w.toStep, w.hash)
	}
	rs.admit(w, final)
}

// finishRing seals the tail window and assembles the ring fields and the
// retained event streams onto the finished pinball. Retained quanta are
// re-merged across window boundaries (a seal can split a still-open
// quantum), matching both the machine's maximal run-length form and the
// decoder's chunk merge.
func (r *Recorder) finishRing(pb *pinball.Pinball) {
	rs := r.ring
	r.sealRingWindow(true)
	sort.Slice(rs.evictions, func(i, j int) bool { return rs.evictions[i].FromStep < rs.evictions[j].FromStep })

	var q []vm.Quantum
	var sys []vm.SyscallRecord
	var edges []vm.OrderEdge
	for _, w := range rs.windows {
		for _, e := range w.quanta {
			if n := len(q); n > 0 && q[n-1].Tid == e.Tid {
				q[n-1].Count += e.Count
				continue
			}
			q = append(q, e)
		}
		sys = append(sys, w.syscalls...)
		edges = append(edges, w.edges...)
	}
	pb.Quanta, pb.Syscalls, pb.OrderEdges = q, sys, edges
	pb.RingBytes, pb.SampleKeep = rs.budget, rs.sample
	pb.Evictions = rs.evictions
	pb.Recipe = rs.recipe
}

// RingStats summarises what a ring recording retained and dropped.
type RingStats struct {
	Windows   int   // windows sealed
	Retained  int   // windows kept
	Evicted   int   // windows dropped
	KeptBytes int64 // estimated retained content bytes
	GapInstrs int64 // instructions covered by evicted windows
}

// RingStats reports the recorder's ring occupancy; zero value when ring
// mode is off.
func (r *Recorder) RingStats() RingStats {
	rs := r.ring
	if rs == nil {
		return RingStats{}
	}
	st := RingStats{
		Windows:   int(rs.nextID),
		Retained:  len(rs.windows),
		Evicted:   len(rs.evictions),
		KeptBytes: rs.kept,
	}
	for _, e := range rs.evictions {
		st.GapInstrs += e.Span()
	}
	return st
}
