// Package fleet distributes drserved sessions across a
// coordinator/worker fleet speaking the sessiond line-JSON protocol.
//
// The topology is a single coordinator fronting any number of workers.
// Each worker is an ordinary sessiond.Server plus an Agent that
// registers with the coordinator, advertises its capacity and
// heartbeats its liveness and load. The coordinator is itself a line-JSON TCP server — to a client it looks
// exactly like a drserved instance — that routes session requests to
// workers by rendezvous hashing on the pinball's content identity
// (cache-hot routing: the same pinball always lands on the same
// worker's engine LRU), sheds load fleet-wide, and executes slice
// queries as distributed slice_shard chains with hedged straggler
// re-dispatch.
//
// Failure domains are isolated per worker: a missed-heartbeat sweep
// declares a worker dead, severs its in-flight links (so blocked
// forwards fail immediately instead of waiting out their I/O deadline)
// and re-dispatches the work to the rendezvous successor after one
// capped decorrelated-jitter backoff step; per-worker circuit breakers
// — counting only transport failures, never a pinball's own typed
// failures — stop the coordinator from burning retries against a host
// that stopped answering; and hedged shard requests race a straggling
// worker against its rendezvous successor, first response wins, which
// is safe because shard execution is a pure state→state function (see
// internal/slice's shard soundness note). Every one of these races is
// supervisor.Failover.
package fleet

import (
	"hash/fnv"
	"sort"
	"sync"
	"time"
)

// WorkerInfo is one worker's registration: its fleet-unique name, the
// address its sessiond listener serves on, its admission capacity, and
// the load it reported on its last heartbeat.
type WorkerInfo struct {
	Name     string
	Addr     string
	Capacity int
	Load     int
}

type workerState struct {
	info     WorkerInfo
	lastBeat time.Time
}

// Registry tracks worker liveness for the coordinator. A worker is
// alive from registration until it misses heartbeats for longer than
// the timeout; Sweep then removes it and reports it dead. The clock is
// injected so dead-worker detection is deterministic under test.
type Registry struct {
	timeout time.Duration
	now     func() time.Time

	mu      sync.Mutex
	workers map[string]*workerState
}

// NewRegistry builds a registry declaring workers dead after timeout
// without a heartbeat. now is the clock (nil = time.Now).
func NewRegistry(timeout time.Duration, now func() time.Time) *Registry {
	if now == nil {
		now = time.Now
	}
	if timeout <= 0 {
		timeout = 3 * time.Second
	}
	return &Registry{timeout: timeout, now: now, workers: make(map[string]*workerState)}
}

// Register adds (or refreshes) a worker. Re-registering under the same
// name replaces the previous entry — the recovery path for a worker
// that was declared dead and came back.
func (r *Registry) Register(info WorkerInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.workers[info.Name] = &workerState{info: info, lastBeat: r.now()}
}

// Heartbeat refreshes a worker's liveness and load. It reports false
// for unknown workers — declared dead, or registered with a restarted
// coordinator — which tells the worker to re-register.
func (r *Registry) Heartbeat(name string, load int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[name]
	if !ok {
		return false
	}
	w.lastBeat = r.now()
	w.info.Load = load
	return true
}

// Sweep removes every worker whose last heartbeat is older than the
// timeout and returns them — the coordinator re-dispatches their
// in-flight work.
func (r *Registry) Sweep() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	cutoff := r.now().Add(-r.timeout)
	var dead []WorkerInfo
	for name, w := range r.workers {
		if w.lastBeat.Before(cutoff) {
			dead = append(dead, w.info)
			delete(r.workers, name)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].Name < dead[j].Name })
	return dead
}

// Alive lists the live workers, sorted by name.
func (r *Registry) Alive() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerInfo, 0, len(r.workers))
	for _, w := range r.workers {
		out = append(out, w.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Capacity sums the live workers' advertised capacities; a worker that
// advertised none counts as 1.
func (r *Registry) Capacity() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0
	for _, w := range r.workers {
		c := w.info.Capacity
		if c <= 0 {
			c = 1
		}
		total += c
	}
	return total
}

// Route picks the live worker owning key by rendezvous (highest-random-
// weight) hashing: every worker scores fnv64a(name, key) and the
// highest score wins. Removing a worker remaps only the keys it owned —
// every other key keeps its worker and its warm caches — and adding one
// steals only the keys it now wins. exclude skips workers already tried
// (or with an open circuit); nil excludes none.
func (r *Registry) Route(key string, exclude func(name string) bool) (WorkerInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *workerState
	var bestScore uint64
	for _, w := range r.workers {
		if exclude != nil && exclude(w.info.Name) {
			continue
		}
		score := rendezvousScore(w.info.Name, key)
		if best == nil || score > bestScore || (score == bestScore && w.info.Name < best.info.Name) {
			best, bestScore = w, score
		}
	}
	if best == nil {
		return WorkerInfo{}, false
	}
	return best.info, true
}

// Ranked lists the live workers by descending rendezvous score for key
// — the fleet's replica placement order. Ranked(key, nil)[0] is Route's
// answer (the owner); the successors are where store puts replicate and
// where fetches fail over when the owner is dead. exclude skips workers
// (nil = none).
func (r *Registry) Ranked(key string, exclude func(name string) bool) []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	type scored struct {
		info  WorkerInfo
		score uint64
	}
	ranked := make([]scored, 0, len(r.workers))
	for _, w := range r.workers {
		if exclude != nil && exclude(w.info.Name) {
			continue
		}
		ranked = append(ranked, scored{w.info, rendezvousScore(w.info.Name, key)})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].info.Name < ranked[j].info.Name
	})
	out := make([]WorkerInfo, len(ranked))
	for i, s := range ranked {
		out[i] = s.info
	}
	return out
}

func rendezvousScore(worker, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(worker))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return h.Sum64()
}
