package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sessiond"
	"repro/internal/supervisor"
)

// Config assembles the coordinator's routing and robustness policy.
type Config struct {
	// HeartbeatInterval is the cadence workers are told to beat at
	// (default 500ms). HeartbeatMiss beats without contact declare a
	// worker dead (default 4), so the detection window is
	// HeartbeatMiss × HeartbeatInterval.
	HeartbeatInterval time.Duration
	HeartbeatMiss     int

	// MaxAttempts bounds how many distinct workers one request is tried
	// on (default 3). Between attempts the coordinator sleeps a capped
	// decorrelated-jitter backoff drawn from [RetryBase, 3×prev] clipped
	// to RetryMax (defaults 10ms / 250ms).
	MaxAttempts int
	RetryBase   time.Duration
	RetryMax    time.Duration

	// HedgeAfter is the straggler deadline: a shard hop unanswered for
	// this long is also sent to the next-ranked live worker, first
	// response wins (default 1s).
	HedgeAfter time.Duration
	// ShardDeadline bounds one hop, hedges and failovers included: a hop
	// unanswered within it fails typed (default 2×RequestTimeout).
	ShardDeadline time.Duration

	// RequestTimeout is the per-forward I/O deadline — a stalled worker
	// becomes a transport error, not a hang (default 60s). DialTimeout
	// bounds connection establishment (default 2s).
	RequestTimeout time.Duration
	DialTimeout    time.Duration

	// ShardWindows is how many checkpoint windows one distributed hop
	// advances (default 4). MinShardWorkers gates distribution: with
	// fewer live workers a slice query is forwarded whole (default 2).
	ShardWindows    int
	MinShardWorkers int

	// Breaker tunes the per-worker transport circuit breaker.
	Breaker BreakerConfig

	// Logf logs coordinator events (nil = silent).
	Logf func(format string, args ...any)

	// Now injects the clock. With the real clock (nil) the coordinator
	// runs its own dead-worker sweeper; with an injected one the test
	// drives Sweep explicitly, so detection timing is deterministic.
	Now func() time.Time
	// Sleep and Rand inject the backoff's timing and jitter (nil =
	// time.Sleep / math/rand).
	Sleep func(time.Duration)
	Rand  func() float64
	// Dial injects the worker transport — the chaos tests' partition
	// hook. nil = sessiond.DialTimeout.
	Dial func(addr string, timeout time.Duration) (*sessiond.Client, error)
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.HeartbeatMiss <= 0 {
		c.HeartbeatMiss = 4
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 250 * time.Millisecond
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.ShardDeadline <= 0 {
		c.ShardDeadline = 2 * c.RequestTimeout
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.ShardWindows <= 0 {
		c.ShardWindows = 4
	}
	if c.MinShardWorkers <= 0 {
		c.MinShardWorkers = 2
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	if c.Rand == nil {
		c.Rand = rand.Float64
	}
	if c.Dial == nil {
		c.Dial = func(addr string, timeout time.Duration) (*sessiond.Client, error) {
			return sessiond.DialTimeout(addr, timeout)
		}
	}
	return c
}

// Coordinator fronts the fleet: a line-JSON TCP server that accepts the
// same session requests a drserved worker would, routes them to live
// workers, and answers fleet ops (register/heartbeat) from the workers
// themselves.
type Coordinator struct {
	cfg   Config
	reg   *Registry
	wbrk  *workerBreaker
	start time.Time

	received     atomic.Int64
	completed    atomic.Int64
	failed       atomic.Int64
	redispatches atomic.Int64
	sessions     atomic.Int64 // session ops between admission and response
	inflight     atomic.Int64 // requests between line-read and response-written
	draining     atomic.Bool

	// tmu guards the open per-worker connections, so a dead worker's
	// links can be severed, unblocking forwards instantly.
	tmu   sync.Mutex
	links map[string]map[*sessiond.Client]struct{}

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	stop     chan struct{}
	stopOnce sync.Once
}

// NewCoordinator builds a coordinator. With a real clock it also runs
// the background dead-worker sweeper once Serve starts.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	timeout := time.Duration(cfg.HeartbeatMiss) * cfg.HeartbeatInterval
	return &Coordinator{
		cfg:   cfg,
		reg:   NewRegistry(timeout, cfg.Now),
		wbrk:  newWorkerBreaker(cfg.Breaker, cfg.Now),
		start: time.Now(),
		links: make(map[string]map[*sessiond.Client]struct{}),
		conns: make(map[net.Conn]struct{}),
		stop:  make(chan struct{}),
	}
}

// Registry exposes the worker registry (tests drive registration and
// sweeps through it).
func (co *Coordinator) Registry() *Registry { return co.reg }

// Serve accepts connections on lis until Shutdown closes it.
func (co *Coordinator) Serve(lis net.Listener) error {
	co.mu.Lock()
	co.lis = lis
	co.mu.Unlock()
	if co.cfg.Now == nil {
		co.wg.Add(1)
		go co.sweeper()
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			if co.draining.Load() {
				return nil
			}
			return err
		}
		co.mu.Lock()
		if co.draining.Load() {
			co.mu.Unlock()
			conn.Close()
			continue
		}
		co.conns[conn] = struct{}{}
		co.wg.Add(1)
		co.mu.Unlock()
		go co.handleConn(conn)
	}
}

// sweeper periodically declares missed-heartbeat workers dead.
func (co *Coordinator) sweeper() {
	defer co.wg.Done()
	tick := time.NewTicker(co.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-co.stop:
			return
		case <-tick.C:
			co.Sweep()
		}
	}
}

// Sweep declares every missed-heartbeat worker dead and severs its
// in-flight links, so a forward blocked on a dead worker fails over to
// the rendezvous successor after one backoff step instead of waiting
// out its I/O deadline. Exposed so injected-clock tests drive detection
// deterministically. Returns the newly dead workers.
func (co *Coordinator) Sweep() []WorkerInfo {
	dead := co.reg.Sweep()
	for _, w := range dead {
		co.cfg.Logf("fleet: worker %s (%s) missed %d heartbeats, declared dead",
			w.Name, w.Addr, co.cfg.HeartbeatMiss)
		co.severLinks(w.Name)
	}
	return dead
}

func (co *Coordinator) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		co.mu.Lock()
		delete(co.conns, conn)
		co.mu.Unlock()
		co.wg.Done()
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	enc := json.NewEncoder(conn)
	send := func(resp sessiond.Response) {
		if err := enc.Encode(&resp); err != nil {
			co.cfg.Logf("fleet: write to %s: %v", conn.RemoteAddr(), err)
		}
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		co.inflight.Add(1)
		var req sessiond.Request
		if err := json.Unmarshal(line, &req); err != nil {
			send(sessiond.Response{OK: false, Code: sessiond.CodeBadRequest, Error: "malformed request: " + err.Error()})
		} else {
			co.dispatch(&req, send)
		}
		co.inflight.Add(-1)
	}
}

// dispatch answers one request: fleet ops locally, session ops by
// routing them to workers. Every path terminates in a typed response.
func (co *Coordinator) dispatch(req *sessiond.Request, send func(sessiond.Response)) {
	switch req.Op {
	case sessiond.OpHealth:
		send(co.health(req))
		return
	case sessiond.OpStats:
		send(co.stats(req))
		return
	case sessiond.OpRecord, sessiond.OpReplay, sessiond.OpSlice, sessiond.OpDualSlice, sessiond.OpSliceShard:
		co.session(req, send)
		return
	case sessiond.OpStorePut, sessiond.OpStoreFetch, sessiond.OpStoreStat, sessiond.OpStoreLocate:
		if req.Proto < sessiond.ProtoV2 {
			send(sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeBadRequest,
				Error: fmt.Sprintf("op %q requires proto>=%d", req.Op, sessiond.ProtoV2)})
			return
		}
		co.received.Add(1)
		resp := co.storeOp(req)
		if resp.OK {
			co.completed.Add(1)
		} else {
			co.failed.Add(1)
		}
		send(resp)
		return
	}
	if req.Proto < sessiond.ProtoV2 {
		send(sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeBadRequest,
			Error: fmt.Sprintf("op %q requires proto>=%d", req.Op, sessiond.ProtoV2)})
		return
	}
	send(co.fleetOp(req))
}

// session routes one session op. Shed before routing: drain refuses
// outright, and the fleet-wide in-flight cap (4 × the live fleet's
// summed capacity) rejects what the workers' own admission queues would
// only make wait.
func (co *Coordinator) session(req *sessiond.Request, send func(sessiond.Response)) {
	co.received.Add(1)
	if co.draining.Load() {
		co.failed.Add(1)
		send(sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeDraining,
			Error: "coordinator is draining"})
		return
	}
	if limit := 4 * co.reg.Capacity(); limit > 0 && co.sessions.Load() >= int64(limit) {
		co.failed.Add(1)
		send(sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeOverload,
			Error: fmt.Sprintf("fleet saturated: %d sessions in flight against capacity %d", co.sessions.Load(), co.reg.Capacity())})
		return
	}
	co.sessions.Add(1)
	resp := co.route(req)
	co.sessions.Add(-1)
	if resp.OK {
		co.completed.Add(1)
	} else {
		co.failed.Add(1)
	}
	send(resp)
}

// fleetOp answers a worker-originated op.
func (co *Coordinator) fleetOp(req *sessiond.Request) sessiond.Response {
	switch req.Op {
	case sessiond.OpRegister:
		if req.Worker == "" || req.Addr == "" {
			return sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeBadRequest,
				Error: "register needs fleet_worker and fleet_addr"}
		}
		co.reg.Register(WorkerInfo{Name: req.Worker, Addr: req.Addr, Capacity: req.Capacity, Load: req.Load})
		co.wbrk.success(req.Worker) // a fresh registration resets its transport history
		co.cfg.Logf("fleet: worker %s registered at %s (capacity %d)", req.Worker, req.Addr, req.Capacity)
		return sessiond.Response{ID: req.ID, OK: true, Result: encode(sessiond.RegisterResult{
			Worker:      req.Worker,
			Proto:       sessiond.ProtoCurrent,
			HeartbeatMS: co.cfg.HeartbeatInterval.Milliseconds(),
		})}
	case sessiond.OpHeartbeat:
		known := co.reg.Heartbeat(req.Worker, req.Load)
		return sessiond.Response{ID: req.ID, OK: true, Result: encode(sessiond.HeartbeatResult{Known: known})}
	}
	return sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeBadRequest, Error: "unknown fleet op " + req.Op}
}

// route answers one session request. Slice queries fan out as
// distributed shard chains when enough workers are live; everything
// else (and small fleets) forwards whole to the rendezvous owner.
func (co *Coordinator) route(req *sessiond.Request) sessiond.Response {
	key := sessiond.RouteKey(req)
	if req.Op == sessiond.OpSlice && (req.Pinball != "" || req.Digest != "") &&
		len(co.reg.Alive()) >= co.cfg.MinShardWorkers {
		return co.distributedSlice(req, key)
	}
	return co.forward(req, key)
}

// forward sends req whole to the rendezvous owner of key, failing over
// down the ranking with capped decorrelated-jitter backoff on transport
// errors. It never hedges: whole sessions such as record are not
// idempotent. Typed failures pass through unchanged — they are the
// session's own answer, not the fleet's.
func (co *Coordinator) forward(req *sessiond.Request, key string) sessiond.Response {
	ranked := co.ranked(key)
	resp, _, dispatches, err := supervisor.Failover(context.Background(), len(ranked), co.policy(0),
		func(ctx context.Context, i int) (*sessiond.Response, error) {
			return co.send(ctx, ranked[i], req)
		})
	if err != nil {
		return noWorkers(req.ID, "no live worker to route to", dispatches, err)
	}
	return co.answer(req, *resp, dispatches > 1)
}

// ranked lists key's live workers best-first, skipping open circuits.
func (co *Coordinator) ranked(key string) []WorkerInfo {
	return co.reg.Ranked(key, co.wbrk.open)
}

// policy is the coordinator's failover policy, hedging after hedge
// (0 = never).
func (co *Coordinator) policy(hedge time.Duration) supervisor.FailoverPolicy {
	return supervisor.FailoverPolicy{
		Attempts:   co.cfg.MaxAttempts,
		Base:       co.cfg.RetryBase,
		Max:        co.cfg.RetryMax,
		HedgeAfter: hedge,
		Sleep:      co.cfg.Sleep,
		Rand:       co.cfg.Rand,
	}
}

// answer stamps a worker's response for req. An answer that needed
// more than one dispatch counts as a re-dispatch and, unless the
// session already carries a stronger annotation (salvaged, degraded),
// is annotated CodeRedispatched.
func (co *Coordinator) answer(req *sessiond.Request, resp sessiond.Response, redispatched bool) sessiond.Response {
	if redispatched {
		co.redispatches.Add(1)
		if resp.OK && resp.Code == "" {
			resp.Code = sessiond.CodeRedispatched
		}
	}
	resp.ID = req.ID
	return resp
}

// noWorkers types a race that produced no answer at all; none is the
// message when there was no candidate to try.
func noWorkers(id, none string, dispatches int, err error) sessiond.Response {
	msg := none
	if !errors.Is(err, supervisor.ErrNoCandidates) {
		msg = fmt.Sprintf("no worker answered after %d attempts: %v", dispatches, err)
	}
	return sessiond.Response{ID: id, OK: false, Code: sessiond.CodeNoWorkers, Error: msg}
}

// send performs one request against one worker with a fresh connection
// and a per-request I/O deadline, charging transport failures (and only
// those) to the worker's circuit. The link is registered under the
// worker's name so a dead-worker sweep can sever it, and closed when
// ctx ends so a lost race stops at once. A loser cut off that way is
// not charged: the worker did nothing wrong.
func (co *Coordinator) send(ctx context.Context, w WorkerInfo, req *sessiond.Request) (*sessiond.Response, error) {
	c, err := co.cfg.Dial(w.Addr, co.cfg.DialTimeout)
	if err != nil {
		co.wbrk.failure(w.Name)
		co.cfg.Logf("fleet: %s to %s failed: %v", req.Op, w.Name, err)
		return nil, err
	}
	co.trackLink(w.Name, c)
	defer co.untrackLink(w.Name, c)
	defer c.Close()
	defer context.AfterFunc(ctx, func() { c.Close() })()
	c.SetDeadline(time.Now().Add(co.cfg.RequestTimeout))
	resp, err := c.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			co.wbrk.failure(w.Name)
			co.cfg.Logf("fleet: %s to %s failed: %v", req.Op, w.Name, err)
		}
		return nil, err
	}
	co.wbrk.success(w.Name)
	return resp, nil
}

func (co *Coordinator) trackLink(worker string, c *sessiond.Client) {
	co.tmu.Lock()
	set := co.links[worker]
	if set == nil {
		set = make(map[*sessiond.Client]struct{})
		co.links[worker] = set
	}
	set[c] = struct{}{}
	co.tmu.Unlock()
}

func (co *Coordinator) untrackLink(worker string, c *sessiond.Client) {
	co.tmu.Lock()
	if set := co.links[worker]; set != nil {
		delete(set, c)
		if len(set) == 0 {
			delete(co.links, worker)
		}
	}
	co.tmu.Unlock()
}

// severLinks closes every open connection to a dead worker; blocked
// forwards return transport errors immediately and fail over.
func (co *Coordinator) severLinks(worker string) {
	co.tmu.Lock()
	set := co.links[worker]
	delete(co.links, worker)
	co.tmu.Unlock()
	for c := range set {
		c.Close()
	}
}

// maxShardHops guards a shard chain against a state that stops making
// progress (it cannot happen — bounds strictly descend — but a wire-
// level bug must not become an infinite loop).
const maxShardHops = 1 << 20

// distributedSlice executes one slice query as a chain of slice_shard
// hops, each hedged across the fleet. The chain is sequential — hop N+1
// resumes from hop N's state — but different queries' chains interleave
// freely across workers, and within one hop the straggler hedge races
// two workers. The final hop's summary is bit-identity-checked against
// single-node runs via its digest.
func (co *Coordinator) distributedSlice(req *sessiond.Request, key string) sessiond.Response {
	var state json.RawMessage
	redispatched := false
	for hop := 0; hop < maxShardHops; hop++ {
		sreq := *req
		sreq.ID = ""
		sreq.Op = sessiond.OpSliceShard
		sreq.Proto = sessiond.ProtoCurrent
		sreq.State = state
		sreq.ShardWindows = co.cfg.ShardWindows
		resp, dispatches := co.runShard(&sreq, key)
		redispatched = redispatched || dispatches > 1
		if !resp.OK {
			resp.ID = req.ID
			return resp
		}
		var sr sessiond.ShardResult
		if err := json.Unmarshal(resp.Result, &sr); err != nil {
			return sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeInternal,
				Error: "malformed shard result: " + err.Error()}
		}
		if sr.Done {
			return co.answer(req, sessiond.Response{OK: true, Code: resp.Code, Report: resp.Report,
				Result: encode(sessiond.SliceResult{
					Members:        sr.Members,
					TraceLen:       sr.TraceLen,
					Deps:           int(sr.Deps),
					PrunedBypasses: int(sr.Pruned),
					Digest:         sr.Digest,
					Prov:           sr.Prov,
				})}, redispatched)
		}
		state = sr.State
	}
	return sessiond.Response{ID: req.ID, OK: false, Code: sessiond.CodeInternal,
		Error: "shard chain exceeded hop limit"}
}

// runShard resolves one shard hop: dispatch to the rendezvous owner,
// hedge to the next-ranked worker if no answer arrived by HedgeAfter,
// fail over on transport errors, first answer wins. Hops are idempotent
// (a pure state→state function), so a duplicate is safe. A hedge's
// retryable refusal (overload, draining) never beats an attempt still
// running; if nothing else answers, the refusal is the hop's answer.
// It also returns the number of dispatches.
func (co *Coordinator) runShard(sreq *sessiond.Request, key string) (sessiond.Response, int) {
	ranked := co.ranked(key)
	ctx, cancel := context.WithTimeout(context.Background(), co.cfg.ShardDeadline)
	defer cancel()
	var running atomic.Int32
	var refusal atomic.Pointer[sessiond.Response]
	resp, _, dispatches, err := supervisor.Failover(ctx, len(ranked), co.policy(co.cfg.HedgeAfter),
		func(ctx context.Context, i int) (*sessiond.Response, error) {
			running.Add(1)
			defer running.Add(-1)
			resp, err := co.send(ctx, ranked[i], sreq)
			if err == nil && !resp.OK && (resp.Code == sessiond.CodeOverload || resp.Code == sessiond.CodeDraining) &&
				running.Load() > 1 {
				refusal.Store(resp)
				return nil, fmt.Errorf("%s refused the hop: %s", ranked[i].Name, resp.Code)
			}
			return resp, err
		})
	switch {
	case err == nil:
		return *resp, dispatches
	case refusal.Load() != nil:
		return *refusal.Load(), dispatches
	case errors.Is(err, context.DeadlineExceeded):
		return sessiond.Response{OK: false, Code: sessiond.CodeTimeout,
			Error: fmt.Sprintf("shard unanswered within %v", co.cfg.ShardDeadline)}, dispatches
	}
	return noWorkers("", "no live worker to route to", dispatches, err), dispatches
}

func (co *Coordinator) health(req *sessiond.Request) sessiond.Response {
	draining := co.draining.Load()
	status := "ok"
	if draining {
		status = "draining"
	}
	return sessiond.Response{ID: req.ID, OK: true, Result: encode(sessiond.HealthResult{
		Live:     true,
		Ready:    !draining && len(co.reg.Alive()) > 0,
		Status:   status,
		Active:   len(co.reg.Alive()),
		Queued:   0,
		UptimeMS: time.Since(co.start).Milliseconds(),
	})}
}

// stats reuses the sessiond stats shape with fleet meanings: Active is
// live workers, Queued 0 (no work waits at the coordinator), BreakersOpen the open
// per-worker circuits, Rejected the re-dispatch count.
func (co *Coordinator) stats(req *sessiond.Request) sessiond.Response {
	return sessiond.Response{ID: req.ID, OK: true, Result: encode(sessiond.StatsResult{
		Received:     co.received.Load(),
		Accepted:     co.received.Load() - co.failed.Load(),
		Rejected:     co.redispatches.Load(),
		Completed:    co.completed.Load(),
		Failed:       co.failed.Load(),
		Active:       len(co.reg.Alive()),
		Queued:       0,
		BreakersOpen: co.wbrk.openCount(),
	})}
}

// Shutdown drains the coordinator: stop admitting sessions (new ones
// get CodeDraining), wait for every in-flight response to flush, then
// close the listener and connections. In-flight routed sessions finish
// and deliver — a drain loses no accepted work.
func (co *Coordinator) Shutdown(deadline time.Duration) error {
	co.draining.Store(true)
	co.stopOnce.Do(func() { close(co.stop) })
	co.mu.Lock()
	if co.lis != nil {
		co.lis.Close()
	}
	co.mu.Unlock()

	expire := time.Now().Add(deadline)
	for co.inflight.Load() > 0 {
		if time.Now().After(expire) {
			co.cfg.Logf("fleet: drain deadline expired with %d requests in flight", co.inflight.Load())
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	co.mu.Lock()
	for c := range co.conns {
		c.Close()
	}
	co.mu.Unlock()
	done := make(chan struct{})
	go func() { co.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(deadline):
		return fmt.Errorf("fleet: connections did not close within drain deadline")
	}
}

// encode marshals a payload (mirror of sessiond's helper).
func encode(v any) json.RawMessage {
	data, err := json.Marshal(v)
	if err != nil {
		return json.RawMessage(`{}`)
	}
	return data
}
