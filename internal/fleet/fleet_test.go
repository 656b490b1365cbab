package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/pinplay"
	"repro/internal/sessiond"
	"repro/internal/supervisor"

	drdebug "repro"
)

// fakeClock is the injected time source for deterministic liveness
// tests: heartbeat timeouts elapse only when the test advances it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// fakeWorker is a minimal line-JSON server standing in for a worker:
// every request is answered by handler — or held forever when handler
// returns nil, the stand-in for a worker that died holding a request.
func fakeWorker(t *testing.T, handler func(req *sessiond.Request) *sessiond.Response) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done); lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
				enc := json.NewEncoder(conn)
				for sc.Scan() {
					var req sessiond.Request
					if json.Unmarshal(sc.Bytes(), &req) != nil {
						return
					}
					resp := handler(&req)
					if resp == nil {
						<-done // hold the request forever
						return
					}
					if enc.Encode(resp) != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return lis.Addr().String()
}

// startCoordinator serves a coordinator on loopback and tears it down
// with the test.
func startCoordinator(t *testing.T, cfg Config) (*Coordinator, string) {
	t.Helper()
	co := NewCoordinator(cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go co.Serve(lis)
	t.Cleanup(func() { co.Shutdown(2 * time.Second) })
	return co, lis.Addr().String()
}

// probeKeyFor writes probe pinball files until the registry routes one
// to the wanted worker, returning its path. Rendezvous hashing is
// deterministic, so a handful of probes always suffices.
func probeKeyFor(t *testing.T, reg *Registry, want string) string {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < 256; i++ {
		path := filepath.Join(dir, fmt.Sprintf("probe%d.pinball", i))
		if err := os.WriteFile(path, []byte(fmt.Sprintf("probe content %d", i)), 0o644); err != nil {
			t.Fatal(err)
		}
		key := sessiond.RouteKey(&sessiond.Request{Pinball: path})
		if w, ok := reg.Route(key, nil); ok && w.Name == want {
			return path
		}
	}
	t.Fatalf("no probe key routed to %s", want)
	return ""
}

func TestRendezvousRouting(t *testing.T) {
	reg := NewRegistry(time.Minute, nil)
	for _, name := range []string{"w1", "w2", "w3"} {
		reg.Register(WorkerInfo{Name: name, Addr: name + ":0", Capacity: 4})
	}
	owner := make(map[string]string)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("pinball-%d", i)
		w, ok := reg.Route(key, nil)
		if !ok {
			t.Fatal("no route")
		}
		owner[key] = w.Name
		// Stable: the same key routes to the same worker every time.
		if again, _ := reg.Route(key, nil); again.Name != w.Name {
			t.Fatalf("key %s flapped %s -> %s", key, w.Name, again.Name)
		}
	}
	// Removing a worker remaps only its keys; every other key keeps its
	// owner (and its warm engine cache).
	reg2 := NewRegistry(time.Minute, nil)
	reg2.Register(WorkerInfo{Name: "w1", Addr: "w1:0"})
	reg2.Register(WorkerInfo{Name: "w3", Addr: "w3:0"})
	moved := 0
	for key, prev := range owner {
		w, ok := reg2.Route(key, nil)
		if !ok {
			t.Fatal("no route")
		}
		if prev == "w2" {
			moved++
			continue
		}
		if w.Name != prev {
			t.Fatalf("key %s owned by %s moved to %s though its worker is alive", key, prev, w.Name)
		}
	}
	if moved == 0 {
		t.Fatal("w2 owned no keys out of 200 — suspicious hash")
	}
}

func TestRegistryLivenessInjectedClock(t *testing.T) {
	clk := newFakeClock()
	reg := NewRegistry(300*time.Millisecond, clk.Now)
	reg.Register(WorkerInfo{Name: "a", Addr: "a:0"})
	reg.Register(WorkerInfo{Name: "b", Addr: "b:0"})

	clk.Advance(200 * time.Millisecond)
	if !reg.Heartbeat("a", 1) {
		t.Fatal("live worker's heartbeat refused")
	}
	if dead := reg.Sweep(); len(dead) != 0 {
		t.Fatalf("premature deaths: %v", dead)
	}

	// b last beat at t0; past the timeout only b dies.
	clk.Advance(200 * time.Millisecond)
	dead := reg.Sweep()
	if len(dead) != 1 || dead[0].Name != "b" {
		t.Fatalf("sweep: %v", dead)
	}
	if reg.Heartbeat("b", 0) {
		t.Fatal("dead worker's heartbeat accepted without re-register")
	}
	if alive := reg.Alive(); len(alive) != 1 || alive[0].Name != "a" {
		t.Fatalf("alive: %v", alive)
	}
}

func TestWorkerBreakerTransportOnly(t *testing.T) {
	clk := newFakeClock()
	b := newWorkerBreaker(BreakerConfig{K: 2, Cooldown: time.Second}, clk.Now)
	b.failure("w")
	if b.open("w") {
		t.Fatal("opened below threshold")
	}
	b.failure("w")
	if !b.open("w") || b.openCount() != 1 {
		t.Fatal("did not open at threshold")
	}
	clk.Advance(1100 * time.Millisecond)
	if b.open("w") {
		t.Fatal("cooldown did not expire")
	}
	b.failure("w") // failed trial re-opens immediately
	if !b.open("w") {
		t.Fatal("failed trial did not re-open")
	}
	b.success("w")
	if b.open("w") {
		t.Fatal("success did not close the circuit")
	}
}

// TestDeadWorkerRedispatch is the tentpole's determinism criterion: a
// worker dies holding an in-flight request; once the injected clock
// passes the heartbeat timeout and the sweep declares it dead, the
// coordinator severs the link and re-dispatches to the rendezvous
// successor after exactly one capped backoff step — no I/O-deadline
// wait, no lost request — and the answer is annotated redispatched.
func TestDeadWorkerRedispatch(t *testing.T) {
	clk := newFakeClock()
	var sleepMu sync.Mutex
	var sleeps []time.Duration

	cfg := Config{
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatMiss:     3,
		RetryBase:         10 * time.Millisecond,
		RetryMax:          50 * time.Millisecond,
		RequestTimeout:    time.Minute, // huge: only the sweep can unblock the forward
		Now:               clk.Now,
		Sleep: func(d time.Duration) {
			sleepMu.Lock()
			sleeps = append(sleeps, d)
			sleepMu.Unlock()
		},
		Rand: func() float64 { return 0.5 },
	}

	received := make(chan struct{}, 1)
	stalledAddr := fakeWorker(t, func(req *sessiond.Request) *sessiond.Response {
		select {
		case received <- struct{}{}:
		default:
		}
		return nil // hold forever: the worker died mid-request
	})
	goodAddr := fakeWorker(t, func(req *sessiond.Request) *sessiond.Response {
		return &sessiond.Response{ID: req.ID, OK: true, Result: json.RawMessage(`{"executed":1,"checked":1}`)}
	})

	co, addr := startCoordinator(t, cfg)
	co.Registry().Register(WorkerInfo{Name: "stalled", Addr: stalledAddr, Capacity: 4})
	co.Registry().Register(WorkerInfo{Name: "good", Addr: goodAddr, Capacity: 4})

	pinballPath := probeKeyFor(t, co.Registry(), "stalled")

	c, err := sessiond.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	respc := make(chan *sessiond.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := c.Do(&sessiond.Request{Op: sessiond.OpReplay, File: "x.c", Pinball: pinballPath})
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()

	// The stalled worker holds the request; nothing moves until the
	// sweep.
	select {
	case <-received:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the stalled worker")
	}

	// Past the heartbeat timeout: the good worker beat, the stalled one
	// went silent. The sweep must declare exactly it dead.
	clk.Advance(time.Duration(cfg.HeartbeatMiss)*cfg.HeartbeatInterval + time.Millisecond)
	co.Registry().Heartbeat("good", 0)
	dead := co.Sweep()
	if len(dead) != 1 || dead[0].Name != "stalled" {
		t.Fatalf("sweep: %v", dead)
	}

	select {
	case resp := <-respc:
		if !resp.OK {
			t.Fatalf("re-dispatched request failed: %+v", resp)
		}
		if resp.Code != sessiond.CodeRedispatched {
			t.Fatalf("survivor's answer not annotated: %+v", resp)
		}
	case err := <-errc:
		t.Fatalf("transport error surfaced to the client: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("request still unanswered after the sweep: re-dispatch did not happen")
	}

	// Exactly one backoff step, within the cap: detection plus one step
	// bounds time-to-recovery at HeartbeatMiss×interval + RetryMax.
	sleepMu.Lock()
	defer sleepMu.Unlock()
	if len(sleeps) != 1 {
		t.Fatalf("recorded %d backoff sleeps, want 1: %v", len(sleeps), sleeps)
	}
	if sleeps[0] < cfg.RetryBase || sleeps[0] > cfg.RetryMax {
		t.Fatalf("backoff %v outside [%v, %v]", sleeps[0], cfg.RetryBase, cfg.RetryMax)
	}
}

func TestCoordinatorNoWorkers(t *testing.T) {
	_, addr := startCoordinator(t, Config{})
	c, err := sessiond.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(&sessiond.Request{Op: sessiond.OpReplay, File: "x.c", Pinball: "nowhere.pinball"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != sessiond.CodeNoWorkers {
		t.Fatalf("empty fleet: %+v", resp)
	}
}

func TestCoordinatorDrainRefusesSessions(t *testing.T) {
	co, addr := startCoordinator(t, Config{})
	c, err := sessiond.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One round trip first: the accept loop closes connections it has
	// not yet accepted once draining starts.
	if _, err := c.Do(&sessiond.Request{Op: sessiond.OpHealth}); err != nil {
		t.Fatal(err)
	}
	co.draining.Store(true)
	resp, err := c.Do(&sessiond.Request{Op: sessiond.OpReplay, File: "x.c", Pinball: "nowhere.pinball"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != sessiond.CodeDraining {
		t.Fatalf("draining coordinator: %+v", resp)
	}
	// Health keeps answering during a drain — probes must see it.
	hresp, err := c.Do(&sessiond.Request{Op: sessiond.OpHealth})
	if err != nil || !hresp.OK {
		t.Fatalf("health during drain: %+v, %v", hresp, err)
	}
	var h sessiond.HealthResult
	if json.Unmarshal(hresp.Result, &h) != nil || h.Ready || h.Status != "draining" {
		t.Fatalf("health payload during drain: %+v", h)
	}
}

func TestV1ClientCannotJoinFleet(t *testing.T) {
	_, addr := startCoordinator(t, Config{})
	c, err := sessiond.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(&sessiond.Request{Op: sessiond.OpRegister, Worker: "w", Addr: "w:0"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != sessiond.CodeBadRequest {
		t.Fatalf("v1 register not rejected: %+v", resp)
	}
}

// --- integration: a real fleet on loopback -------------------------

// fleetSrc mirrors the sessiond protocol tests' workload: a
// lock-guarded counter, so "counter" is a sliceable global and the
// pinball carries checkpoints for windowed sharding.
const fleetSrc = `
int counter;
int mtx;
int worker(int id) {
	int i;
	for (i = 0; i < 15; i++) {
		lock(&mtx);
		counter = counter + read();
		unlock(&mtx);
	}
	return 0;
}
int main() {
	int t = spawn(worker, 1);
	worker(0);
	join(t);
	write(counter);
	return 0;
}`

type fleetFixture struct {
	src  string
	good string
}

func makeFleetFixture(t testing.TB) *fleetFixture {
	t.Helper()
	dir := t.TempDir()
	f := &fleetFixture{
		src:  filepath.Join(dir, "fleet.c"),
		good: filepath.Join(dir, "good.pinball"),
	}
	if err := os.WriteFile(f.src, []byte(fleetSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := drdebug.CompileFile(f.src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	input := make([]int64, 64)
	for i := range input {
		input[i] = int64(i + 1)
	}
	pb, err := pinplay.Log(prog, pinplay.LogConfig{
		Seed: 7, MeanQuantum: 13, Input: input, CheckpointEvery: 8,
	}, pinplay.RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	if err := pb.Save(f.good); err != nil {
		t.Fatal(err)
	}
	return f
}

func fastWorkerConfig() sessiond.Config {
	return sessiond.Config{
		Supervisor: supervisor.Options{MaxAttempts: 2, Backoff: time.Millisecond, BackoffMax: 5 * time.Millisecond},
	}
}

// startWorker runs a sessiond server plus a fleet agent joined to the
// coordinator.
func startWorker(t *testing.T, name, coord string, beatHook func() bool) *sessiond.Server {
	t.Helper()
	srv := sessiond.New(fastWorkerConfig())
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	ctx, cancel := context.WithCancel(context.Background())
	agent := NewAgent(srv, AgentConfig{
		Coordinator: coord,
		Name:        name,
		Addr:        lis.Addr().String(),
		Capacity:    4,
		StealIdle:   10 * time.Millisecond,
		BeatHook:    beatHook,
	})
	go agent.Run(ctx)
	t.Cleanup(func() {
		cancel()
		sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer scancel()
		srv.Shutdown(sctx)
	})
	return srv
}

func waitAlive(t *testing.T, co *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(co.Registry().Alive()) >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("only %d workers registered, want %d", len(co.Registry().Alive()), n)
}

// TestFleetDistributedSliceBitIdentical is the fleet's correctness
// anchor: a slice query fanned across two live workers as hedged
// slice_shard hops (with an aggressive straggler deadline, so the steal
// path runs too) must answer bit-identically — same digest, members,
// deps — to the same query on a single standalone daemon.
func TestFleetDistributedSliceBitIdentical(t *testing.T) {
	f := makeFleetFixture(t)

	// Single-node reference.
	ref := sessiond.New(fastWorkerConfig())
	refResp := ref.Execute(&sessiond.Request{Op: sessiond.OpSlice, File: f.src, Pinball: f.good, Var: "counter", Workers: 2}, "ref")
	if !refResp.OK {
		t.Fatalf("reference slice: %+v", refResp)
	}
	var want sessiond.SliceResult
	if err := json.Unmarshal(refResp.Result, &want); err != nil {
		t.Fatal(err)
	}
	if want.Digest == "" {
		t.Fatal("reference slice carries no digest")
	}

	co, addr := startCoordinator(t, Config{
		HeartbeatInterval: 50 * time.Millisecond,
		HedgeAfter:        time.Millisecond, // hedge every hop: exercise steal/fetch
		ShardWindows:      2,
		RequestTimeout:    30 * time.Second,
	})
	startWorker(t, "w1", addr, nil)
	startWorker(t, "w2", addr, nil)
	waitAlive(t, co, 2)

	c, err := sessiond.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := 0; round < 3; round++ {
		resp, err := c.Do(&sessiond.Request{Op: sessiond.OpSlice, File: f.src, Pinball: f.good, Var: "counter", Workers: 2})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !resp.OK {
			t.Fatalf("round %d: %+v", round, resp)
		}
		var got sessiond.SliceResult
		if err := json.Unmarshal(resp.Result, &got); err != nil {
			t.Fatal(err)
		}
		if got.Digest != want.Digest || got.Members != want.Members ||
			got.Deps != want.Deps || got.TraceLen != want.TraceLen {
			t.Fatalf("round %d: fleet slice %+v != single-node %+v", round, got, want)
		}
	}

	// Replay and health ride the same fleet.
	resp, err := c.Do(&sessiond.Request{Op: sessiond.OpReplay, File: f.src, Pinball: f.good})
	if err != nil || !resp.OK {
		t.Fatalf("fleet replay: %+v, %v", resp, err)
	}
	stats, err := c.Do(&sessiond.Request{Op: sessiond.OpStats})
	if err != nil || !stats.OK {
		t.Fatalf("fleet stats: %+v, %v", stats, err)
	}
	var st sessiond.StatsResult
	if err := json.Unmarshal(stats.Result, &st); err != nil {
		t.Fatal(err)
	}
	if st.Active != 2 || st.Completed < 4 {
		t.Fatalf("fleet stats: %+v", st)
	}
}

// TestFleetPartitionFailover cuts the coordinator's network toward one
// worker mid-stream: requests keep succeeding via the survivor,
// annotated redispatched when they needed the failover.
func TestFleetPartitionFailover(t *testing.T) {
	f := makeFleetFixture(t)
	var part faultinject.Partition
	var partedAddr struct {
		sync.Mutex
		addr string
	}

	co, addr := startCoordinator(t, Config{
		HeartbeatInterval: 50 * time.Millisecond,
		MinShardWorkers:   99, // forward whole: this test is about routing, not sharding
		RetryBase:         time.Millisecond,
		RetryMax:          5 * time.Millisecond,
		RequestTimeout:    30 * time.Second,
		Dial: func(a string, timeout time.Duration) (*sessiond.Client, error) {
			partedAddr.Lock()
			cut := a == partedAddr.addr && !part.Allow()
			partedAddr.Unlock()
			if cut {
				return nil, fmt.Errorf("injected partition toward %s", a)
			}
			return sessiond.DialTimeout(a, timeout)
		},
	})
	startWorker(t, "w1", addr, nil)
	startWorker(t, "w2", addr, nil)
	waitAlive(t, co, 2)

	// Find a pinball the healthy fleet routes to w1, then partition w1.
	w1addr := ""
	for _, w := range co.Registry().Alive() {
		if w.Name == "w1" {
			w1addr = w.Addr
		}
	}
	probe := probeKeyFor(t, co.Registry(), "w1")
	good := f.good
	// The probe file is not a real pinball; route the real pinball
	// wherever it goes, but make sure at least the probe's owner is cut.
	partedAddr.Lock()
	partedAddr.addr = w1addr
	partedAddr.Unlock()
	part.Cut()

	c, err := sessiond.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(&sessiond.Request{Op: sessiond.OpReplay, File: f.src, Pinball: probe, Salvage: false})
	if err != nil {
		t.Fatal(err)
	}
	// The probe routes to the partitioned worker: the coordinator must
	// fail over to w2 and answer — typed (the probe is garbage, so the
	// session itself fails corrupt) but never a transport error, and
	// never no_workers.
	if resp.Code == sessiond.CodeNoWorkers {
		t.Fatalf("partition of one worker starved the fleet: %+v", resp)
	}
	if resp.OK || resp.Code != sessiond.CodeCorrupt {
		t.Fatalf("failover answer: %+v", resp)
	}

	// A real session against the partitioned fleet still succeeds.
	resp, err = c.Do(&sessiond.Request{Op: sessiond.OpReplay, File: f.src, Pinball: good})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("replay under partition: %+v", resp)
	}
	part.Heal()
}

// TestHeartbeatDropperTriggersRedispatch drives the chaos dropper end
// to end: a worker stops beating (Forever), the real-clock sweeper
// declares it dead, and routed work lands on the survivor. The worker
// then resumes beating and re-registers via the Known=false path.
func TestHeartbeatDropperTriggersRedispatch(t *testing.T) {
	f := makeFleetFixture(t)
	var drop faultinject.HeartbeatDropper

	co, addr := startCoordinator(t, Config{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMiss:     3,
		MinShardWorkers:   99,
		RequestTimeout:    30 * time.Second,
	})
	startWorker(t, "w1", addr, drop.Allow)
	startWorker(t, "w2", addr, nil)
	waitAlive(t, co, 2)

	drop.Forever()
	deadline := time.Now().Add(5 * time.Second)
	for len(co.Registry().Alive()) != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	alive := co.Registry().Alive()
	if len(alive) != 1 || alive[0].Name != "w2" {
		t.Fatalf("silent worker not declared dead: %v", alive)
	}

	// The fleet still answers through the survivor.
	c, err := sessiond.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(&sessiond.Request{Op: sessiond.OpReplay, File: f.src, Pinball: f.good})
	if err != nil || !resp.OK {
		t.Fatalf("replay with one dead worker: %+v, %v", resp, err)
	}

	// Heal: the next heartbeat gets Known=false and re-registers.
	drop.Resume()
	deadline = time.Now().Add(5 * time.Second)
	for len(co.Registry().Alive()) != 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(co.Registry().Alive()) != 2 {
		t.Fatalf("healed worker did not re-register: %v", co.Registry().Alive())
	}
}
