package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/sessiond"
)

// AgentConfig wires a worker's sessiond.Server into the fleet.
type AgentConfig struct {
	// Coordinator is the coordinator's address.
	Coordinator string
	// Name is the worker's fleet-unique name; Addr the address its
	// sessiond listener serves on (what the coordinator dials back).
	Name string
	Addr string
	// Capacity is the admission capacity advertised at registration.
	Capacity int

	// RetryEvery paces reconnects to an unreachable coordinator
	// (default 500ms). DialTimeout bounds each dial (default 2s).
	RetryEvery  time.Duration
	DialTimeout time.Duration

	// Logf logs agent events (nil = silent).
	Logf func(format string, args ...any)
	// BeatHook, when set, gates each heartbeat: returning false drops
	// it — the chaos tests' missed-heartbeat fault. nil sends every
	// beat.
	BeatHook func() bool
	// Dial injects the coordinator transport (nil = sessiond.DialTimeout).
	Dial func(addr string, timeout time.Duration) (*sessiond.Client, error)
}

func (c AgentConfig) withDefaults() AgentConfig {
	if c.RetryEvery <= 0 {
		c.RetryEvery = 500 * time.Millisecond
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Dial == nil {
		c.Dial = func(addr string, timeout time.Duration) (*sessiond.Client, error) {
			return sessiond.DialTimeout(addr, timeout)
		}
	}
	return c
}

// Agent joins a sessiond.Server to a coordinator: it registers and
// heartbeats liveness and load. All work, shard hops and their hedges
// included, arrives over the server's own listener, so it counts
// against the worker's admission, quotas, breakers and drain
// accounting.
type Agent struct {
	srv *sessiond.Server
	cfg AgentConfig
}

// NewAgent builds an agent for srv.
func NewAgent(srv *sessiond.Server, cfg AgentConfig) *Agent {
	return &Agent{srv: srv, cfg: cfg.withDefaults()}
}

// Run registers with the coordinator (retrying until it is reachable or
// ctx ends), then drives the heartbeat loop until ctx ends.
func (a *Agent) Run(ctx context.Context) error {
	interval, err := a.register(ctx)
	if err != nil {
		return err
	}
	go a.heartbeatLoop(ctx, interval)
	<-ctx.Done()
	return nil
}

// register announces the worker and returns the heartbeat cadence the
// coordinator asked for.
func (a *Agent) register(ctx context.Context) (time.Duration, error) {
	for {
		interval, err := a.registerOnce()
		if err == nil {
			a.cfg.Logf("fleet: %s registered with %s, heartbeat %v", a.cfg.Name, a.cfg.Coordinator, interval)
			return interval, nil
		}
		a.cfg.Logf("fleet: %s register: %v", a.cfg.Name, err)
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(a.cfg.RetryEvery):
		}
	}
}

func (a *Agent) registerOnce() (time.Duration, error) {
	c, err := a.cfg.Dial(a.cfg.Coordinator, a.cfg.DialTimeout)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	resp, err := c.Do(&sessiond.Request{
		Op: sessiond.OpRegister, Proto: sessiond.ProtoCurrent,
		Worker: a.cfg.Name, Addr: a.cfg.Addr, Capacity: a.cfg.Capacity,
	})
	if err != nil {
		return 0, err
	}
	if !resp.OK {
		return 0, fmt.Errorf("register rejected: %s: %s", resp.Code, resp.Error)
	}
	var rr sessiond.RegisterResult
	if err := json.Unmarshal(resp.Result, &rr); err != nil {
		return 0, fmt.Errorf("malformed register result: %w", err)
	}
	if rr.HeartbeatMS <= 0 {
		return 0, fmt.Errorf("coordinator asked for no heartbeat")
	}
	return time.Duration(rr.HeartbeatMS) * time.Millisecond, nil
}

// heartbeatLoop beats liveness and load on one persistent connection,
// reconnecting as needed. A Known=false answer means the coordinator
// forgot us (it declared us dead, or restarted) — re-register before
// the next beat so routing resumes.
func (a *Agent) heartbeatLoop(ctx context.Context, interval time.Duration) {
	var c *sessiond.Client
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if a.cfg.BeatHook != nil && !a.cfg.BeatHook() {
			continue
		}
		if c == nil {
			var err error
			if c, err = a.cfg.Dial(a.cfg.Coordinator, a.cfg.DialTimeout); err != nil {
				a.cfg.Logf("fleet: %s heartbeat dial: %v", a.cfg.Name, err)
				continue
			}
		}
		running, queued := a.srv.Load()
		resp, err := c.Do(&sessiond.Request{
			Op: sessiond.OpHeartbeat, Proto: sessiond.ProtoCurrent,
			Worker: a.cfg.Name, Load: running + queued,
		})
		if err != nil {
			c.Close()
			c = nil
			continue
		}
		var hb sessiond.HeartbeatResult
		if resp.OK && json.Unmarshal(resp.Result, &hb) == nil && !hb.Known {
			a.cfg.Logf("fleet: %s unknown to coordinator, re-registering", a.cfg.Name)
			if _, err := a.registerOnce(); err != nil {
				a.cfg.Logf("fleet: %s re-register: %v", a.cfg.Name, err)
			}
		}
	}
}
