package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/sessiond"
)

// TestFleetChaosSoak is the multi-process acceptance soak: a real
// drserved coordinator and three real drserved workers (separate OS
// processes, built from cmd/drserved), hammered by concurrent clients
// while one worker is SIGKILLed and another is SIGSTOPped mid-run.
// The invariants:
//
//   - every accepted request terminates in a typed response — never a
//     transport error surfaced to a client;
//   - every completed slice is bit-identical (by digest) to the same
//     query answered by a single-node daemon;
//   - the fleet keeps completing work after losing two of three
//     workers;
//   - a SIGTERM drain of the coordinator completes cleanly.
//
// Scale: DRDEBUG_SOAK_REQS (make fleet-soak) sets requests per client
// and raises the client count to 100; the default in-tree run is
// scaled down so the tier-1 suite stays fast.
func TestFleetChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process soak skipped in -short")
	}
	clients, reqsPerClient := 20, 2
	if s := os.Getenv("DRDEBUG_SOAK_REQS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad DRDEBUG_SOAK_REQS=%q", s)
		}
		clients, reqsPerClient = 100, n
	}

	f := makeFleetFixture(t)
	garbage := filepath.Join(t.TempDir(), "garbage.pinball")
	if err := os.WriteFile(garbage, []byte("not a pinball at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Single-node reference digest: the same engine code the worker
	// binaries run.
	ref := sessiond.New(fastWorkerConfig())
	refResp := ref.Execute(&sessiond.Request{Op: sessiond.OpSlice, File: f.src, Pinball: f.good, Var: "counter", Workers: 2}, "ref")
	if !refResp.OK {
		t.Fatalf("reference slice: %+v", refResp)
	}
	var want sessiond.SliceResult
	if err := json.Unmarshal(refResp.Result, &want); err != nil {
		t.Fatal(err)
	}

	bin := buildDrserved(t)
	coord, coordAddr := startDaemon(t, bin, "coordinator",
		"-coordinator", "-addr", "127.0.0.1:0",
		"-heartbeat-interval", "100ms", "-heartbeat-miss", "3",
		"-hedge-after", "500ms", "-shard-windows", "4",
		"-retries", "3", "-backoff", "5ms",
		"-drain-timeout", "10s")
	var workers [3]*exec.Cmd
	for i := range workers {
		workers[i], _ = startDaemon(t, bin, fmt.Sprintf("w%d", i+1),
			"-addr", "127.0.0.1:0", "-join", coordAddr,
			"-worker-name", fmt.Sprintf("w%d", i+1),
			"-max-sessions", "8", "-max-queue", "32")
	}

	// Wait until all three workers registered.
	probe, err := sessiond.Dial(coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	waitDeadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := probe.Do(&sessiond.Request{Op: sessiond.OpStats})
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		var st sessiond.StatsResult
		if json.Unmarshal(resp.Result, &st) == nil && st.Active == 3 {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatalf("workers never registered: %+v", resp)
		}
		time.Sleep(20 * time.Millisecond)
	}
	probe.Close()

	// The client fleet. Typed refusals (overload shedding, a breaker
	// fast-fail) are legitimate answers and retried a bounded number of
	// times; transport errors are not.
	var (
		transportErrs atomic.Int64
		sliceOK       atomic.Int64
		sliceBad      atomic.Int64
		redispatched  atomic.Int64
		typedFailures atomic.Int64
		postKillOK    atomic.Int64
	)
	killed := make(chan struct{})
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := sessiond.DialTimeout(coordAddr, 10*time.Second)
			if err != nil {
				transportErrs.Add(1)
				return
			}
			defer c.Close()
			// Each client also keeps going until one of its requests starts
			// after the kill, so a fast host cannot finish the whole run
			// before the chaos lands.
			for r, after := 0, false; r < reqsPerClient || !after && r < 50*reqsPerClient; r++ {
				select {
				case <-killed:
					after = true
				default:
				}
				var req sessiond.Request
				switch (ci + r) % 5 {
				case 0, 1, 2: // slice: the digest-checked path
					req = sessiond.Request{Op: sessiond.OpSlice, File: f.src, Pinball: f.good, Var: "counter", Workers: 2}
				case 3: // replay
					req = sessiond.Request{Op: sessiond.OpReplay, File: f.src, Pinball: f.good}
				case 4: // poison: must come back typed, never crash anything
					req = sessiond.Request{Op: sessiond.OpReplay, File: f.src, Pinball: garbage}
				}
				req.Client = fmt.Sprintf("soak-%d", ci)
				var resp *sessiond.Response
				for attempt := 0; attempt < 8; attempt++ {
					resp, err = c.Do(&req)
					if err != nil {
						transportErrs.Add(1)
						return
					}
					if resp.Code == sessiond.CodeOverload || resp.Code == sessiond.CodeNoWorkers {
						time.Sleep(100 * time.Millisecond) // shed: back off and retry
						continue
					}
					break
				}
				if resp.Code == sessiond.CodeRedispatched {
					redispatched.Add(1)
				}
				if !resp.OK {
					typedFailures.Add(1)
					continue
				}
				select {
				case <-killed:
					postKillOK.Add(1)
				default:
				}
				if req.Op == sessiond.OpSlice {
					var got sessiond.SliceResult
					if json.Unmarshal(resp.Result, &got) != nil || got.Digest != want.Digest ||
						got.Members != want.Members || got.Deps != want.Deps {
						sliceBad.Add(1)
						t.Errorf("client %d: slice diverged from single-node: %+v != %+v", ci, got, want)
					} else {
						sliceOK.Add(1)
					}
				}
			}
		}(ci)
	}

	// Mid-run chaos: one worker dies outright, another freezes (alive at
	// the TCP level, silent at the protocol level — the straggler case).
	time.Sleep(400 * time.Millisecond)
	if err := workers[0].Process.Kill(); err != nil {
		t.Fatalf("SIGKILL w1: %v", err)
	}
	close(killed)
	time.Sleep(300 * time.Millisecond)
	if err := workers[1].Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatalf("SIGSTOP w2: %v", err)
	}
	defer workers[1].Process.Signal(syscall.SIGCONT)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Minute):
		t.Fatal("soak clients did not finish: fleet deadlocked")
	}

	if n := transportErrs.Load(); n != 0 {
		t.Errorf("%d transport errors surfaced to clients (want 0: every answer typed)", n)
	}
	if sliceBad.Load() != 0 {
		t.Errorf("%d slices diverged from the single-node digest", sliceBad.Load())
	}
	if sliceOK.Load() == 0 {
		t.Error("no slice completed at all")
	}
	if postKillOK.Load() == 0 {
		t.Error("nothing completed after the worker kill: the fleet did not survive")
	}
	t.Logf("soak: %d slices digest-checked, %d typed failures, %d redispatched, %d completed post-kill",
		sliceOK.Load(), typedFailures.Load(), redispatched.Load(), postKillOK.Load())

	// Graceful drain: SIGTERM the coordinator and require a clean exit.
	if err := coord.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM coordinator: %v", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- coord.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("coordinator drain exited dirty: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Error("coordinator did not drain within its deadline")
	}
}

// buildDrserved compiles cmd/drserved once into a temp dir.
func buildDrserved(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "drserved")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/drserved")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build drserved: %v\n%s", err, out)
	}
	return bin
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon launches one drserved process and parses its listen
// address off stderr. Processes left running at test end are killed.
func startDaemon(t *testing.T, bin, name string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Signal(syscall.SIGCONT)
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case addr := <-addrc:
		return cmd, addr
	case <-time.After(15 * time.Second):
		t.Fatalf("%s never announced its listen address", name)
		return nil, ""
	}
}
