package supervisor

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// raceEnv is what one Failover case's attempts can see and touch.
type raceEnv struct {
	cancel context.CancelFunc // cancels the race's parent ctx
	ended  atomic.Int32       // attempts that returned
}

var errTransport = errors.New("transport: connection refused")

// stall blocks until the attempt's ctx ends.
func stall(ctx context.Context) (string, error) {
	<-ctx.Done()
	return "", ctx.Err()
}

// TestFailover pins the one ranked, hedged failover policy the fleet
// and the store share: first success wins, a straggler is hedged at
// HedgeAfter, a failure costs exactly one backoff before the next
// candidate, a typed answer (a success to the helper) never fails
// over, cancelling ctx ends every attempt, and Attempts bounds the
// dispatches. Every case also checks that no attempt outlives the race.
func TestFailover(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		policy FailoverPolicy
		try    func(e *raceEnv, ctx context.Context, i int) (string, error)

		want       string
		wantIdx    int
		dispatches int
		sleeps     int
		err        error
	}{
		{
			name: "first success wins",
			n:    3,
			try: func(_ *raceEnv, _ context.Context, i int) (string, error) {
				return []string{"a", "b", "c"}[i], nil
			},
			want: "a", wantIdx: 0, dispatches: 1,
		},
		{
			name:   "stalled first attempt is hedged",
			n:      3,
			policy: FailoverPolicy{HedgeAfter: 10 * time.Millisecond},
			try: func(_ *raceEnv, ctx context.Context, i int) (string, error) {
				if i == 0 {
					return stall(ctx)
				}
				return "hedge", nil
			},
			want: "hedge", wantIdx: 1, dispatches: 2,
		},
		{
			name: "transport error moves down the ranking after one backoff",
			n:    3,
			try: func(_ *raceEnv, _ context.Context, i int) (string, error) {
				if i == 0 {
					return "", errTransport
				}
				return "successor", nil
			},
			want: "successor", wantIdx: 1, dispatches: 2, sleeps: 1,
		},
		{
			name: "typed answer does not fail over",
			n:    3,
			try: func(_ *raceEnv, _ context.Context, i int) (string, error) {
				return "corrupt", nil // the session's own failure, not the transport's
			},
			want: "corrupt", wantIdx: 0, dispatches: 1,
		},
		{
			name:   "cancelled ctx ends every attempt",
			n:      3,
			policy: FailoverPolicy{HedgeAfter: time.Millisecond},
			try: func(e *raceEnv, ctx context.Context, i int) (string, error) {
				if i == 1 {
					e.cancel() // both attempts are running now
				}
				return stall(ctx)
			},
			wantIdx: -1, dispatches: 2, err: context.Canceled,
		},
		{
			name:   "attempt bound holds",
			n:      5,
			policy: FailoverPolicy{Attempts: 2},
			try: func(_ *raceEnv, _ context.Context, i int) (string, error) {
				return "", errTransport
			},
			wantIdx: -1, dispatches: 2, sleeps: 1, err: errTransport,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var sleeps []time.Duration
			p := tc.policy
			p.Base, p.Max = 10*time.Millisecond, 50*time.Millisecond
			p.Sleep = func(d time.Duration) {
				mu.Lock()
				sleeps = append(sleeps, d)
				mu.Unlock()
			}
			p.Rand = func() float64 { return 0.5 }

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			e := &raceEnv{cancel: cancel}
			start := time.Now()
			got, idx, dispatches, err := Failover(ctx, tc.n, p, func(ctx context.Context, i int) (string, error) {
				defer e.ended.Add(1)
				return tc.try(e, ctx, i)
			})

			if !errors.Is(err, tc.err) || (tc.err == nil && err != nil) {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			if got != tc.want || idx != tc.wantIdx || dispatches != tc.dispatches {
				t.Fatalf("got (%q, idx %d, %d dispatches), want (%q, idx %d, %d dispatches)",
					got, idx, dispatches, tc.want, tc.wantIdx, tc.dispatches)
			}
			if hedged := dispatches > 1 && tc.sleeps == 0; hedged && time.Since(start) < p.HedgeAfter {
				t.Fatalf("hedged after %v, before HedgeAfter %v", time.Since(start), p.HedgeAfter)
			}
			mu.Lock()
			if len(sleeps) != tc.sleeps {
				t.Fatalf("%d backoff sleeps %v, want %d", len(sleeps), sleeps, tc.sleeps)
			}
			for _, d := range sleeps {
				if d < p.Base || d > p.Max {
					t.Fatalf("backoff %v outside [%v, %v]", d, p.Base, p.Max)
				}
			}
			mu.Unlock()

			// Losers' ctxs end with the race: every stalled attempt returns.
			for deadline := time.Now().Add(2 * time.Second); int(e.ended.Load()) < dispatches; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d attempts outlived the race: their ctx was never cancelled",
						dispatches-int(e.ended.Load()), dispatches)
				}
			}
		})
	}
}

func TestFailoverNoCandidates(t *testing.T) {
	_, idx, dispatches, err := Failover(context.Background(), 0, FailoverPolicy{},
		func(context.Context, int) (int, error) {
			t.Fatal("tried a candidate that does not exist")
			return 0, nil
		})
	if !errors.Is(err, ErrNoCandidates) || idx != -1 || dispatches != 0 {
		t.Fatalf("empty ranking: idx %d, %d dispatches, err %v", idx, dispatches, err)
	}
}
