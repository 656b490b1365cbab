// Package supervisor is the self-healing session layer: it runs the
// record/replay/slice phases of a debugging session under panic
// isolation, watchdog deadlines and retry-with-backoff, so that a bad
// pinball, a buggy analysis pass or a hung replay surfaces as a typed,
// reportable failure instead of a crash or a stuck process.
//
// The failure policy, by classified kind:
//
//	corrupt   — the pinball file is bad; deterministic, fail fast.
//	limit     — an execution budget/deadline was exhausted; deliberate,
//	            fail fast.
//	timeout   — the watchdog fired on a hung phase; retrying a hang
//	            re-hangs, fail fast.
//	divergence, panic, error — retried with exponential backoff up to
//	            MaxAttempts; a divergence that survives its retries is
//	            additionally offered checkpoint-anchored degraded
//	            recovery (see Replay).
//
// Every outcome — recovered, degraded or failed — is summarised in a
// JSON-serialisable Report for structured failure output.
package supervisor

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"repro/internal/pinball"
	"repro/internal/pinplay"
)

// Phase names the part of the session a supervised call runs.
type Phase string

// Session phases.
const (
	PhaseRecord Phase = "record"
	PhaseReplay Phase = "replay"
	PhaseSlice  Phase = "slice"
	PhaseRelog  Phase = "relog"
)

// Kind classifies why a supervised phase failed.
type Kind string

// Failure kinds.
const (
	KindPanic      Kind = "panic"      // the phase panicked (recovered)
	KindTimeout    Kind = "timeout"    // the watchdog fired on a hung phase
	KindDivergence Kind = "divergence" // replay left the recorded execution
	KindCorrupt    Kind = "corrupt"    // the pinball file is bad
	KindLimit      Kind = "limit"      // an execution limit was exhausted
	KindError      Kind = "error"      // any other failure
)

// Retryable reports whether another attempt can plausibly change the
// outcome.
func (k Kind) Retryable() bool {
	switch k {
	case KindCorrupt, KindLimit, KindTimeout:
		return false
	}
	return true
}

// SessionError is the typed failure a supervised phase ends in after the
// retry policy is exhausted. It wraps the final attempt's error.
type SessionError struct {
	Phase    Phase
	Kind     Kind
	Attempts int
	Err      error
}

func (e *SessionError) Error() string {
	return fmt.Sprintf("supervisor: %s failed (%s) after %d attempt(s): %v", e.Phase, e.Kind, e.Attempts, e.Err)
}

func (e *SessionError) Unwrap() error { return e.Err }

// PanicError is a recovered panic converted into an error, carrying the
// goroutine stack at the panic site.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// HangError is the watchdog's verdict on a phase that did not finish in
// time.
type HangError struct {
	Phase Phase
	After time.Duration
}

func (e *HangError) Error() string {
	return fmt.Sprintf("%s hung: no result after %v (watchdog)", e.Phase, e.After)
}

// Classify maps an error to its failure kind.
func Classify(err error) Kind {
	var pe *PanicError
	var he *HangError
	var de *pinplay.DivergenceError
	switch {
	case errors.As(err, &pe):
		return KindPanic
	case errors.As(err, &he):
		return KindTimeout
	case errors.Is(err, pinball.ErrNotPinball),
		errors.Is(err, pinball.ErrVersionSkew),
		errors.Is(err, pinball.ErrTruncated),
		errors.Is(err, pinball.ErrCorrupt),
		errors.Is(err, pinball.ErrUnsalvageable):
		return KindCorrupt
	case errors.Is(err, pinplay.ErrLimit):
		return KindLimit
	case errors.As(err, &de):
		return KindDivergence
	case errors.Is(err, pinplay.ErrReplay):
		return KindDivergence
	}
	return KindError
}

// Options tunes the retry policy. The zero value means: 3 attempts,
// 10ms initial backoff doubling to at most 1s, no jitter, no watchdog.
type Options struct {
	// MaxAttempts caps how often a retryable failure is retried
	// (0 = default 3; 1 = never retry).
	MaxAttempts int
	// Backoff is the sleep before the first retry; it doubles per retry
	// up to BackoffMax (defaults 10ms and 1s).
	Backoff    time.Duration
	BackoffMax time.Duration
	// Jitter spreads each retry sleep uniformly over
	// [b·(1−Jitter), b·(1+Jitter)] around the exponential base b, so a
	// population of sessions retrying the same transient fault (the
	// session daemon's workers) does not retry in lockstep. 0 means no
	// jitter; values are clamped to [0, 1].
	Jitter float64
	// Rand replaces the jitter's uniform [0,1) source in tests.
	Rand func() float64
	// Watchdog bounds each attempt's wall-clock time (0 = no watchdog).
	// A fired watchdog abandons the attempt's goroutine — pair it with a
	// vm deadline limit so the abandoned replay also stops itself.
	Watchdog time.Duration
	// RetryBudget caps the total wall-clock the phase may spend across
	// attempts and backoff sleeps (0 = no cap). Once launching another
	// retry could not complete inside the budget — elapsed time plus the
	// pending sleep reaches it — the phase fails with the last attempt's
	// error instead of retrying. The session daemon derives it from the
	// session's quota deadline, so a retry storm can never outlive the
	// watchdog allowance the client was promised.
	RetryBudget time.Duration
	// Now replaces time.Now in tests (paired with Sleep for fully
	// deterministic budget accounting).
	Now func() time.Time
	// OnRetry observes each retry decision (attempt just failed, err why).
	OnRetry func(attempt int, err error)
	// Sleep replaces time.Sleep in tests.
	Sleep func(time.Duration)
}

func (o Options) withDefaults() Options {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 10 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Jitter < 0 {
		o.Jitter = 0
	}
	if o.Jitter > 1 {
		o.Jitter = 1
	}
	if o.Rand == nil {
		o.Rand = rand.Float64
	}
	return o
}

// jittered spreads b uniformly over [b·(1−j), b·(1+j)]; j = 0 returns b
// unchanged. Only the sleep is jittered — the exponential base keeps
// doubling undisturbed, so jitter never compounds across retries.
func (o Options) jittered(b time.Duration) time.Duration {
	if o.Jitter == 0 {
		return b
	}
	f := 1 + o.Jitter*(2*o.Rand()-1)
	return time.Duration(float64(b) * f)
}

// DecorrelatedJitter returns the next sleep of a decorrelated-jitter
// backoff sequence: drawn uniformly from [base, 3·prev] and capped at
// max. Unlike exponential backoff with symmetric jitter, successive
// sleeps are decoupled from the retry ordinal, so a population of
// clients hammering the same recovering peer (the fleet coordinator's
// per-worker retries) spreads out instead of re-synchronising at every
// doubling step. Pass prev = 0 (or base) for the first retry; feed each
// result back as the next prev. rnd replaces the uniform [0,1) source
// in tests; nil uses the global math/rand source.
func DecorrelatedJitter(prev, base, max time.Duration, rnd func() float64) time.Duration {
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if max <= 0 {
		max = time.Second
	}
	if prev < base {
		prev = base
	}
	if rnd == nil {
		rnd = rand.Float64
	}
	d := base + time.Duration(rnd()*float64(3*prev-base))
	if d > max {
		d = max
	}
	return d
}

// FailoverPolicy tunes Failover. The zero value tries 3 candidates in
// turn with a 10ms..1s decorrelated-jitter backoff and never hedges.
type FailoverPolicy struct {
	// Attempts bounds the dispatches of one race, hedges included
	// (default 3).
	Attempts int
	// Base and Max shape the decorrelated-jitter backoff waited after a
	// failed attempt before the next candidate is dispatched.
	Base time.Duration
	Max  time.Duration
	// HedgeAfter dispatches the next candidate alongside a straggler
	// that has not answered this long after the race began (0 = never
	// hedge). Only idempotent work may be hedged.
	HedgeAfter time.Duration
	// Sleep and Rand inject the backoff's timing and jitter (nil =
	// time.Sleep / math/rand). The hedge timer is always real time.
	Sleep func(time.Duration)
	Rand  func() float64
}

// ErrNoCandidates is Failover's error when there is nothing to try.
var ErrNoCandidates = errors.New("supervisor: no candidate to try")

// Failover races try over n ranked candidates, best first. It starts
// candidate 0; an attempt that returns an error costs one backoff
// before the next candidate is dispatched, and a race still unanswered
// after HedgeAfter dispatches the next candidate alongside the running
// ones. The first success wins and cancels every other attempt's ctx.
// Attempts and ctx bound the whole race. It returns the winner, the
// winner's index and the number of dispatches; on failure the error is
// the last attempt's (or ctx's). try must treat any answer that should
// not fail over as a success, and return promptly once its ctx ends:
// Failover does not wait for losers, so a winner is never held up by a
// loser's teardown.
func Failover[T any](ctx context.Context, n int, p FailoverPolicy, try func(ctx context.Context, i int) (T, error)) (T, int, int, error) {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	var zero T
	limit := min(n, p.Attempts)
	if limit <= 0 {
		return zero, -1, 0, ErrNoCandidates
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		v   T
		i   int
		err error
	}
	results := make(chan result, limit) // one slot per dispatch: a loser never blocks
	next, running := 0, 0
	launch := func() {
		i := next
		next++
		running++
		go func() {
			v, err := try(ctx, i)
			results <- result{v, i, err}
		}()
	}
	launch()

	var hedge <-chan time.Time
	if p.HedgeAfter > 0 && limit > 1 {
		t := time.NewTimer(p.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	var backoff chan struct{} // non-nil while a backoff wait is pending
	var prev time.Duration
	var lastErr error
	for running > 0 || backoff != nil {
		select {
		case r := <-results:
			running--
			if r.err == nil {
				return r.v, r.i, next, nil
			}
			lastErr = r.err
			if next < limit && backoff == nil {
				prev = DecorrelatedJitter(prev, p.Base, p.Max, p.Rand)
				backoff = make(chan struct{})
				go func(d time.Duration, done chan struct{}) {
					p.Sleep(d)
					close(done)
				}(prev, backoff)
			}
		case <-backoff:
			backoff = nil
			launch()
		case <-hedge:
			hedge = nil
			// Hedge a straggler only; after a failure the pending backoff
			// dispatches the next candidate.
			if running > 0 && backoff == nil && next < limit {
				launch()
			}
		case <-ctx.Done():
			return zero, -1, next, ctx.Err()
		}
	}
	return zero, -1, next, lastErr
}

// Attempt records one supervised execution of the phase function.
type Attempt struct {
	N    int    `json:"n"`
	Kind Kind   `json:"kind"`
	Err  string `json:"error"`
}

// Report is the structured outcome of a supervised phase, serialisable
// as JSON for tooling.
type Report struct {
	Phase    Phase     `json:"phase"`
	Attempts []Attempt `json:"attempts,omitempty"` // failed attempts only
	// Recovered means the phase succeeded after at least one failed
	// attempt; Degraded means it succeeded only via checkpoint-anchored
	// partial replay, reaching RecoveredStep of the region.
	Recovered     bool  `json:"recovered,omitempty"`
	Degraded      bool  `json:"degraded,omitempty"`
	RecoveredStep int64 `json:"recovered_step,omitempty"`
	// BudgetExhausted marks a failure where retries remained under
	// MaxAttempts but the RetryBudget wall-clock cap stopped them.
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
	// Kind and Failure describe the final failure when the phase did not
	// succeed at all.
	Kind    Kind   `json:"kind,omitempty"`
	Failure string `json:"failure,omitempty"`
}

// runOnce executes fn in its own goroutine with panic isolation and the
// watchdog applied. A fired watchdog abandons the goroutine: its result
// is discarded whenever it does finish.
func runOnce(phase Phase, watchdog time.Duration, fn func() error) error {
	done := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- &PanicError{Value: p, Stack: debug.Stack()}
			}
		}()
		done <- fn()
	}()
	if watchdog <= 0 {
		return <-done
	}
	t := time.NewTimer(watchdog)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return &HangError{Phase: phase, After: watchdog}
	}
}

// Run executes fn under the supervisor's policy: panic isolation, the
// watchdog, and retry-with-exponential-backoff for retryable kinds. The
// report is non-nil in every outcome; on failure the returned error is a
// *SessionError wrapping the last attempt's error.
func Run(phase Phase, opts Options, fn func() error) (*Report, error) {
	o := opts.withDefaults()
	rep := &Report{Phase: phase}
	backoff := o.Backoff
	start := o.Now()
	var err error
	for attempt := 1; ; attempt++ {
		err = runOnce(phase, o.Watchdog, fn)
		if err == nil {
			rep.Recovered = attempt > 1
			return rep, nil
		}
		kind := Classify(err)
		rep.Attempts = append(rep.Attempts, Attempt{N: attempt, Kind: kind, Err: err.Error()})
		if !kind.Retryable() || attempt >= o.MaxAttempts {
			break
		}
		sleep := o.jittered(backoff)
		if o.RetryBudget > 0 && o.Now().Sub(start)+sleep >= o.RetryBudget {
			// Another retry could not complete inside the wall-clock
			// budget; fail now rather than outlive the promised deadline.
			rep.BudgetExhausted = true
			break
		}
		if o.OnRetry != nil {
			o.OnRetry(attempt, err)
		}
		o.Sleep(sleep)
		if backoff *= 2; backoff > o.BackoffMax {
			backoff = o.BackoffMax
		}
	}
	se := &SessionError{Phase: phase, Kind: Classify(err), Attempts: len(rep.Attempts), Err: err}
	rep.Kind, rep.Failure = se.Kind, se.Error()
	return rep, se
}
