package fleet

import (
	"time"

	"repro/internal/supervisor"
)

// BreakerConfig tunes the per-worker transport circuit breaker.
type BreakerConfig struct {
	// K is the consecutive transport-failure threshold that opens a
	// worker's circuit (default 3; negative disables the breaker).
	K int
	// Cooldown is how long an opened circuit keeps the worker out of
	// routing before a trial request is allowed (default 5s).
	Cooldown time.Duration
}

// workerBreaker is the per-worker circuit breaker, layered over
// sessiond's per-pinball breaker: it counts only transport failures
// (dial refused, connection severed, I/O deadline) — a typed session
// failure is the pinball's fault, not the worker's, and charging it
// here would let one corrupt pinball take a healthy worker out of
// routing for everyone.
type workerBreaker struct{ *supervisor.Breaker }

func newWorkerBreaker(cfg BreakerConfig, now func() time.Time) *workerBreaker {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	return &workerBreaker{supervisor.NewBreaker(cfg.K, cfg.Cooldown, now)}
}

// open reports whether name's circuit is open (the router must skip it).
func (b *workerBreaker) open(name string) bool {
	open, _, _ := b.Check(name)
	return open
}

func (b *workerBreaker) failure(name string) { b.Failure(name, "", "") }
func (b *workerBreaker) success(name string) { b.Success(name) }
func (b *workerBreaker) openCount() int      { return b.OpenCount() }
