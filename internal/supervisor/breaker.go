package supervisor

import (
	"sort"
	"sync"
	"time"
)

// Breaker is a keyed consecutive-failure circuit breaker. A key that
// fails K times in a row is open for the cooldown: callers fail fast
// (optionally with the cached failure code and message) or route
// around it. When the cooldown expires one (or a raced few) trial
// requests pass; a further failure re-opens the circuit immediately,
// because the count is retained, while a success closes it.
//
// The session daemon keys it on pinball content and the fleet
// coordinator on worker names; only the policy (what counts as a
// failure, the cooldown) differs.
type Breaker struct {
	k        int
	cooldown time.Duration
	now      func() time.Time

	mu      sync.Mutex
	entries map[string]*BreakerEntry
}

// BreakerEntry is one tracked key's failure history, as Snapshot
// reports it: the consecutive-failure count, the cached failure code
// and message, and when an opened circuit closes again.
type BreakerEntry struct {
	Key         string
	Open        bool
	Consecutive int
	Code, Msg   string
	OpenUntil   time.Time
}

// NewBreaker returns a breaker that opens after k consecutive failures
// (0 means 3; negative disables it) for the given cooldown. now is the
// clock (nil means time.Now).
func NewBreaker(k int, cooldown time.Duration, now func() time.Time) *Breaker {
	if k == 0 {
		k = 3
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker{k: k, cooldown: cooldown, now: now, entries: make(map[string]*BreakerEntry)}
}

// Check reports whether key's circuit is open and, when it is, the
// cached failure code and message.
func (b *Breaker) Check(key string) (open bool, code, msg string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[key]
	if !ok || !b.now().Before(e.OpenUntil) {
		return false, "", ""
	}
	return true, e.Code, e.Msg
}

// Failure records one failure of key; the K-th consecutive one opens
// the circuit for the cooldown. A disabled breaker and the empty key
// record nothing, so their circuits never open.
func (b *Breaker) Failure(key, code, msg string) {
	if b.k < 0 || key == "" {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[key]
	if !ok {
		e = &BreakerEntry{Key: key}
		b.entries[key] = e
	}
	e.Consecutive++
	e.Code, e.Msg = code, msg
	if e.Consecutive >= b.k {
		e.OpenUntil = b.now().Add(b.cooldown)
	}
}

// Success closes key's circuit and forgets its failure history.
func (b *Breaker) Success(key string) {
	b.mu.Lock()
	delete(b.entries, key)
	b.mu.Unlock()
}

// OpenCount reports how many circuits are currently open.
func (b *Breaker) OpenCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	n := 0
	for _, e := range b.entries {
		if now.Before(e.OpenUntil) {
			n++
		}
	}
	return n
}

// Snapshot reports every tracked key's state, sorted by key.
func (b *Breaker) Snapshot() []BreakerEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	out := make([]BreakerEntry, 0, len(b.entries))
	for _, e := range b.entries {
		st := *e
		st.Open = now.Before(e.OpenUntil)
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
