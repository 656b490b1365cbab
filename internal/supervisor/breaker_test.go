package supervisor

import (
	"testing"
	"time"
)

func TestBreakerDisabledAndSnapshot(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }

	off := NewBreaker(-1, time.Minute, clock)
	for i := 0; i < 5; i++ {
		off.Failure("k", "corrupt", "bad")
	}
	if open, _, _ := off.Check("k"); open || off.OpenCount() != 0 || len(off.Snapshot()) != 0 {
		t.Fatal("disabled breaker opened or tracked a key")
	}

	b := NewBreaker(0, time.Minute, clock) // 0 means the default K of 3
	b.Failure("", "corrupt", "empty key")
	for i := 0; i < 3; i++ {
		b.Failure("b", "corrupt", "bad header")
	}
	b.Failure("a", "divergence", "window 2")
	snap := b.Snapshot()
	if len(snap) != 2 || snap[0].Key != "a" || snap[1].Key != "b" {
		t.Fatalf("snapshot keys: %+v", snap)
	}
	if snap[0].Open || !snap[1].Open || snap[1].Consecutive != 3 || snap[1].Code != "corrupt" ||
		!snap[1].OpenUntil.Equal(now.Add(time.Minute)) {
		t.Fatalf("snapshot states: %+v", snap)
	}
	if b.OpenCount() != 1 {
		t.Fatalf("OpenCount = %d, want 1", b.OpenCount())
	}
}
