package sessiond

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"time"

	"repro/internal/supervisor"
)

// BreakerConfig tunes the per-pinball circuit breaker.
type BreakerConfig struct {
	// K is the consecutive-failure threshold that opens a pinball's
	// circuit (default 3; negative disables the breaker).
	K int
	// Cooldown is how long an opened circuit rejects before letting a
	// trial request through (default 30s).
	Cooldown time.Duration
}

// breaker is the per-pinball circuit breaker: sessions against a
// pinball whose content has failed K times in a row fail fast with the
// cached failure report until the cooldown expires (see
// supervisor.Breaker for the trial/re-open rules).
//
// Keys are content digests of the pinball file, not paths: replacing a
// corrupt file with a good one under the same name closes its circuit
// instantly, and copying a corrupt file to a new path does not reset
// its failure history.
type breaker struct{ *supervisor.Breaker }

func newBreaker(cfg BreakerConfig, now func() time.Time) *breaker {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 30 * time.Second
	}
	return &breaker{supervisor.NewBreaker(cfg.K, cfg.Cooldown, now)}
}

// pinballContentID digests a pinball file's bytes for breaker keying.
// Unlike pinball.Pinball.ID it works on files that do not even load —
// the breaker's most important customers. An unreadable file keys on
// its path (the best identity available).
func pinballContentID(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "path:" + path
	}
	defer f.Close()
	h := fnv.New64a()
	if _, err := io.Copy(h, f); err != nil {
		return "path:" + path
	}
	var buf [8]byte
	sum := h.Sum64()
	for i := range buf {
		buf[i] = byte(sum >> (8 * i))
	}
	return string(buf[:])
}

// RouteKey derives a stable routing identity for a request — the key
// the fleet's rendezvous hash places on a worker. Requests naming a
// pinball key on its content digest (the same bytes always land on the
// same worker, so its engine LRU stays hot; renaming or copying the
// file does not move it), record requests key on their output path, and
// anything else on its program source.
func RouteKey(req *Request) string {
	switch {
	case req.Digest != "":
		// Digest-named requests (sessions by digest, store fetch/stat)
		// route on the digest itself: the rendezvous owner of
		// "digest:<d>" is where store_put replicates first, so sessions
		// land where the bytes already are.
		return "digest:" + req.Digest
	case req.Pinball != "":
		return pinballContentID(req.Pinball)
	case req.Out != "":
		return "out:" + req.Out
	default:
		return "prog:" + req.File + ":" + req.Workload
	}
}

func (b *breaker) check(id string) (bool, string, string) { return b.Check(id) }
func (b *breaker) failure(id, code, msg string)           { b.Failure(id, code, msg) }
func (b *breaker) success(id string)                      { b.Success(id) }
func (b *breaker) openCount() int                         { return b.OpenCount() }

// snapshot reports every tracked circuit's state for the stats op,
// sorted by key so the JSON shape is deterministic. Keys are rendered
// hex (content digests are raw bytes on the wire otherwise).
func (b *breaker) snapshot() []BreakerState {
	var out []BreakerState
	for _, e := range b.Snapshot() {
		st := BreakerState{
			Pinball:     fmt.Sprintf("%x", e.Key),
			Open:        e.Open,
			Consecutive: e.Consecutive,
			LastCode:    e.Code,
		}
		if st.Open {
			st.CooldownUntilMS = e.OpenUntil.UnixMilli()
		}
		out = append(out, st)
	}
	return out
}
