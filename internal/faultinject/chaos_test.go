package faultinject

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/supervisor"
	"repro/internal/vm"
)

// The chaos suite is the differential harness for the durability layer:
// it tears recording files at every crash point and injects panics,
// stalls and persistent divergence into supervised phases, asserting the
// system-wide invariant — every fault either fully recovers (the
// salvaged pinball replays bit-identically to the original execution's
// prefix) or is reported as a typed error. Never a hang, never a
// silently wrong result.

// regionSpec is the recording region the chaos tests run on: short
// enough that hundreds of crash points replay in seconds.
func regionSpec() pinplay.RegionSpec {
	return pinplay.RegionSpec{SkipMain: 150, LengthMain: 600}
}

// makeRegion compiles the workload and logs one region pinball.
func makeRegion(t *testing.T) (*isa.Program, *pinball.Pinball) {
	t.Helper()
	prog := compileT(t)
	pb, err := pinplay.Log(prog, logConfig(), regionSpec())
	if err != nil {
		t.Fatalf("log region: %v", err)
	}
	if len(pb.Checkpoints) < 4 {
		t.Fatalf("region recorded only %d checkpoints", len(pb.Checkpoints))
	}
	return prog, pb
}

// typedPinballErr reports whether err wraps one of the pinball format's
// typed sentinels — the decode contract for damaged files.
func typedPinballErr(err error) bool {
	return errors.Is(err, pinball.ErrTruncated) ||
		errors.Is(err, pinball.ErrCorrupt) ||
		errors.Is(err, pinball.ErrNotPinball) ||
		errors.Is(err, pinball.ErrVersionSkew)
}

// sameState reports whether two replay machines ended in identical
// memory and program output.
func sameState(a, b *vm.Machine) bool {
	if !a.Snapshot().Mem.Equal(b.Snapshot().Mem) {
		return false
	}
	ao, bo := a.Output(), b.Output()
	if len(ao) != len(bo) {
		return false
	}
	for i := range ao {
		if ao[i] != bo[i] {
			return false
		}
	}
	return true
}

// TestJournalCrashPoints tears a committed recording journal at every
// frame boundary, header byte and payload midpoint, and checks the full
// durability contract at each (checkCrashPoints).
func TestJournalCrashPoints(t *testing.T) {
	prog := compileT(t)
	cfg := logConfig()
	cfg.JournalPath = filepath.Join(t.TempDir(), "rec.journal")
	cfg.JournalEvery = 128
	cfg.JournalNoSync = true
	pb, err := pinplay.Log(prog, cfg, regionSpec())
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	data, err := os.ReadFile(cfg.JournalPath)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	// Sanity: the committed journal IS the recording.
	if got, err := pinball.Decode(data); err != nil {
		t.Fatalf("decode committed journal: %v", err)
	} else if got.ID() != pb.ID() {
		t.Fatalf("journal pinball id %x != recorded %x", got.ID(), pb.ID())
	}
	if pts := CrashPoints(data); len(pts) < 20 {
		t.Fatalf("only %d crash points in a %d-byte journal", len(pts), len(data))
	}
	salvaged, unsalvageable, unverified := checkCrashPoints(t, prog, "journal", pb, data)
	if unverified > 0 {
		t.Errorf("%d journal salvages lost every checkpoint — a journal tear must anchor at one or keep the region verified", unverified)
	}
	if salvaged == 0 {
		t.Error("no crash point was salvageable — the journal never anchored a checkpoint")
	}
	if unsalvageable == 0 {
		t.Error("no crash point was unsalvageable — early tears should cost the meta/state frames")
	}
}

// TestOneShotCrashPoints applies the same contract to what Save writes
// for every pinball kind: the whole recording as one committed journal.
// A tear past the schedule chunk must salvage for every kind.
func TestOneShotCrashPoints(t *testing.T) {
	prog := compileT(t)
	for kind, pb := range makePinballs(t) {
		data, err := pb.EncodeBytes()
		if err != nil {
			t.Fatalf("encode %v: %v", kind, err)
		}
		if salvaged, _, _ := checkCrashPoints(t, prog, string(kind), pb, data); salvaged == 0 {
			t.Errorf("%v: no crash point was salvageable — a tear past the schedule keeps the region", kind)
		}
	}
}

// checkCrashPoints tears data, the encoding of pb, at every crash point:
// Decode must reject each torn file typed, and Salvage must either
// truncate it to a divergence checkpoint whose prefix replays
// bit-identically to the original recording (or, with the final meta
// and the whole schedule intact, recover the whole region, which must
// replay identically), or refuse typed. unverified counts the whole-region
// salvages that lost every checkpoint.
func checkCrashPoints(t *testing.T, prog *isa.Program, label string, pb *pinball.Pinball, data []byte) (salvaged, unsalvageable, unverified int) {
	t.Helper()
	pts := CrashPoints(data)
	refs := map[int64]*vm.Machine{} // original-prefix replays, by step
	for _, cp := range pts {
		torn := TornCopy(data, cp)
		if len(torn) == len(data) {
			continue // the "crash" lost nothing
		}
		name := label + "/" + cp.Name
		if _, err := pinball.Decode(torn); err == nil {
			t.Errorf("%s: torn file decoded cleanly", name)
			continue
		} else if !typedPinballErr(err) {
			t.Errorf("%s: decode error is untyped: %v", name, err)
		}
		spb, rep, err := pinball.SalvageBytes(torn)
		if err != nil {
			if !errors.Is(err, pinball.ErrUnsalvageable) {
				t.Errorf("%s: salvage error is untyped: %v", name, err)
			}
			unsalvageable++
			continue
		}
		salvaged++
		if rep.Truncated && (rep.Unverified || rep.CheckpointStep != spb.RegionInstrs) ||
			!rep.Truncated && (rep.Unverified != (len(spb.Checkpoints) == 0) || spb.RegionInstrs != pb.RegionInstrs) {
			t.Errorf("%s: report (truncated=%v unverified=%v step=%d) inconsistent with pinball (%d of %d instrs)",
				name, rep.Truncated, rep.Unverified, rep.CheckpointStep, spb.RegionInstrs, pb.RegionInstrs)
			continue
		}
		if rep.Unverified {
			unverified++
		}
		m, _, err := pinplay.ReplayWith(prog, spb, boundedOpts())
		if err != nil {
			t.Errorf("%s: salvaged pinball does not replay: %v", name, err)
			continue
		}
		ref := refs[spb.RegionInstrs]
		if ref == nil {
			if ref, _, err = pinplay.ReplayToStep(prog, pb, spb.RegionInstrs, boundedOpts()); err != nil {
				t.Fatalf("%s: reference prefix replay to %d: %v", name, spb.RegionInstrs, err)
			}
			refs[spb.RegionInstrs] = ref
		}
		if !sameState(m, ref) {
			t.Errorf("%s: salvaged replay diverges from the original execution's first %d instructions",
				name, spb.RegionInstrs)
		}
	}
	t.Logf("%s: %d crash points, %d salvaged (%d unverified), %d refused typed", label, len(pts), salvaged, unverified, unsalvageable)
	return salvaged, unsalvageable, unverified
}

// TestMidRecordAbortSalvages simulates the recording process dying just
// before its commit lands (the final meta and the commit marker) — the
// canonical mid-record crash — and checks the strict loader refuses with
// guidance while Salvage recovers a checkpoint-exact prefix.
func TestMidRecordAbortSalvages(t *testing.T) {
	prog := compileT(t)
	cfg := logConfig()
	cfg.JournalPath = filepath.Join(t.TempDir(), "rec.journal")
	cfg.JournalEvery = 128
	cfg.JournalNoSync = true
	pb, err := pinplay.Log(prog, cfg, regionSpec())
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	data, err := os.ReadFile(cfg.JournalPath)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	secs := sections(data)
	if len(secs) < 3 {
		t.Fatalf("journal has only %d frames", len(secs))
	}
	last := len(secs) - 1
	for secs[last].ID != 1 { // the final meta frame opens the commit
		last--
	}
	torn := clone(data[:secs[last].Off])

	_, err = pinball.Decode(torn)
	if !errors.Is(err, pinball.ErrTruncated) {
		t.Fatalf("uncommitted journal decode error = %v, want ErrTruncated", err)
	}
	if !strings.Contains(err.Error(), "commit") {
		t.Fatalf("error does not explain the missing commit frame: %v", err)
	}

	spb, rep, err := pinball.SalvageBytes(torn)
	if err != nil {
		t.Fatalf("salvage: %v", err)
	}
	if rep.Committed || !rep.Truncated {
		t.Fatalf("report: committed=%v truncated=%v, want uncommitted+truncated", rep.Committed, rep.Truncated)
	}
	if spb.EndReason != "salvaged" || spb.Failure != nil {
		t.Fatalf("salvaged pinball: end=%q failure=%v", spb.EndReason, spb.Failure)
	}
	m, _, err := pinplay.ReplayWith(prog, spb, boundedOpts())
	if err != nil {
		t.Fatalf("salvaged replay: %v", err)
	}
	ref, _, err := pinplay.ReplayToStep(prog, pb, spb.RegionInstrs, boundedOpts())
	if err != nil {
		t.Fatalf("reference prefix replay: %v", err)
	}
	if !sameState(m, ref) {
		t.Fatal("salvaged replay diverges from the original execution's prefix")
	}
}

// TestInjectedPanicIsolated injects a panicking tracer into a supervised
// replay: the panic must surface as a typed session error carrying the
// panic site's stack — after the full retry budget, since a panic could
// be transient — and must never crash the caller.
func TestInjectedPanicIsolated(t *testing.T) {
	prog, pb := makeRegion(t)
	var sleeps []time.Duration
	opts := supervisor.Options{
		MaxAttempts: 3,
		Sleep:       func(d time.Duration) { sleeps = append(sleeps, d) },
	}
	ropts := boundedOpts()
	ropts.Tracer = &PanicTracer{After: 100}
	res, err := supervisor.Replay(prog, pb, opts, ropts)
	var se *supervisor.SessionError
	if !errors.As(err, &se) {
		t.Fatalf("error = %v (%T), want *SessionError", err, err)
	}
	if se.Kind != supervisor.KindPanic || se.Attempts != 3 {
		t.Fatalf("SessionError kind=%s attempts=%d, want panic after 3", se.Kind, se.Attempts)
	}
	var pe *supervisor.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error does not carry the PanicError: %v", err)
	}
	if !strings.Contains(pe.Error(), "injected tracer panic") || len(pe.Stack) == 0 {
		t.Fatalf("PanicError lost the panic value or stack: %v", pe)
	}
	if len(sleeps) != 2 {
		t.Fatalf("backoff slept %d times, want 2 (between 3 attempts)", len(sleeps))
	}
	if res.Report.Kind != supervisor.KindPanic || len(res.Report.Attempts) != 3 {
		t.Fatalf("report kind=%s attempts=%d", res.Report.Kind, len(res.Report.Attempts))
	}
}

// TestStalledReplayWatchdog injects a tracer that blocks mid-replay: the
// watchdog must convert the hang into a typed timeout, fast and without
// retrying (a hang re-hangs).
func TestStalledReplayWatchdog(t *testing.T) {
	prog, pb := makeRegion(t)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // let the abandoned goroutine finish
	ropts := boundedOpts()
	ropts.Tracer = &StallTracer{After: 100, Release: release}
	opts := supervisor.Options{
		MaxAttempts: 3,
		Watchdog:    100 * time.Millisecond,
		Sleep:       func(time.Duration) {},
	}
	start := time.Now()
	_, err := supervisor.Replay(prog, pb, opts, ropts)
	elapsed := time.Since(start)
	var se *supervisor.SessionError
	if !errors.As(err, &se) {
		t.Fatalf("error = %v (%T), want *SessionError", err, err)
	}
	if se.Kind != supervisor.KindTimeout || se.Attempts != 1 {
		t.Fatalf("SessionError kind=%s attempts=%d, want timeout after exactly 1", se.Kind, se.Attempts)
	}
	var he *supervisor.HangError
	if !errors.As(err, &he) {
		t.Fatalf("error does not carry the HangError: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("watchdog verdict took %v — the hang leaked into the caller", elapsed)
	}
}

// TestPersistentDivergenceDegrades tampers a mid-region checkpoint so
// every replay attempt diverges, and checks the supervisor's last line
// of defence: checkpoint-anchored degraded recovery, whose machine state
// must match the clean recording's prefix exactly.
func TestPersistentDivergenceDegrades(t *testing.T) {
	prog, pb := makeRegion(t)
	bad, err := Clone(pb)
	if err != nil {
		t.Fatalf("clone: %v", err)
	}
	bad.Checkpoints[len(bad.Checkpoints)/2].Hash ^= 0xDEADBEEF

	opts := supervisor.Options{MaxAttempts: 2, Sleep: func(time.Duration) {}}
	res, err := supervisor.Replay(prog, bad, opts, boundedOpts())
	if err != nil {
		t.Fatalf("degraded recovery failed: %v", err)
	}
	if !res.Degraded || res.RecoveredStep <= 0 {
		t.Fatalf("degraded=%v step=%d, want checkpoint-anchored recovery", res.Degraded, res.RecoveredStep)
	}
	if len(res.Report.Attempts) != 2 || !res.Report.Degraded || res.Report.RecoveredStep != res.RecoveredStep {
		t.Fatalf("report: %+v", res.Report)
	}
	ref, _, err := pinplay.ReplayToStep(prog, pb, res.RecoveredStep, boundedOpts())
	if err != nil {
		t.Fatalf("reference prefix replay: %v", err)
	}
	if !sameState(res.Machine, ref) {
		t.Fatal("degraded machine state diverges from the clean recording's prefix")
	}
}

// TestChaosMatrixNeverHangs sweeps the semantic corruptor suite through
// the supervisor: every tampered pinball must come back as a typed
// session error or a degraded recovery within the execution bounds.
func TestChaosMatrixNeverHangs(t *testing.T) {
	prog, pb := makeRegion(t)
	opts := supervisor.Options{MaxAttempts: 2, Sleep: func(time.Duration) {}}
	for _, c := range PinballCorruptors() {
		if c.SliceOnly {
			continue
		}
		bad, err := Clone(pb)
		if err != nil {
			t.Fatalf("%s: clone: %v", c.Name, err)
		}
		if !c.Apply(bad) {
			t.Errorf("%s: corruptor not applicable", c.Name)
			continue
		}
		if err := bad.Validate(); err != nil {
			continue // rejected at load time — never reaches the supervisor
		}
		start := time.Now()
		res, err := supervisor.Replay(prog, bad, opts, boundedOpts())
		elapsed := time.Since(start)
		if elapsed > 30*time.Second {
			t.Errorf("%s: supervised verdict took %v", c.Name, elapsed)
		}
		if err == nil {
			if !res.Degraded {
				t.Errorf("%s: tampered pinball replayed cleanly under supervision", c.Name)
			}
			continue
		}
		var se *supervisor.SessionError
		if !errors.As(err, &se) {
			t.Errorf("%s: error %v (%T) is not a typed SessionError", c.Name, err, err)
		}
	}
}
