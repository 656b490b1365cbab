package pinplay

import (
	"errors"
	"fmt"

	"repro/internal/fnv1a"
	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/vm"
)

// Gap-bridging replay. A flight-recorder pinball has holes: windows the
// ring evicted, each survived only by its step span and windowed event
// hash. Replaying such a pinball cannot feed the recorded streams back
// (they are gone for the gaps) — instead the bridge re-executes the whole
// region natively from the pinball's initial state with the recipe's
// resumed scheduler and environment, which reproduces the original
// execution deterministically. The re-derivation is then proved, not
// assumed: every divergence checkpoint is validated en route, and each
// evicted window's re-derived event hash is compared against the retained
// one. A mismatch is a typed outcome — BridgeError under the strict
// policy, an "estimated" window under ReplayOptions.BridgeEstimates —
// never a silently wrong answer.

// ErrBridge marks gap-bridge verification failures: the re-derived
// content of an evicted window did not match its retained divergence
// hash. Bridge errors wrap both ErrReplay and ErrBridge.
var ErrBridge = errors.New("gap bridge verification failed")

// BridgeError is the typed verification failure for one evicted window.
type BridgeError struct {
	Ev   pinball.Eviction
	Want uint64
	Got  uint64
}

func (e *BridgeError) Error() string {
	return fmt.Sprintf("pinplay: gap bridge verification failed: %v re-derived with hash %016x", e.Ev, e.Got)
}

// Is makes errors.Is match both ErrReplay and ErrBridge.
func (e *BridgeError) Is(target error) bool { return target == ErrReplay || target == ErrBridge }

// BridgeReport summarises a gap-bridging replay.
type BridgeReport struct {
	Windows   int   // evicted windows bridged
	GapInstrs int64 // instructions re-derived by re-execution
	Exact     int   // windows whose re-derived hash matched the retained one
	// Estimated lists the windows whose verification failed but which the
	// BridgeEstimates policy let the replay carry as estimated content.
	Estimated []pinball.Eviction
}

// Degraded reports whether any bridged window failed verification.
func (b *BridgeReport) Degraded() bool { return b != nil && len(b.Estimated) > 0 }

// primedScheduler replays the recipe's in-flight quantum first, then
// hands over to the resumed scheduler. A recording region rarely starts
// on a quantum boundary, but a machine rebuilt from a snapshot always
// asks for a fresh scheduling decision — without the priming, the bridge
// would preempt earlier than the original execution did.
type primedScheduler struct {
	first vm.Quantum
	used  bool
	next  vm.Scheduler
}

func (s *primedScheduler) Pick(runnable []int) (int, int64) {
	if !s.used {
		s.used = true
		for _, tid := range runnable {
			if tid == s.first.Tid {
				return s.first.Tid, s.first.Count
			}
		}
	}
	return s.next.Pick(runnable)
}

// gapHasher recomputes, during the bridge run, the windowed FNV-1a event
// hash over each evicted window's step span — the same fold the recorder
// applied when it sealed the window.
type gapHasher struct {
	vm.NopTracer
	evs  []pinball.Eviction
	pos  int
	step int64
	h    uint64
	got  []uint64
	done []bool
}

func newGapHasher(evs []pinball.Eviction) *gapHasher {
	return &gapHasher{evs: evs, h: fnv1a.Offset, got: make([]uint64, len(evs)), done: make([]bool, len(evs))}
}

func (g *gapHasher) OnInstr(ev *vm.InstrEvent) {
	g.step++
	if g.pos >= len(g.evs) {
		return
	}
	e := g.evs[g.pos]
	if g.step <= e.FromStep {
		return
	}
	g.h = foldEvent(g.h, ev)
	if g.step == e.ToStep {
		g.got[g.pos], g.done[g.pos] = g.h, true
		g.h = fnv1a.Offset
		g.pos++
	}
}

// bridgeMachine builds the native re-execution machine for a gapped
// pinball: state restored, scheduler and environment resumed from the
// recipe, the checkpoint validator and the gap hasher chained in front of
// the caller's tracer, and limits clamped so that a tampered recipe can
// never run the bridge away (at most RegionInstrs+1 instructions).
func bridgeMachine(prog *isa.Program, pb *pinball.Pinball, opts ReplayOptions) (*vm.Machine, *checkpointValidator, *gapHasher) {
	rc := pb.Recipe
	var sched vm.Scheduler = vm.ResumeRandomScheduler(rc.SchedState, rc.MeanQ)
	if rc.CurLeft > 0 {
		sched = &primedScheduler{first: vm.Quantum{Tid: rc.CurTid, Count: rc.CurLeft}, next: sched}
	}
	env := vm.ResumeNativeEnv(rc.EnvInput, vm.EnvState{
		InputPos: int(rc.EnvPos), RandState: rc.EnvRand, Clock: rc.EnvClock,
	})
	m := vm.NewFromState(prog, pb.State, vm.Config{Sched: sched, Env: env})

	gh := newGapHasher(pb.Evictions)
	var v *checkpointValidator
	if !opts.NoVerify {
		v = newValidator(m, pb, opts.Degraded, opts.OnDivergence)
	}
	tracers := vm.MultiTracer{gh}
	if v != nil {
		tracers = append(tracers, v)
	}
	if opts.Tracer != nil {
		tracers = append(tracers, opts.Tracer)
	}
	m.SetTracer(tracers)

	lim := opts.Limits
	if lim.Steps <= 0 || lim.Steps > pb.RegionInstrs+1 {
		lim.Steps = pb.RegionInstrs + 1
	}
	m.SetLimits(lim)
	if opts.OnMachine != nil {
		opts.OnMachine(m)
	}
	return m, v, gh
}

// replayBridged is the gapped-pinball path of ReplayWith: the bridge run
// IS the replay. It executes exactly the recorded region length, fails on
// checkpoint divergence like a normal replay, and then settles each
// evicted window: hash match → exact bridge; mismatch → BridgeError, or
// an estimated window under the BridgeEstimates policy.
func replayBridged(prog *isa.Program, pb *pinball.Pinball, opts ReplayOptions) (*vm.Machine, *ReplayReport, error) {
	m, v, gh := bridgeMachine(prog, pb, opts)
	total := pb.RegionInstrs
	var executed int64
	rep := &ReplayReport{Bridge: &BridgeReport{Windows: len(pb.Evictions), GapInstrs: pb.GapInstrs()}}
	for executed < total && m.StepOne() {
		executed++
		if d := v.failed(); d != nil {
			rep.Executed = executed
			rep.Checked, rep.Divergences = v.report()
			return m, rep, &DivergenceError{Div: *d}
		}
	}
	earlyFailure := executed < total && m.Stopped() == vm.StopFailure && pb.Failure != nil
	if !m.Stopped().LimitStop() {
		v.finish(earlyFailure)
	}
	rep.Executed = executed
	rep.Checked, rep.Divergences = v.report()
	if d := v.failed(); d != nil {
		return m, rep, &DivergenceError{Div: *d}
	}
	if executed < total && !earlyFailure {
		if m.Stopped().LimitStop() {
			return m, rep, limitErr(m, executed, total)
		}
		return m, rep, fmt.Errorf("%w: bridged replay executed %d of %d instructions (stop: %v)",
			ErrReplay, executed, total, m.Stopped())
	}
	for i, e := range pb.Evictions {
		if gh.done[i] && gh.got[i] == e.Hash {
			rep.Bridge.Exact++
			continue
		}
		if opts.BridgeEstimates {
			rep.Bridge.Estimated = append(rep.Bridge.Estimated, e)
			continue
		}
		return m, rep, &BridgeError{Ev: e, Want: e.Hash, Got: gh.got[i]}
	}
	// Reproduce a trailing machine fault (not counted in the region), as
	// the normal replay path does.
	if pb.Failure != nil && m.Running() {
		m.StepOne()
	}
	return m, rep, nil
}

// BridgePinball materialises a gapped pinball into a complete one: the
// bridge run regenerates the full schedule, syscall and order-edge
// streams, which replace the retained fragments. The returned pinball has
// no evictions and replays like any other; the report says which windows
// verified exactly and which are estimated (the BridgeEstimates policy is
// implied — callers that want strict verification use ReplayWith). The
// caller decides what estimated content means for its analysis: the
// session layer maps it to estimated slice provenance.
func BridgePinball(prog *isa.Program, pb *pinball.Pinball, opts ReplayOptions) (*pinball.Pinball, *BridgeReport, error) {
	if !pb.Gapped() {
		return pb, &BridgeReport{}, nil
	}
	rec := &recordTracer{}
	if opts.Tracer != nil {
		opts.Tracer = vm.MultiTracer{rec, opts.Tracer}
	} else {
		opts.Tracer = rec
	}
	opts.BridgeEstimates = true
	m, rep, err := replayBridged(prog, pb, opts)
	if err != nil {
		return nil, rep.Bridge, err
	}
	out := *pb
	out.Quanta = append([]vm.Quantum(nil), m.Quanta()...)
	out.Syscalls = rec.syscalls
	out.OrderEdges = rec.edges
	out.Evictions = nil
	out.Recipe = nil
	if err := out.Validate(); err != nil {
		return nil, rep.Bridge, fmt.Errorf("%w: bridged pinball is inconsistent: %v", ErrReplay, err)
	}
	return &out, rep.Bridge, nil
}
