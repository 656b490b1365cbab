// Package pinball defines the on-disk capture format of the PinPlay-style
// record/replay system: the initial architecture state of an execution
// region plus every source of nondeterminism needed to reproduce it — the
// thread schedule (run-length quanta), system-call results and the
// shared-memory access order. Slice pinballs additionally carry the code
// exclusion regions and the side-effect injections that let the replayer
// skip everything outside an execution slice (paper Section 4).
package pinball

import (
	"fmt"

	"repro/internal/fnv1a"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Kind distinguishes how a pinball was produced.
type Kind string

// Pinball kinds.
const (
	KindRegion Kind = "region" // captured region of a native execution
	KindWhole  Kind = "whole"  // region spanning the whole execution
	KindSlice  Kind = "slice"  // relogged execution slice
)

// Exclusion is one code-exclusion region for one thread, in the paper's
// [startPc:sinstance:tid, endPc:einstance:tid) notation, plus the
// mechanically exact per-thread dynamic instruction index range
// [FromIdx, ToIdx) it denotes.
type Exclusion struct {
	Tid           int
	StartPC       int64
	StartInstance int64 // which dynamic execution of StartPC opens the region
	EndPC         int64
	EndInstance   int64
	FromIdx       int64 // first excluded per-thread instruction index
	ToIdx         int64 // first index after the excluded range
}

func (e Exclusion) String() string {
	return fmt.Sprintf("[%d:%d:%d, %d:%d:%d)", e.StartPC, e.StartInstance, e.Tid, e.EndPC, e.EndInstance, e.Tid)
}

// MemWrite is one injected memory cell.
type MemWrite struct {
	Addr int64
	Val  int64
}

// Injection restores the side effects of one skipped exclusion region:
// when slice replay reaches AtStep executed-instructions, thread Tid's
// registers are replaced, its pc moved past the region, and the region's
// memory writes applied — PinPlay's "injecting modified memory cells and
// registers" (paper Figure 6b).
type Injection struct {
	AtStep int64 // ordinal among the slice pinball's executed instructions
	Tid    int
	NewPC  int64
	// NewCount restores the thread's per-thread dynamic instruction
	// index to its original-execution value, so instruction identities
	// (tid, idx) remain stable between region replay and slice replay.
	NewCount int64
	Regs     [isa.NumRegs]int64 // full register file at region exit
	Mem      []MemWrite
}

// Pinball is a captured execution (region). It contains everything needed
// to deterministically re-execute: where execution starts (State), which
// thread runs when (Quanta), what the environment answered (Syscalls),
// and — for analysis tools — the shared-memory access order (OrderEdges).
type Pinball struct {
	ProgramName string
	Kind        Kind

	State    *vm.MachineState
	Quanta   []vm.Quantum
	Syscalls []vm.SyscallRecord

	// OrderEdges is the shared-memory access order observed while
	// logging; the slicer's global-trace construction consumes it.
	OrderEdges []vm.OrderEdge

	// Region accounting.
	RegionInstrs int64 // instructions in the region, all threads
	MainInstrs   int64 // instructions executed by the main thread
	SkipMain     int64 // main-thread instructions skipped before logging

	// EndReason records why logging stopped: "length", "halt", "exit",
	// "failure", "deadlock" or "manual".
	EndReason string
	Failure   *vm.Failure

	// Slice pinballs only.
	Exclusions []Exclusion
	Injections []Injection

	// Divergence checkpoints: per-thread rolling-hash snapshots taken
	// every CheckpointEvery instructions while logging, validated during
	// replay so a divergent replay fails fast inside the first bad
	// window instead of at the terminal instruction-count mismatch.
	// Empty when checkpointing was disabled.
	CheckpointEvery int64
	Checkpoints     []Checkpoint

	// Flight-recorder (ring) fields. RingBytes is the configured retained
	// byte budget (0 = ring mode off); SampleKeep the keep-1-in-N window
	// sampling policy (0 or 1 = keep every window). Evictions lists the
	// windows the recorder dropped, ascending by step span; Recipe carries
	// the region-entry nondeterminism state that lets a replayer re-derive
	// them. See ring.go.
	RingBytes  int64
	SampleKeep int64
	Evictions  []Eviction
	Recipe     *Recipe
}

// DefaultCheckpointEvery is the default per-thread checkpoint cadence in
// instructions.
const DefaultCheckpointEvery = 1024

// Checkpoint is one divergence checkpoint: after thread Tid's Seq'th
// instruction of the region, the rolling hash of its instruction stream
// (pc, effective address, value, control target per instruction) was
// Hash, and the thread sat at PC with register file Regs. Replay
// recomputes the same hash and compares when the thread reaches Seq.
type Checkpoint struct {
	Tid  int
	Seq  int64 // region instructions executed by Tid when taken (k*CheckpointEvery)
	Idx  int64 // per-thread dynamic index of the last hashed instruction
	Step int64 // global executed-instruction ordinal within the region
	Hash uint64
	PC   int64
	Regs [isa.NumRegs]int64
}

// TotalQuantumInstrs returns the number of instructions the pinball's
// schedule executes.
func (p *Pinball) TotalQuantumInstrs() int64 {
	var n int64
	for _, q := range p.Quanta {
		n += q.Count
	}
	return n
}

// Validate checks the pinball's structural invariants — the properties
// every pinball produced by the logger/relogger holds and the replayer
// relies on. Load runs it so that a tampered-but-well-framed file is
// rejected before it can send a replay spinning. All failures wrap
// ErrCorrupt.
func (p *Pinball) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
	switch p.Kind {
	case KindRegion, KindWhole, KindSlice:
	default:
		return bad("unknown pinball kind %q", p.Kind)
	}
	if p.State == nil {
		return bad("no machine state")
	}
	if len(p.State.Threads) == 0 {
		return bad("machine state has no threads")
	}
	for i, ts := range p.State.Threads {
		if ts.ID != i {
			return bad("thread state %d has id %d", i, ts.ID)
		}
	}
	if p.RegionInstrs < 0 || p.MainInstrs < 0 || p.SkipMain < 0 {
		return bad("negative region accounting")
	}
	if p.MainInstrs > p.RegionInstrs {
		return bad("main-thread instructions %d exceed region total %d", p.MainInstrs, p.RegionInstrs)
	}
	var total int64
	for i, q := range p.Quanta {
		if q.Tid < 0 || q.Tid >= vm.MaxThreads {
			return bad("quantum %d has thread id %d", i, q.Tid)
		}
		if q.Count <= 0 {
			return bad("quantum %d has count %d", i, q.Count)
		}
		total += q.Count
	}
	if err := p.validateRing(bad); err != nil {
		return err
	}
	if total+p.GapInstrs() != p.RegionInstrs {
		return bad("schedule covers %d instructions plus %d evicted but region claims %d", total, p.GapInstrs(), p.RegionInstrs)
	}
	for i, s := range p.Syscalls {
		if s.Tid < 0 || s.Tid >= vm.MaxThreads {
			return bad("syscall %d has thread id %d", i, s.Tid)
		}
	}
	for i, e := range p.Exclusions {
		if e.Tid < 0 || e.Tid >= vm.MaxThreads {
			return bad("exclusion %d has thread id %d", i, e.Tid)
		}
		if e.FromIdx >= e.ToIdx {
			return bad("exclusion %d has empty index range [%d, %d)", i, e.FromIdx, e.ToIdx)
		}
	}
	var lastStep int64
	for i, in := range p.Injections {
		if in.Tid < 0 || in.Tid >= vm.MaxThreads {
			return bad("injection %d has thread id %d", i, in.Tid)
		}
		if in.AtStep < lastStep || in.AtStep > total {
			return bad("injection %d at step %d out of order or past region end %d", i, in.AtStep, total)
		}
		lastStep = in.AtStep
	}
	if p.CheckpointEvery < 0 {
		return bad("negative checkpoint cadence %d", p.CheckpointEvery)
	}
	if len(p.Checkpoints) > 0 && p.CheckpointEvery == 0 {
		return bad("checkpoints present without a cadence")
	}
	lastSeq := map[int]int64{}
	for i, cp := range p.Checkpoints {
		if cp.Tid < 0 || cp.Tid >= vm.MaxThreads {
			return bad("checkpoint %d has thread id %d", i, cp.Tid)
		}
		if cp.Seq <= lastSeq[cp.Tid] {
			return bad("checkpoint %d for thread %d out of order (seq %d)", i, cp.Tid, cp.Seq)
		}
		if cp.Step < 1 || cp.Step > total+p.GapInstrs() {
			return bad("checkpoint %d at step %d outside region of %d", i, cp.Step, total+p.GapInstrs())
		}
		lastSeq[cp.Tid] = cp.Seq
	}
	if f := p.Failure; f != nil {
		if f.Tid < 0 || f.Tid >= vm.MaxThreads {
			return bad("failure has thread id %d", f.Tid)
		}
		if f.Reason == "" {
			return bad("failure without a reason")
		}
	}
	return nil
}

// ID returns a stable content digest of the pinball, used as the cache
// key for process-lifetime slicing artefacts (dependence shards, CFGs,
// forward-pass metadata): two loads of the same pinball file share one
// cache entry, and a different recording — even of the same program —
// gets a different key. The digest folds the structural identity of the
// capture (program, kind, region accounting, schedule, syscalls, order
// edges) plus every divergence-checkpoint hash, which pins down the
// recorded instruction stream itself.
func (p *Pinball) ID() string {
	h := fnv1a.Offset
	fold := func(v int64) { h = fnv1a.Fold(h, uint64(v)) }
	for _, b := range []byte(p.ProgramName) {
		fold(int64(b))
	}
	for _, b := range []byte(p.Kind) {
		fold(int64(b))
	}
	fold(p.RegionInstrs)
	fold(p.MainInstrs)
	fold(p.SkipMain)
	fold(p.CheckpointEvery)
	for _, q := range p.Quanta {
		fold(int64(q.Tid))
		fold(q.Count)
	}
	for _, s := range p.Syscalls {
		fold(int64(s.Tid))
		fold(s.Num)
		fold(s.Arg)
		fold(s.Ret)
	}
	for _, e := range p.OrderEdges {
		fold(int64(e.FromTid))
		fold(e.FromIdx)
		fold(int64(e.ToTid))
		fold(e.ToIdx)
	}
	for _, cp := range p.Checkpoints {
		fold(int64(cp.Tid))
		fold(cp.Seq)
		fold(int64(cp.Hash))
		fold(cp.PC)
	}
	for _, ex := range p.Exclusions {
		fold(int64(ex.Tid))
		fold(ex.FromIdx)
		fold(ex.ToIdx)
	}
	fold(p.RingBytes)
	fold(p.SampleKeep)
	for _, e := range p.Evictions {
		fold(e.ID)
		fold(e.FromStep)
		fold(e.ToStep)
		fold(int64(e.Hash))
	}
	if r := p.Recipe; r != nil {
		fold(int64(r.SchedState))
		fold(r.MeanQ)
		fold(int64(r.CurTid))
		fold(r.CurLeft)
		fold(int64(r.EnvRand))
		fold(r.EnvClock)
		fold(r.EnvPos)
		for _, v := range r.EnvInput {
			fold(v)
		}
	}
	return fmt.Sprintf("%016x", h)
}
