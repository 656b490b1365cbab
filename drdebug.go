// Package drdebug is the public API of the DrDebug reproduction: cyclic,
// interactive debugging of multi-threaded programs built on deterministic
// record/replay (PinPlay-style pinballs) and highly precise dynamic
// slicing, after "DrDebug: Deterministic Replay based Cyclic Debugging
// with Dynamic Slicing" (CGO 2014).
//
// The workflow mirrors the paper's Figure 2:
//
//	prog, _  := drdebug.Compile("bug.c", source)        // mini-C -> machine code
//	sess, _  := drdebug.RecordFailure(prog, cfg, 0)     // capture buggy region
//	m, _     := sess.Replay(nil)                        // deterministic replay
//	sl, _    := sess.SliceAtFailure()                   // dynamic slice
//	spb, _, _ := sess.ExecutionSlice(sl)                // slice pinball (§4)
//	st, _    := sess.NewStepper(sl)                     // step the execution slice
//
// Programs are written in mini-C (package cc) or assembly (package asm)
// and execute on the deterministic multi-threaded VM substrate; bugs can
// be exposed with the integrated Maple reimplementation (FindBug) and the
// interactive gdb-style debugger (NewDebugger) drives the whole loop.
package drdebug

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/debugger"
	"repro/internal/isa"
	"repro/internal/maple"
	"repro/internal/pinball"
	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/supervisor"
	"repro/internal/tracer"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Core workflow types, re-exported.
type (
	// Program is an executable for the VM substrate.
	Program = isa.Program
	// Session is one cyclic-debugging session over a recorded pinball.
	Session = core.Session
	// Stepper walks an execution slice forward, statement by statement.
	Stepper = core.Stepper
	// StepPoint is one stop of a Stepper.
	StepPoint = core.StepPoint
	// Pinball is a captured execution region.
	Pinball = pinball.Pinball
	// Slice is a computed backward dynamic slice.
	Slice = slice.Slice
	// SliceOptions controls slicer precision features.
	SliceOptions = slice.Options
	// ParallelSlicer is the sharded parallel slicing engine.
	ParallelSlicer = slice.ParallelSlicer
	// ParallelSliceOptions configures the parallel engine's build phase.
	ParallelSliceOptions = slice.ParallelOptions
	// SliceEngineStats reports the parallel engine's accounting.
	SliceEngineStats = slice.EngineStats
	// SliceFile is the persisted, session-independent form of a slice.
	SliceFile = slice.File
	// Trace is the dynamic def/use information collected from a replay.
	Trace = tracer.Trace
	// LogConfig configures native executions (seed, input, quanta).
	LogConfig = pinplay.LogConfig
	// RegionSpec selects an execution region in skip/length form.
	RegionSpec = pinplay.RegionSpec
	// ReplayOptions controls checkpoint validation, limits and observers.
	ReplayOptions = pinplay.ReplayOptions
	// ReplayReport summarises what a replay verified.
	ReplayReport = pinplay.ReplayReport
	// Divergence pins a replay divergence to its first bad window.
	Divergence = pinplay.Divergence
	// DivergenceError is the typed replay-divergence failure.
	DivergenceError = pinplay.DivergenceError
	// Limits bounds an execution: instruction budget, deadline, memory.
	Limits = vm.Limits
	// Machine is the VM executing a program.
	Machine = vm.Machine
	// Debugger is the interactive gdb-style front-end.
	Debugger = debugger.Debugger
	// MapleResult reports a bug exposed by the Maple workflow.
	MapleResult = maple.Result
	// MapleOptions configures the Maple workflow.
	MapleOptions = maple.Options
	// Workload is a registered benchmark program.
	Workload = workloads.Workload
	// SalvageReport describes a pinball salvage attempt.
	SalvageReport = pinball.SalvageReport
	// SessionError is the typed failure of a supervised session phase.
	SessionError = supervisor.SessionError
	// PanicError is a panic the supervisor recovered and converted.
	PanicError = supervisor.PanicError
	// HangError is the supervisor watchdog's verdict on a hung phase.
	HangError = supervisor.HangError
	// SupervisorOptions tunes the self-healing supervisor's retry policy.
	SupervisorOptions = supervisor.Options
	// SupervisorReport is the structured outcome of a supervised phase.
	SupervisorReport = supervisor.Report
	// SupervisedReplayResult is what a supervised replay hands back.
	SupervisedReplayResult = supervisor.ReplayResult
	// Eviction is one evicted flight-recorder window in a ring pinball's
	// gap manifest (retained hash included for bridge verification).
	Eviction = pinball.Eviction
	// Recipe is the recording configuration a gapped pinball retains so
	// gap bridging can re-derive evicted windows.
	Recipe = pinball.Recipe
	// RingStats reports what flight-recorder mode kept and evicted.
	RingStats = pinplay.RingStats
	// BridgeReport summarises a gap-bridging replay: windows re-derived,
	// instructions re-executed, and which windows failed verification.
	BridgeReport = pinplay.BridgeReport
	// BridgeError is the typed failure of a gap bridge whose re-derived
	// window hash did not match the retained one.
	BridgeError = pinplay.BridgeError
	// Provenance tags trace content and slice edges as exact, bridged, or
	// estimated (flight-recorder mode).
	Provenance = tracer.Provenance
	// ProvSummary is a slice's provenance breakdown.
	ProvSummary = slice.ProvSummary
)

// Provenance levels, re-exported.
const (
	ProvExact     = tracer.ProvExact
	ProvBridged   = tracer.ProvBridged
	ProvEstimated = tracer.ProvEstimated
)

// Typed failure classes, re-exported so tools can classify errors with
// errors.Is: the pinball.Err* family means "the pinball file is bad"
// (unreadable, corrupt, truncated, wrong version); ErrReplay means "the
// pinball loaded but its replay failed" (checkpoint divergence, schedule
// mismatch, or an execution limit hit).
var (
	ErrNotPinball  = pinball.ErrNotPinball
	ErrVersionSkew = pinball.ErrVersionSkew
	ErrTruncated   = pinball.ErrTruncated
	ErrCorrupt     = pinball.ErrCorrupt
	ErrReplay      = pinplay.ErrReplay
	// ErrLimit marks replays cut off by an execution limit (budget,
	// deadline, memory cap, cancellation) rather than a divergence.
	ErrLimit = pinplay.ErrLimit
	// ErrUnsalvageable marks damaged pinball files Salvage cannot repair.
	ErrUnsalvageable = pinball.ErrUnsalvageable
	// ErrBridge marks gap-bridging replays whose re-derived window failed
	// hash verification (a subclass of ErrReplay).
	ErrBridge = pinplay.ErrBridge
)

// Timeout builds Limits bounding an execution by an instruction budget
// and a wall-clock duration (either may be zero for unbounded).
func Timeout(steps int64, d time.Duration) Limits { return vm.Timeout(steps, d) }

// Compile builds a mini-C source string into a program.
func Compile(name, src string) (*Program, error) {
	return cc.CompileSource(name, src)
}

// CompileFile builds a mini-C (.c) or assembly (.s) source file.
func CompileFile(path string) (*Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("drdebug: %w", err)
	}
	if len(path) > 2 && path[len(path)-2:] == ".s" {
		return asm.Assemble(path, string(src))
	}
	return cc.CompileSource(path, string(src))
}

// Assemble builds an assembly source string into a program.
func Assemble(name, src string) (*Program, error) {
	return asm.Assemble(name, src)
}

// RecordRegion captures an execution region (fast-forward SkipMain, then
// record LengthMain main-thread instructions) and opens a session on the
// resulting pinball.
func RecordRegion(prog *Program, cfg LogConfig, spec RegionSpec) (*Session, error) {
	return core.RecordRegion(prog, cfg, spec)
}

// RecordFailure captures from skipMain to the program's failure point; it
// fails if the execution does not fail under the configured schedule.
func RecordFailure(prog *Program, cfg LogConfig, skipMain int64) (*Session, error) {
	return core.RecordFailure(prog, cfg, skipMain)
}

// Open starts a session over an existing pinball (e.g. one produced by
// FindBug).
func Open(prog *Program, pb *Pinball) *Session { return core.Open(prog, pb) }

// LoadSession opens a session from a pinball file.
func LoadSession(prog *Program, pinballPath string) (*Session, error) {
	return core.LoadSession(prog, pinballPath)
}

// LoadPinball reads a pinball file.
func LoadPinball(path string) (*Pinball, error) { return pinball.Load(path) }

// SalvagePinball recovers a usable pinball from a damaged file: the
// longest checksum-valid prefix of sections is kept, and an interrupted
// recording journal is truncated to its last intact divergence
// checkpoint. The report is non-nil even when salvage fails.
func SalvagePinball(path string) (*Pinball, *SalvageReport, error) {
	return pinball.Salvage(path)
}

// LoadSessionSalvage is LoadSession with automatic salvage of a damaged
// pinball file; the report is nil when the file was intact.
func LoadSessionSalvage(prog *Program, pinballPath string) (*Session, *SalvageReport, error) {
	return core.LoadSessionSalvage(prog, pinballPath)
}

// SupervisedReplay replays a pinball under the self-healing supervisor:
// panic isolation, watchdog, retry-with-backoff, and checkpoint-anchored
// degraded recovery when the replay keeps diverging.
func SupervisedReplay(prog *Program, pb *Pinball, opts SupervisorOptions, ropts ReplayOptions) (*SupervisedReplayResult, error) {
	return supervisor.Replay(prog, pb, opts, ropts)
}

// LoadSliceFile reads a slice file saved with Session.SaveSlice.
func LoadSliceFile(path string) (*SliceFile, error) { return slice.LoadFile(path) }

// Replay deterministically re-executes a pinball and returns the machine
// at the end of the region (or at the reproduced failure). Divergence
// checkpoints recorded in the pinball are verified along the way.
func Replay(prog *Program, pb *Pinball) (*Machine, error) {
	return pinplay.Replay(prog, pb, nil)
}

// ReplayWithOptions is Replay with full control over checkpoint
// validation policy, execution limits and observers, returning the
// verification report. It dispatches on the pinball kind, so slice
// pinballs replay correctly too.
func ReplayWithOptions(prog *Program, pb *Pinball, opts ReplayOptions) (*Machine, *ReplayReport, error) {
	return pinplay.ReplayWith(prog, pb, opts)
}

// NewDebugger creates the interactive debugger for a program.
func NewDebugger(prog *Program, cfg LogConfig) *Debugger {
	return debugger.New(prog, cfg)
}

// FindBug runs the Maple workflow (profiling + active scheduling with
// logging) until the program fails, returning the failing pinball ready
// for replay-based debugging. Cancelling ctx (or letting its deadline
// pass) stops the exploration mid-run; nil means no cancellation.
func FindBug(ctx context.Context, prog *Program, cfg LogConfig, opts MapleOptions) (*MapleResult, error) {
	return maple.FindBug(ctx, prog, cfg, opts)
}

// WorkloadByName returns one of the registered benchmark programs (the
// PARSEC-like and SPEC OMP-like kernels and the Table 1 bugs).
func WorkloadByName(name string) (*Workload, error) { return workloads.ByName(name) }

// Workloads lists every registered benchmark program.
func Workloads() []*Workload { return workloads.All() }

// DefaultSliceOptions is the paper's default slicer configuration:
// control dependences on, CFG refinement on, save/restore pruning on with
// MaxSave=10.
func DefaultSliceOptions() SliceOptions { return slice.DefaultOptions() }

// NewParallelSlicer builds the sharded parallel slicing engine over a
// collected trace. Slice results are bit-identical to the paper's
// sequential slicer (slice.New) for every criterion and worker count.
func NewParallelSlicer(prog *Program, tr *Trace, opts SliceOptions, popts ParallelSliceOptions) (*ParallelSlicer, error) {
	return slice.NewParallel(prog, tr, opts, popts)
}

// CFGCacheStats reports the process-lifetime CFG/post-dominator cache
// counters.
func CFGCacheStats() cfg.CacheStats { return cfg.GraphCacheStats() }

// SliceEngineCacheStats reports the process-lifetime parallel-engine
// cache counters (engines keyed by pinball identity and slice options).
func SliceEngineCacheStats() slice.EngineCacheStats { return slice.GetEngineCacheStats() }
