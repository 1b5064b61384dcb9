package interp

import (
	"sync/atomic"

	"evolvevm/internal/bytecode"
)

// This file is the engine side of background tier compilation: the job
// and queue types a compilation pool implements (internal/bgcompile),
// the per-Code in-flight bitmask that keeps the hot path from touching
// the pool more than once per missing plan, and the tier-promotion
// helper the generated run loop calls at the promotion point.
//
// Determinism: which host tier executes an iteration is never a virtual
// observable — results, traps, cycles, samples, and ledgers are proven
// bit-identical across every tier by the difftest soaks — so a plan
// that lands at a wall-clock-racy moment changes only host speed. That
// is the entire correctness argument for building plans on background
// goroutines (see DESIGN.md §15).

// CompileJob is one deferred trace-plan build. The engine enqueues it
// when a Code crosses its hotness threshold without a trace plan; a pool
// worker calls Build, or Discard when the job is dropped or
// deduplicated, so the Code's in-flight bit is always released exactly
// once. Trace plans are the only plans built in the background:
// execution plans (fuse.go) are cheap enough to build inline on first
// use.
type CompileJob struct {
	Code *Code
	// Mode is the CALL-inlining flag (the trace plan slot).
	Mode bool
	// Peek is the code-table snapshot for trace-tier callee inlining,
	// captured on the engine's goroutine at enqueue time (the live
	// PeekCode may read state owned by the engine's goroutine, so a
	// background builder must never call it). Nil for engines without a
	// code table; inlining then refuses callees, which is always safe —
	// inline sites re-guard at run time anyway.
	Peek func(int) *Code
	// Priority is the Code's sampler count at enqueue time; hotter code
	// compiles first.
	Priority int64
}

// Build performs the job's plan build and CAS install, releasing the
// in-flight bit. It reports whether the install won (false: another
// builder got there first, or a trace rebuild found nothing to improve).
func (j CompileJob) Build() bool {
	defer j.Code.clearPending(j.Mode)
	return j.Code.installTracePlan(j.Mode, j.Peek)
}

// Discard releases the job's in-flight bit without building — the pool
// calls it for dropped and dedup-suppressed jobs so the owning engine
// can re-enqueue on a later promotion attempt.
func (j CompileJob) Discard() { j.Code.clearPending(j.Mode) }

// CompileQueue accepts deferred plan builds. Submit must not block:
// bounded implementations drop (and Discard) rather than stall the
// submitting engine.
type CompileQueue interface {
	Submit(CompileJob)
}

// pendingBit maps an inline mode to its bit in Code.pending.
func pendingBit(mode bool) uint32 {
	if mode {
		return 2
	}
	return 1
}

// markPending claims the in-flight bit for mode, reporting
// whether this caller won it. While the bit is held, every other engine
// sharing the Code skips its own enqueue — a thundering herd of cold
// tenants triggers exactly one Submit per missing plan.
func (c *Code) markPending(mode bool) bool {
	bit := pendingBit(mode)
	for {
		old := c.pending.Load()
		if old&bit != 0 {
			return false
		}
		if c.pending.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

// clearPending releases the in-flight bit for mode.
func (c *Code) clearPending(mode bool) {
	for {
		old := c.pending.Load()
		next := old &^ pendingBit(mode)
		if old == next || c.pending.CompareAndSwap(old, next) {
			return
		}
	}
}

// traceHot reports whether the code has earned register conversion.
func (e *Engine) traceHot(code *Code) bool {
	return e.Tiers.Stress&StressEagerReg != 0 || (code.Level >= 0 && code.samples.Load() >= TraceHotSamples)
}

// traceTier returns the register trace plan code should run under, or
// nil. A built plan whose provisional inline refusals could now succeed
// (retry) is rebuilt — inline in synchronous mode, through the queue in
// asynchronous mode, where the stale plan keeps running until the
// rebuilt one is installed.
func (e *Engine) traceTier(code *Code) *tracePlan {
	inline := e.Tiers.Stress&StressNoInline == 0
	slot := 0
	if inline {
		slot = 1
	}
	if p := code.traces[slot].Load(); p != nil {
		if !p.retry(e.PeekCode) {
			return p
		}
	} else if !e.traceHot(code) {
		return nil
	}
	// Eager builds stay inline even with a queue attached: the suites
	// that set StressEagerReg need the plan before the first instruction.
	if e.BgCompile != nil && e.Tiers.Stress&StressEagerReg == 0 {
		e.enqueueCompile(code, inline)
		return code.traces[slot].Load()
	}
	code.installTracePlan(inline, e.PeekCode)
	return code.traces[slot].Load()
}

// enqueueCompile submits one trace build to the background queue, gated
// by the Code's in-flight bit so the pool sees at most one job per
// missing plan regardless of how many engines share the Code. The job
// carries a code-table snapshot taken here, on the engine's goroutine.
func (e *Engine) enqueueCompile(code *Code, inline bool) {
	if !code.markPending(inline) {
		return
	}
	e.BgCompile.Submit(CompileJob{Code: code, Mode: inline,
		Peek: e.snapshotPeek(), Priority: code.samples.Load()})
}

// snapshotPeek captures the engine's current code table as an immutable
// snapshot a background builder may read freely. The live PeekCode can
// alias per-run state mutated by the engine's goroutine (vm.Machine's
// current-code table), so handing it to a worker would race; the
// snapshot is taken here, where calling PeekCode is legal. A stale
// snapshot is always safe — inlined call sites re-validate the callee
// fingerprint at run time.
func (e *Engine) snapshotPeek() func(int) *Code {
	if e.PeekCode == nil {
		return nil
	}
	snap := make([]*Code, len(e.Prog.Funcs))
	for i := range snap {
		snap[i] = e.PeekCode(i)
	}
	return func(fnIdx int) *Code {
		if fnIdx < 0 || fnIdx >= len(snap) {
			return nil
		}
		return snap[fnIdx]
	}
}

// WarmJob returns the background-compile job for the trace plan the
// code has earned (by level and sampler count) but not yet built in the
// given inline mode, claiming the job's in-flight bit; ok is false when
// there is nothing to build (or the code is too cold to bother). The
// serving front end calls this at epoch barriers to pre-warm the
// published winning chain, so cold tenants inherit compiled plans along
// with learned state.
func (c *Code) WarmJob(inline bool, peek func(int) *Code) (job CompileJob, ok bool) {
	if c.Level < 0 {
		return CompileJob{}, false
	}
	n := c.samples.Load()
	slot := 0
	if inline {
		slot = 1
	}
	// An inline-mode trace build without a code table would permanently
	// pin a degraded plan for loops containing calls: a nil peek refuses
	// CALL outright, without recording the callee as provisionally
	// missing, so no retry-rebuild would ever fire. Those codes wait for
	// an engine with a real table instead.
	if n < TraceHotSamples || c.traces[slot].Load() != nil ||
		(inline && peek == nil && c.hasCall()) ||
		!c.markPending(inline) {
		return CompileJob{}, false
	}
	return CompileJob{Code: c, Mode: inline, Peek: peek, Priority: n}, true
}

// hasCall reports whether the code contains any CALL instruction.
func (c *Code) hasCall() bool {
	for _, in := range c.Instrs {
		if in.Op == bytecode.CALL {
			return true
		}
	}
	return false
}

// compileStats counts plan-install CAS races lost process-wide: a loser
// paid for a full build whose result was discarded. Nonzero values are
// expected under concurrent engines sharing Codes; the counters exist so
// "how much build work is wasted" is measurable rather than folklore.
var compileStats struct {
	lostPlans  atomic.Int64
	lostTraces atomic.Int64
}

// PlanInstallStats is a point-in-time snapshot of the plan-install race
// counters (host-side diagnostics, never a virtual observable).
type PlanInstallStats struct {
	// Lost* count CompareAndSwap installs that found the slot already
	// filled by a concurrent builder, per plan form.
	LostPlans  int64 `json:"lost_plans"`
	LostTraces int64 `json:"lost_traces"`
}

// ReadPlanInstallStats snapshots the process-global install-race counters.
func ReadPlanInstallStats() PlanInstallStats {
	return PlanInstallStats{
		LostPlans:  compileStats.lostPlans.Load(),
		LostTraces: compileStats.lostTraces.Load(),
	}
}
