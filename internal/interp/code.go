// Package interp implements the execution engine of the evolvable VM: an
// evaluator that runs executable code forms under a deterministic
// virtual-cycle clock with stride-based method sampling.
//
// The same evaluator executes every compilation tier. The baseline tier
// (level −1) runs a function's original bytecode at the baseline per-opcode
// cycle costs; optimized tiers (levels 0–2, produced by internal/jit) run
// rewritten bytecode at reduced per-opcode costs, modelling better code
// generation. Virtual cycles make every run bit-reproducible — the
// substitution for wall-clock time on the paper's hardware (see DESIGN.md).
package interp

import (
	"math"
	"sync/atomic"

	"evolvevm/internal/bytecode"
)

// BaselineScalePct is the per-op cost multiplier of the baseline
// interpreter tier, in percent.
const BaselineScalePct = 100

// BaseCost returns the baseline interpreter cycle cost of op, read from
// the generated single-source cost table in internal/bytecode.
func BaseCost(op bytecode.Op) int64 { return bytecode.OpCost(op) }

// Code is an executable form of one function: instructions (original or
// optimizer-rewritten), a constant pool, and precomputed per-instruction
// cycle costs. The VM keeps one current Code per function and swaps it on
// recompilation.
type Code struct {
	FnIdx    int
	Name     string
	Level    int // −1 baseline, 0..2 optimized tiers
	Instrs   []bytecode.Instr
	Consts   []bytecode.Value
	NArgs    int
	NLocals  int
	MaxStack int
	// Cost[i] is the cycle charge of executing Instrs[i].
	Cost []int64
	// Base[i] is the unscaled baseline cost of Instrs[i], used to
	// attribute tier-independent "work" to functions (the oracle's view
	// of how much computation a method performed).
	Base []int64

	// plans caches the host-performance execution plans (see fuse.go):
	// slot 0 without superinstruction fusion, slot 1 with it. Plans are
	// built lazily on first execution and are immutable afterwards, so a
	// Code may be shared by concurrently running engines (the harness
	// code cache does exactly that).
	plans [2]atomic.Pointer[plan]

	// traces caches the register-converted hot-loop traces (trace.go,
	// regir.go): slot 0 without CALL inlining, slot 1 with it. Built
	// once hot, immutable after, shared across engines and runs exactly
	// like plans — a Code cached in jit.Cache carries its register plans,
	// OSR entry maps, and inline guards to every later run (the guards
	// re-validate against each run's own code table, so a stale inlined
	// body can never execute).
	traces [2]atomic.Pointer[tracePlan]

	// fp caches Fingerprint (0 = not yet computed).
	fp atomic.Uint64

	// samples counts deterministic sampler ticks attributed to this code
	// across every engine and run sharing it — the hotness signal that
	// triggers the register tier. Host-side only: the count never feeds
	// back into any virtual observable.
	samples atomic.Int64
}

// TraceHotSamples is the sampler-tick threshold after which an optimized
// Code's loops are register-converted (trace.go). One tick equals a full
// sample stride of executed cycles attributed to the function, so two
// ticks mark genuinely hot code while staying early enough that the
// traces cover most of the remaining execution; each trace additionally
// proves itself by back-edge arrivals before it runs (traceHotEntries).
const TraceHotSamples = 2

// noteSample records one sampler tick for hotness tracking.
func (c *Code) noteSample() { c.samples.Add(1) }

// installTracePlan builds the register-converted trace plan for the
// given inline mode and installs it CAS-once against the plan it is
// replacing (nil on first build; the retried plan on a provisional-
// inline rebuild — each callee flips nil→non-nil at most once per code
// table, so rebuilds are bounded). Competing builders may inline against
// different callee snapshots, but every inlined site re-guards at run
// time, so whichever plan lands is valid under any code table; losers
// discard their build (counted in PlanInstallStats). Reports whether
// this caller's plan was installed.
func (c *Code) installTracePlan(inline bool, peek func(int) *Code) bool {
	slot := 0
	if inline {
		slot = 1
	}
	old := c.traces[slot].Load()
	if old != nil && !old.retry(peek) {
		return false
	}
	p := buildTracePlan(c, inline, peek)
	if !c.traces[slot].CompareAndSwap(old, p) {
		compileStats.lostTraces.Add(1)
		return false
	}
	return true
}

// TraceReady reports whether a trace plan has been built for this code
// in either inline mode (diagnostics; cache tests use it to prove
// register plans travel with cached Codes).
func (c *Code) TraceReady() bool {
	return c.traces[0].Load() != nil || c.traces[1].Load() != nil
}

// TraceInfo summarizes the built trace plan of one inline mode: the
// number of loop-head traces, OSR entry points, and inlined call sites.
// All zeros when no plan is built. Diagnostics; the jit.Cache round-trip
// test uses it to prove OSR entry maps and inline guards travel with
// cached Codes.
func (c *Code) TraceInfo(inline bool) (heads, osrEntries, inlinedCalls int) {
	slot := 0
	if inline {
		slot = 1
	}
	tp := c.traces[slot].Load()
	if tp == nil {
		return 0, 0, 0
	}
	for _, t := range tp.tr {
		if t != nil {
			heads++
			inlinedCalls += len(t.calls)
		}
	}
	for _, t := range tp.osr {
		if t != nil {
			osrEntries++
			inlinedCalls += len(t.calls)
		}
	}
	return heads, osrEntries, inlinedCalls
}

// Fingerprint returns a content hash of the code's observable execution
// behaviour — level, arity, locals, instruction stream, constant pool,
// and cost table — used as the inline guard of the trace tier: an
// inlined callee body may run only while the engine's current code for
// that function still fingerprints the same. Computed lazily and cached;
// two Codes with equal fingerprints execute identically under the
// engine.
func (c *Code) Fingerprint() uint64 {
	if fp := c.fp.Load(); fp != 0 {
		return fp
	}
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(int64(c.Level)))
	mix(uint64(c.NArgs))
	mix(uint64(c.NLocals))
	mix(uint64(len(c.Instrs)))
	for _, in := range c.Instrs {
		mix(uint64(in.Op))
		mix(uint64(int64(in.A)))
		mix(uint64(int64(in.B)))
	}
	mix(uint64(len(c.Consts)))
	for _, v := range c.Consts {
		mix(uint64(v.Kind))
		mix(uint64(v.I))
		mix(math.Float64bits(v.F))
	}
	for _, cost := range c.Cost {
		mix(uint64(cost))
	}
	if h == 0 {
		h = 1 // reserve 0 for "not yet computed"
	}
	c.fp.Store(h)
	return h
}

// planFor returns the execution plan of the code, building it on first
// use. The build is deterministic, so whichever of several concurrent
// builders wins the CAS installs an identical plan; losers discard
// theirs (counted in PlanInstallStats) rather than overwriting.
func (c *Code) planFor(fuse bool) *plan {
	slot := 0
	if fuse {
		slot = 1
	}
	if p := c.plans[slot].Load(); p != nil {
		return p
	}
	p := buildPlan(c, fuse)
	if !c.plans[slot].CompareAndSwap(nil, p) {
		compileStats.lostPlans.Add(1)
		return c.plans[slot].Load()
	}
	return p
}

// NewCode builds an executable form from a function body at the given
// tier cost scale (percent of baseline per-op cost, minimum charge 1).
func NewCode(fnIdx int, f *bytecode.Function, level, scalePct int) *Code {
	c := &Code{
		FnIdx:    fnIdx,
		Name:     f.Name,
		Level:    level,
		Instrs:   f.Code,
		Consts:   f.Consts,
		NArgs:    f.NArgs,
		NLocals:  f.NLocals,
		MaxStack: f.MaxStack,
		Cost:     make([]int64, len(f.Code)),
		Base:     make([]int64, len(f.Code)),
	}
	for i, in := range f.Code {
		cost := bytecode.OpCost(in.Op) * int64(scalePct) / 100
		if cost < 1 {
			cost = 1
		}
		c.Cost[i] = cost
		c.Base[i] = bytecode.OpCost(in.Op)
	}
	return c
}
