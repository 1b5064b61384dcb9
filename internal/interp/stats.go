package interp

import "sync/atomic"

// This file exports the trace tier's build- and run-time counters: why
// loops degrade off the register tier (per reason), how often traces are
// entered at their head vs through an OSR entry point, and how often they
// deoptimize back to the switch loop. The counters are host-side only —
// they never feed back into any virtual observable — and exist so a
// benchmark regression is attributable: a call-heavy shape that stops
// inlining shows up as a guard-failure or degradation count, not just a
// slower wall clock. Surfaced by `evolvevm serve` /v1/stats and
// `expdriver -tracestats`.
//
// Build-time counts (built, degraded) go straight to the process-wide
// totals; plan builds are rare. Run-time events are far too frequent for
// shared atomics — every trace entry and side exit would bounce one cache
// line between engines — so they are plain increments on the run's own
// traceCounts, added into the totals once when Run returns (every path
// out of Run: result, trap, cancellation, error). Totals are exact; a
// run's events become visible when it ends.

// Degradation reasons, in the order of the DegradeReasons names.
const (
	degCall     = iota // CALL not inlinable (inlining off, recursive, no peek)
	degRet             // RET on the caller path
	degNewArr          // NEWARR (allocation can start a collection)
	degHalt            // HALT
	degTooLarge        // linearized iteration exceeds traceMaxInstrs
	degRegs            // register file overflow (≥ traceMaxRegs locals+temps)
	degStack           // unbalanced stack: pops below entry or non-neutral back edge
	degCold            // a needed pc has no batchable segment (cold glue code)
	degInner           // walk revisits a segment: an inner loop's back edge
	degCallee          // callee body not inlinable (branchy-to-exit only, nested call, too large)
	degOther
	degCount
)

// DegradeReasons names the per-reason degradation counters, index-aligned
// with the TraceStats.Degrade slice.
var DegradeReasons = [degCount]string{
	"call", "ret", "newarr", "halt", "too-large", "regs",
	"unbalanced-stack", "cold", "inner-loop", "callee", "other",
}

var traceStats struct {
	built    atomic.Int64
	degraded [degCount]atomic.Int64

	headEntries  atomic.Int64
	osrEntries   atomic.Int64
	sideExits    atomic.Int64
	traps        atomic.Int64
	deopts       atomic.Int64
	guardFails   atomic.Int64
	inlinedCalls atomic.Int64
	inlineDeopts atomic.Int64
}

// traceCounts is one run's trace-tier event counts, kept in the pooled
// run scratch so the hot path increments memory no other engine touches.
type traceCounts struct {
	headEntries  int64
	osrEntries   int64
	sideExits    int64
	traps        int64
	deopts       int64
	guardFails   int64
	inlinedCalls int64
	inlineDeopts int64
}

// flush adds the run's counts into the process-wide totals and zeroes
// them for the next run.
func (c *traceCounts) flush() {
	for _, f := range [...]struct {
		dst *atomic.Int64
		n   int64
	}{
		{&traceStats.headEntries, c.headEntries},
		{&traceStats.osrEntries, c.osrEntries},
		{&traceStats.sideExits, c.sideExits},
		{&traceStats.traps, c.traps},
		{&traceStats.deopts, c.deopts},
		{&traceStats.guardFails, c.guardFails},
		{&traceStats.inlinedCalls, c.inlinedCalls},
		{&traceStats.inlineDeopts, c.inlineDeopts},
	} {
		if f.n != 0 {
			f.dst.Add(f.n)
		}
	}
	*c = traceCounts{}
}

// TraceStats is a point-in-time snapshot of the trace tier's counters.
type TraceStats struct {
	// Built counts loops successfully converted to register traces;
	// Degrade counts refusals per reason (DegradeReasons order).
	Built   int64            `json:"built"`
	Degrade map[string]int64 `json:"degrade,omitempty"`

	// HeadEntries counts trace activations at a loop head; OSREntries
	// counts mid-iteration activations through an OSR entry point.
	HeadEntries int64 `json:"head_entries"`
	OSREntries  int64 `json:"osr_entries"`

	// SideExits counts deoptimizations through a side exit (symbolic
	// stack rematerialized, suffix charge rolled back); Traps counts
	// trapping deoptimizations; Deopts counts forced per-iteration
	// returns under the StressDeopt stress member.
	SideExits int64 `json:"side_exits"`
	Traps     int64 `json:"traps"`
	Deopts    int64 `json:"stress_deopts"`

	// GuardFails counts inline-guard failures (the callee's current code
	// no longer matches the inlined fingerprint); InlinedCalls counts
	// calls executed inside the register tier; InlineDeopts counts
	// mid-call deoptimizations into a materialized callee frame.
	GuardFails   int64 `json:"guard_fails"`
	InlinedCalls int64 `json:"inlined_calls"`
	InlineDeopts int64 `json:"inline_deopts"`
}

// ReadTraceStats snapshots the process-wide trace-tier totals. Runs still
// executing contribute once they return.
func ReadTraceStats() TraceStats {
	st := TraceStats{
		Built:        traceStats.built.Load(),
		HeadEntries:  traceStats.headEntries.Load(),
		OSREntries:   traceStats.osrEntries.Load(),
		SideExits:    traceStats.sideExits.Load(),
		Traps:        traceStats.traps.Load(),
		Deopts:       traceStats.deopts.Load(),
		GuardFails:   traceStats.guardFails.Load(),
		InlinedCalls: traceStats.inlinedCalls.Load(),
		InlineDeopts: traceStats.inlineDeopts.Load(),
	}
	for i := 0; i < degCount; i++ {
		if n := traceStats.degraded[i].Load(); n != 0 {
			if st.Degrade == nil {
				st.Degrade = make(map[string]int64, degCount)
			}
			st.Degrade[DegradeReasons[i]] = n
		}
	}
	return st
}

// ResetTraceStats zeroes the process-wide trace-tier totals (tests).
func ResetTraceStats() {
	traceStats.built.Store(0)
	for i := range traceStats.degraded {
		traceStats.degraded[i].Store(0)
	}
	traceStats.headEntries.Store(0)
	traceStats.osrEntries.Store(0)
	traceStats.sideExits.Store(0)
	traceStats.traps.Store(0)
	traceStats.deopts.Store(0)
	traceStats.guardFails.Store(0)
	traceStats.inlinedCalls.Store(0)
	traceStats.inlineDeopts.Store(0)
}

func noteDegrade(reason int) {
	if reason < 0 || reason >= degCount {
		reason = degOther
	}
	traceStats.degraded[reason].Add(1)
}
