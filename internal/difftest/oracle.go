package difftest

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/gc"
	"evolvevm/internal/interp"
	"evolvevm/internal/jit"
)

// Exec captures everything observable about one execution of a program at
// one compilation tier: the result, normalized trap, output stream, final
// globals, the reachable heap in canonical form, and the cycle ledgers.
// Two tiers are semantically equivalent iff their Execs Compare clean.
type Exec struct {
	Level  int
	Trap   string // normalized trap message; "" when the run completed
	Halted bool
	Result string
	Output []string
	// Globals holds the final global slots in canonical rendering; array
	// references appear as canonical ids assigned in first-encounter
	// order (result, then output, then globals), so physically different
	// heap layouts with the same reachable shape compare equal.
	Globals []string
	// Heap[i] renders the cells of the array with canonical id i.
	Heap []string

	// Ledgers.
	Cycles        int64 // engine clock at end of run
	ExecCycles    int64 // Σ FnCycles: tier-scaled cycles charged to code
	Work          int64 // Σ Work: tier-independent baseline cost executed
	CompileCycles int64 // charged by CompileAll before the run
	GCCycles      int64
	AllocCycles   int64

	// FnSamples[i] counts the stride samples attributed to function i —
	// the exact profile an optimization controller would observe. Captured
	// so the substrate-equivalence suites can assert that the host
	// performance layer preserves sampling bit-for-bit.
	FnSamples []int64
}

// resourceTrap reports whether a trap message describes resource
// exhaustion (cycle fuse, call depth, heap budget) rather than a semantic
// fault. Different tiers legitimately hit resource limits at different
// points, so resource traps are excluded from cross-tier equivalence.
func resourceTrap(msg string) bool {
	return strings.Contains(msg, "cycle limit") ||
		strings.Contains(msg, "call depth exceeds") ||
		strings.Contains(msg, "out of memory") ||
		strings.Contains(msg, "heap limit exceeded")
}

// ResourceTrapped reports whether the run died on a resource limit.
func (ex *Exec) ResourceTrapped() bool { return ex.Trap != "" && resourceTrap(ex.Trap) }

// canon assigns canonical ids to heap arrays in first-encounter order and
// renders values structurally: integers by decimal, floats by exact bit
// pattern (all NaNs collapse to one token), references by canonical id.
// This makes comparisons independent of physical heap indices, which
// differ across runs under a copying collector.
type canon struct {
	eng   *interp.Engine
	ids   map[int64]int
	queue []int64
}

func newCanon(eng *interp.Engine) *canon {
	return &canon{eng: eng, ids: make(map[int64]int)}
}

func (c *canon) render(v bytecode.Value) string {
	switch v.Kind {
	case bytecode.KArr:
		id, ok := c.ids[v.I]
		if !ok {
			if _, err := c.eng.Array(v); err != nil {
				// A collected reference (e.g. printed then dropped). Not
				// reachable, so no structure to compare.
				return "a!dead"
			}
			id = len(c.ids)
			c.ids[v.I] = id
			c.queue = append(c.queue, v.I)
		}
		return "a" + strconv.Itoa(id)
	case bytecode.KFloat:
		if math.IsNaN(v.F) {
			return "fNaN"
		}
		return "f" + strconv.FormatUint(math.Float64bits(v.F), 16)
	case bytecode.KInt:
		return strconv.FormatInt(v.I, 10)
	default:
		return fmt.Sprintf("k%d:%d:%x", v.Kind, v.I, math.Float64bits(v.F))
	}
}

// drain renders every enqueued array, following interior references
// breadth-first so the whole reachable heap gets canonical ids.
func (c *canon) drain() []string {
	var out []string
	for i := 0; i < len(c.queue); i++ {
		arr, err := c.eng.Array(bytecode.Arr(c.queue[i]))
		if err != nil {
			out = append(out, "!dead")
			continue
		}
		elems := make([]string, len(arr))
		for j, v := range arr {
			elems[j] = c.render(v)
		}
		out = append(out, strings.Join(elems, ","))
	}
	return out
}

// RunTier executes prog pinned to one compilation tier (−1 for the
// baseline interpreter, 0–2 for whole-program JIT at that level) with the
// given input values stored into global slots before the run. A non-nil
// error reports an infrastructure failure (the optimizer rejected the
// program); runtime traps are captured in Exec.Trap, not returned.
func RunTier(prog *bytecode.Program, level int, gcCfg gc.Config, maxCycles int64,
	slots []int, input []bytecode.Value) (*Exec, error) {
	return RunTierConfigured(prog, level, gcCfg, maxCycles, slots, input, nil)
}

// RunTierConfigured is RunTier with an engine-configuration hook applied
// before execution. The substrate suites use it to run every host tier
// mode and prove the resulting Execs — including cycle ledgers and
// sample profiles — are bit-identical.
func RunTierConfigured(prog *bytecode.Program, level int, gcCfg gc.Config, maxCycles int64,
	slots []int, input []bytecode.Value, configure func(*interp.Engine)) (*Exec, error) {
	return runTierShared(prog, level, gcCfg, maxCycles, slots, input, configure, nil)
}

// runTierShared is RunTierConfigured compiling through a shared code
// cache (nil: a private compile), so concurrent runs of one program
// execute the same Codes and race on their plan slots. Compile charges
// are unaffected by the cache.
func runTierShared(prog *bytecode.Program, level int, gcCfg gc.Config, maxCycles int64,
	slots []int, input []bytecode.Value, configure func(*interp.Engine), shared *jit.Cache) (*Exec, error) {

	eng := interp.NewEngine(prog)
	if maxCycles > 0 {
		eng.MaxCycles = maxCycles
	}
	// Fuzzed programs can request absurd allocations; a heap-limit trap is
	// a resource trap and excluded from equivalence, so capping here only
	// bounds the tester's memory, never its verdicts.
	eng.MaxHeapCells = 1 << 20
	eng.GC = gcCfg
	for j, s := range slots {
		if j < len(input) {
			eng.Globals[s] = input[j]
		}
	}
	samples := make([]int64, len(prog.Funcs))
	eng.OnSample = func(fnIdx int) { samples[fnIdx]++ }
	if configure != nil {
		configure(eng)
	}
	ex := &Exec{Level: level, FnSamples: samples}
	if level > jit.MinLevel {
		comp := jit.NewCompiler(prog, jit.DefaultConfig())
		comp.UseShared(shared)
		codes, total, err := comp.CompileAll(level)
		if err != nil {
			return nil, fmt.Errorf("difftest: compile at O%d failed: %w", level, err)
		}
		eng.Provider = func(i int) *interp.Code { return codes[i] }
		// The whole-program table is immutable, so the pure-lookup PeekCode
		// contract holds trivially — enables CALL inlining in the trace tier.
		eng.PeekCode = func(i int) *interp.Code { return codes[i] }
		eng.AddCycles(total)
		ex.CompileCycles = total
	}
	res, err := eng.Run()
	if err != nil {
		var rerr *interp.RuntimeError
		if !errors.As(err, &rerr) {
			return nil, fmt.Errorf("difftest: non-runtime failure at level %d: %w", level, err)
		}
		// Normalize to the message alone: Fn and PC legitimately change
		// under inlining and code motion; the fault itself must not.
		ex.Trap = rerr.Msg
	}
	captureState(ex, eng, res)
	if lerr := ledgerCheck(ex, eng); lerr != nil {
		return nil, lerr
	}
	return ex, nil
}

func captureState(ex *Exec, eng *interp.Engine, res bytecode.Value) {
	ex.Halted = eng.Halted()
	c := newCanon(eng)
	ex.Result = c.render(res)
	for _, v := range eng.Output {
		ex.Output = append(ex.Output, c.render(v))
	}
	for _, v := range eng.Globals {
		ex.Globals = append(ex.Globals, c.render(v))
	}
	ex.Heap = c.drain()
	ex.Cycles = eng.Cycles
	for i := range eng.FnCycles {
		ex.ExecCycles += eng.FnCycles[i]
		ex.Work += eng.Work[i]
	}
	ex.GCCycles = eng.GCStats.GCCycles
	ex.AllocCycles = eng.GCStats.AllocCycles
}

// ledgerCheck asserts the per-run cycle-accounting invariant: every cycle
// on the engine clock is attributable to executed code, compilation, or
// the collector. Holds at every tier by construction; a violation means a
// subsystem charged the clock without recording the charge.
func ledgerCheck(ex *Exec, eng *interp.Engine) error {
	charged := ex.ExecCycles + ex.CompileCycles + ex.GCCycles + ex.AllocCycles
	if charged != eng.Cycles {
		return fmt.Errorf("difftest: level %d cycle ledger off by %d (clock %d, exec %d, compile %d, gc %d, alloc %d)",
			ex.Level, eng.Cycles-charged, eng.Cycles, ex.ExecCycles, ex.CompileCycles, ex.GCCycles, ex.AllocCycles)
	}
	return nil
}

// Compare checks semantic equivalence of two tiers' executions of the
// same program on the same input. The callers guarantee neither side
// resource-trapped. Result values are compared only on completed runs (a
// trapped run has no result); output, globals, and reachable heap must
// match even at a trap — prints and global stores that happened before
// the fault are observable behaviour an optimizer must preserve.
func Compare(a, b *Exec) error {
	fail := func(what, av, bv string) error {
		return fmt.Errorf("difftest: tier divergence level %d vs %d: %s: %q vs %q",
			a.Level, b.Level, what, av, bv)
	}
	if a.Trap != b.Trap {
		return fail("trap", a.Trap, b.Trap)
	}
	if a.Halted != b.Halted {
		return fail("halted", fmt.Sprint(a.Halted), fmt.Sprint(b.Halted))
	}
	if a.Trap == "" && a.Result != b.Result {
		return fail("result", a.Result, b.Result)
	}
	if len(a.Output) != len(b.Output) {
		return fail("output length", fmt.Sprint(len(a.Output)), fmt.Sprint(len(b.Output)))
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			return fail(fmt.Sprintf("output[%d]", i), a.Output[i], b.Output[i])
		}
	}
	for i := range a.Globals {
		if a.Globals[i] != b.Globals[i] {
			return fail(fmt.Sprintf("global[%d]", i), a.Globals[i], b.Globals[i])
		}
	}
	if len(a.Heap) != len(b.Heap) {
		return fail("reachable arrays", fmt.Sprint(len(a.Heap)), fmt.Sprint(len(b.Heap)))
	}
	for i := range a.Heap {
		if a.Heap[i] != b.Heap[i] {
			return fail(fmt.Sprintf("heap[a%d]", i), a.Heap[i], b.Heap[i])
		}
	}
	return nil
}

// Report is the oracle's verdict on one (program, input) pair: the four
// tier executions, or Skipped when any tier hit a resource limit.
type Report struct {
	Execs   []*Exec // index i holds level i−1
	Skipped bool
}

// CheckInput runs one input vector through the interpreter and every JIT
// level and cross-checks them. gcCfg applies to every tier. Returns the
// report and the first divergence or invariant violation found.
func CheckInput(g *Generated, input []bytecode.Value, gcCfg gc.Config, maxCycles int64) (*Report, error) {
	rep := &Report{}
	for level := jit.MinLevel; level <= jit.MaxLevel; level++ {
		ex, err := RunTier(g.Prog, level, gcCfg, maxCycles, g.NumericGlobals, input)
		if err != nil {
			return rep, fmt.Errorf("seed %d: %w", g.Cfg.Seed, err)
		}
		rep.Execs = append(rep.Execs, ex)
		if ex.ResourceTrapped() {
			rep.Skipped = true
			return rep, nil
		}
	}
	base := rep.Execs[0]
	for _, ex := range rep.Execs[1:] {
		if err := Compare(base, ex); err != nil {
			return rep, fmt.Errorf("seed %d: %w", g.Cfg.Seed, err)
		}
	}
	return rep, rep.checkLedgerInvariants(g.Cfg.Seed)
}

// checkLedgerInvariants asserts the sound cross-tier cycle invariants:
//
//   - compile cycles strictly increase with optimization level (higher
//     tiers run strictly longer pass pipelines at higher cost multipliers);
//   - at the baseline tier, per-op charge equals baseline cost exactly, so
//     ExecCycles − Work is precisely the (tier-independent) size-scaled
//     allocation charge — nonnegative and even;
//   - at optimized tiers, per-op charge never exceeds baseline cost, so
//     ExecCycles − allocCharge ≤ Work.
//
// Note the dynamic-work ordering Work(O2) ≤ Work(O1) ≤ Work(O0) is NOT
// asserted per program — it is not a theorem (LICM preheaders lose on
// zero-trip loops; inlining re-zeroes locals). The soak asserts it in
// aggregate over the whole corpus instead.
func (r *Report) checkLedgerInvariants(seed int64) error {
	if r.Skipped || len(r.Execs) == 0 {
		return nil
	}
	base := r.Execs[0]
	alloc := base.ExecCycles - base.Work
	if alloc < 0 || alloc%2 != 0 {
		return fmt.Errorf("seed %d: baseline alloc charge %d (exec %d, work %d) not a nonnegative even number",
			seed, alloc, base.ExecCycles, base.Work)
	}
	prevCompile := base.CompileCycles // 0 at baseline
	for _, ex := range r.Execs[1:] {
		if ex.CompileCycles <= prevCompile {
			return fmt.Errorf("seed %d: compile cycles not strictly increasing: level %d charged %d after %d",
				seed, ex.Level, ex.CompileCycles, prevCompile)
		}
		prevCompile = ex.CompileCycles
		if ex.Trap == "" && base.Trap == "" {
			if ex.ExecCycles-alloc > ex.Work {
				return fmt.Errorf("seed %d: level %d exec cycles %d exceed work %d + alloc %d",
					seed, ex.Level, ex.ExecCycles, ex.Work, alloc)
			}
		}
	}
	return nil
}
