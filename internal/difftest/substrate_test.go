package difftest

import (
	"fmt"
	"reflect"
	"testing"

	"evolvevm/internal/aos"
	"evolvevm/internal/bgcompile"
	"evolvevm/internal/exec"
	"evolvevm/internal/gc"
	"evolvevm/internal/interp"
	"evolvevm/internal/jit"
	"evolvevm/internal/vm"
)

// This file proves the host performance layer — every host tier, the
// register tier's stress paths, background compilation, and the
// cross-run code cache — is unobservable in virtual terms: every ledger,
// sample profile, trap, and heap cell is bit-identical under every tier
// mode.
//
// Unlike the cross-tier oracle, these comparisons do NOT skip
// resource-trapped runs: a cycle-limit trap must fire at the identical
// instruction under every substrate mode, so trapped executions are
// compared bit-for-bit like completed ones.

// substrateModes is the generated host-tier product (interp.TierModes):
// every ceiling below register, the register ceiling under each valid
// stress set, and background compilation on the non-eager register
// modes. "register" leaves traces on their production hotness gates, so
// it also covers mid-run promotion from the fused switch to the register
// form. substrateModes[0], the switch ceiling, is every soak's reference.
var substrateModes = interp.TierModes()

// modeConfig configures an engine for one tier mode. Async modes share
// the exec layer's process-wide compilation pool, so plans are built by
// pool workers and CAS-installed mid-run.
func modeConfig(m interp.TierMode) func(*interp.Engine) {
	return func(e *interp.Engine) {
		e.Tiers = m.Tiers
		if m.Async {
			e.BgCompile = exec.DefaultCompilePool()
		}
	}
}

// execDiff reports how two Execs diverge in any observable — semantic
// state via Compare, plus every cycle ledger and the per-function sample
// profile — or nil when bit-identical.
func execDiff(ref, got *Exec) error {
	if err := Compare(ref, got); err != nil {
		return err
	}
	if ref.Cycles != got.Cycles || ref.ExecCycles != got.ExecCycles ||
		ref.Work != got.Work || ref.CompileCycles != got.CompileCycles ||
		ref.GCCycles != got.GCCycles || ref.AllocCycles != got.AllocCycles {
		return fmt.Errorf("ledger diverged:\nref: cycles=%d exec=%d work=%d compile=%d gc=%d alloc=%d\ngot: cycles=%d exec=%d work=%d compile=%d gc=%d alloc=%d",
			ref.Cycles, ref.ExecCycles, ref.Work, ref.CompileCycles, ref.GCCycles, ref.AllocCycles,
			got.Cycles, got.ExecCycles, got.Work, got.CompileCycles, got.GCCycles, got.AllocCycles)
	}
	if !reflect.DeepEqual(ref.FnSamples, got.FnSamples) {
		return fmt.Errorf("sample profile diverged:\nref: %v\ngot: %v", ref.FnSamples, got.FnSamples)
	}
	return nil
}

// execBitIdentical asserts two Execs agree on every observable.
func execBitIdentical(t *testing.T, ctx string, ref, got *Exec) {
	t.Helper()
	if err := execDiff(ref, got); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}

// soakSeeds returns the generator seeds of a soak over n seeds, or just
// the -difftest.seed one.
func soakSeeds(n int64) []int64 {
	if *seedFlag >= 0 {
		return []int64{*seedFlag}
	}
	seeds := make([]int64, n)
	for s := range seeds {
		seeds[s] = int64(s)
	}
	return seeds
}

// checkModes runs one execution under every tier mode and asserts each
// is bit-identical to the switch-ceiling reference, which it returns.
// run executes under the given engine configuration.
func checkModes(t *testing.T, ctx string, run func(configure func(*interp.Engine)) (*Exec, error)) *Exec {
	t.Helper()
	ref, err := run(modeConfig(substrateModes[0]))
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	for _, mode := range substrateModes[1:] {
		got, err := run(modeConfig(mode))
		if err != nil {
			t.Fatalf("%s mode %s: %v", ctx, mode.Name, err)
		}
		execBitIdentical(t, ctx+" mode "+mode.Name, ref, got)
	}
	return ref
}

// TestSubstrateBitIdentical runs generated programs at every jit level
// under every tier mode against the switch ceiling, asserting
// bit-identical Execs — including runs that trap, resource limits
// included.
func TestSubstrateBitIdentical(t *testing.T) {
	var checked int
	for _, seed := range soakSeeds(int64(soakN(t) / 5)) { // 400 seeds in full mode, 20 under -short
		g := genFor(seed)
		for k, input := range g.Inputs {
			for level := jit.MinLevel; level <= jit.MaxLevel; level++ {
				checkModes(t, fmt.Sprintf("seed %d input %d level %d", seed, k, level),
					func(configure func(*interp.Engine)) (*Exec, error) {
						return RunTierConfigured(g.Prog, level, gc.Config{}, preCap,
							g.NumericGlobals, input, configure)
					})
				checked++
			}
		}
	}
	t.Logf("substrate: %d (seed, input, tier) executions bit-identical across %d modes",
		checked, len(substrateModes))
	if checked == 0 {
		t.Fatal("substrate soak checked zero runs")
	}
}

// TestSubstrateAsyncCompile holds background tier compilation to the
// bit-identity bar under contention: four submitters race each other on
// one pool, where in-flight dedup leaves some runs executing in lower
// tiers the whole way while workers CAS-install trace plans at arbitrary
// wall-clock moments, and every run must match the serial sync-compile
// oracle in every observable. (A single async run per level is the
// product's async modes in TestSubstrateBitIdentical.) At drain, the
// pool's flow must conserve: every submit accounted as exactly one of
// built, lost-install, dropped, or deduped.
func TestSubstrateAsyncCompile(t *testing.T) {
	pool := bgcompile.NewPool(2, 32)
	defer pool.Close()
	async := func(e *interp.Engine) { e.BgCompile = pool }

	var checked int
	for _, seed := range soakSeeds(int64(soakN(t) / 10)) { // 200 seeds in full mode, 10 under -short
		g := genFor(seed)
		for k, input := range g.Inputs {
			// The top level is where the sampler gate promotes code soonest.
			run := func(configure func(*interp.Engine)) (*Exec, error) {
				return RunTierConfigured(g.Prog, jit.MaxLevel, gc.Config{}, preCap,
					g.NumericGlobals, input, configure)
			}
			ref, err := run(nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			errc := make(chan error, 4)
			for w := 0; w < 4; w++ {
				go func() {
					got, err := run(async)
					if err != nil {
						errc <- err
						return
					}
					errc <- execDiff(ref, got)
				}()
			}
			for w := 0; w < 4; w++ {
				if err := <-errc; err != nil {
					t.Fatalf("seed %d input %d: concurrent async run: %v", seed, k, err)
				}
			}
			checked += 4
		}
	}
	pool.Drain()
	st := pool.Stats()
	if got := st.Built + st.LostInstalls + st.Dropped + st.Deduped; got != st.Enqueued {
		t.Fatalf("pool counters do not conserve: built %d + lost %d + dropped %d + deduped %d = %d, enqueued %d",
			st.Built, st.LostInstalls, st.Dropped, st.Deduped, got, st.Enqueued)
	}
	t.Logf("async compile: %d executions bit-identical vs sync oracle (pool: enqueued=%d built=%d deduped=%d dropped=%d)",
		checked, st.Enqueued, st.Built, st.Deduped, st.Dropped)
	if checked == 0 {
		t.Fatal("async compile soak checked zero runs")
	}
}

// TestSubstrateBitIdenticalGC reruns a corpus slice under both collectors
// with a tight heap budget: GC pause charges go through AddCycles, whose
// interaction with batched charging is exactly the subtle path the fast
// path's sample-window guard protects.
func TestSubstrateBitIdenticalGC(t *testing.T) {
	n := int64(soakN(t) / 10)
	if *seedFlag >= 0 {
		n = 0
	}
	cfgs := []gc.Config{
		{Policy: gc.MarkSweep, BudgetCells: 48},
		{Policy: gc.Copying, BudgetCells: 48},
	}
	var checked int
	for seed := int64(0); seed < n; seed++ {
		g := genFor(seed)
		for k, input := range g.Inputs {
			for _, cfg := range cfgs {
				for level := jit.MinLevel; level <= jit.MaxLevel; level++ {
					checkModes(t, fmt.Sprintf("seed %d input %d gc=%s level %d", seed, k, cfg.Policy, level),
						func(configure func(*interp.Engine)) (*Exec, error) {
							return RunTierConfigured(g.Prog, level, cfg, preCap,
								g.NumericGlobals, input, configure)
						})
					checked++
				}
			}
		}
	}
	t.Logf("substrate+gc: %d executions bit-identical", checked)
	if n > 0 && checked == 0 {
		t.Fatal("substrate gc soak checked zero runs")
	}
}

// machineState is everything a harness observes from one vm.Machine run.
type machineState struct {
	ex             *Exec
	totalCycles    int64
	compileCycles  int64
	overheadCycles int64
	recompilations int
	samples        []int64
	levels         []int
}

func runMachine(t *testing.T, g *Generated, seed int64, configure func(*vm.Machine)) *machineState {
	t.Helper()
	m := vm.New(g.Prog, jit.DefaultConfig(), aos.NewReactive())
	m.Engine.MaxCycles = preCap
	for j, s := range g.NumericGlobals {
		if j < len(g.Inputs[0]) {
			m.Engine.Globals[s] = g.Inputs[0][j]
		}
	}
	if configure != nil {
		configure(m)
	}
	st := &machineState{ex: &Exec{}}
	res, err := m.Run()
	if err != nil {
		re, ok := err.(*interp.RuntimeError)
		if !ok {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st.ex.Trap = re.Msg
	}
	captureState(st.ex, m.Engine, res)
	if lerr := m.LedgerError(); lerr != nil {
		t.Fatalf("seed %d: %v", seed, lerr)
	}
	st.totalCycles = m.TotalCycles()
	st.compileCycles = m.CompileCycles
	st.overheadCycles = m.OverheadCycles
	st.recompilations = m.Recompilations
	st.samples = append([]int64(nil), m.Samples...)
	st.levels = m.Levels()
	return st
}

// TestSubstrateMachine drives the full vm.Machine with the reactive AOS
// controller — mid-run recompilation, sample-triggered compiles, the
// whole feedback loop — with the substrate on vs off, including the
// cross-run code cache, and asserts the machines are indistinguishable:
// same result, traps, cycle ledgers, per-function samples, and final
// compilation levels. The shared cache persists across all seeds, so
// later iterations exercise genuine cross-run cache hits.
func TestSubstrateMachine(t *testing.T) {
	n := int64(soakN(t) / 10)
	seeds := make([]int64, 0, n)
	if *seedFlag >= 0 {
		seeds = append(seeds, *seedFlag)
	} else {
		for s := int64(0); s < n; s++ {
			seeds = append(seeds, s)
		}
	}
	cache := jit.NewCache()
	var checked int
	for _, seed := range seeds {
		g := genFor(seed)
		if len(g.Inputs) == 0 {
			continue
		}
		ref := runMachine(t, g, seed, func(m *vm.Machine) {
			m.Engine.Tiers.Ceiling = interp.TierSwitch
		})
		full := runMachine(t, g, seed, func(m *vm.Machine) {
			m.Compiler.UseShared(cache)
		})
		// Second cached run of the same program: every compile must now be
		// a shared-cache hit, with identical virtual charges.
		again := runMachine(t, g, seed, func(m *vm.Machine) {
			m.Compiler.UseShared(cache)
		})
		for _, got := range []*machineState{full, again} {
			ctx := fmt.Sprintf("seed %d", seed)
			execBitIdentical(t, ctx, ref.ex, got.ex)
			if ref.totalCycles != got.totalCycles || ref.compileCycles != got.compileCycles ||
				ref.overheadCycles != got.overheadCycles || ref.recompilations != got.recompilations {
				t.Fatalf("%s: machine ledger diverged: ref total=%d compile=%d overhead=%d recomp=%d, got total=%d compile=%d overhead=%d recomp=%d",
					ctx, ref.totalCycles, ref.compileCycles, ref.overheadCycles, ref.recompilations,
					got.totalCycles, got.compileCycles, got.overheadCycles, got.recompilations)
			}
			if !reflect.DeepEqual(ref.samples, got.samples) {
				t.Fatalf("%s: machine samples diverged: %v vs %v", ctx, ref.samples, got.samples)
			}
			if !reflect.DeepEqual(ref.levels, got.levels) {
				t.Fatalf("%s: final levels diverged: %v vs %v", ctx, ref.levels, got.levels)
			}
		}
		checked++
	}
	cs := cache.Stats()
	t.Logf("machine substrate: %d programs bit-identical; code cache %d hits / %d misses / %d entries",
		checked, cs.Hits, cs.Misses, cs.Entries)
	if checked == 0 {
		t.Fatal("machine substrate soak checked zero runs")
	}
	if *seedFlag < 0 && checked > 1 && cs.Hits == 0 {
		t.Error("cross-run code cache never hit across repeated runs")
	}
}
