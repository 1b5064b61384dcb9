package difftest

import (
	"fmt"
	"reflect"
	"testing"

	"evolvevm/internal/aos"
	"evolvevm/internal/gc"
	"evolvevm/internal/interp"
	"evolvevm/internal/jit"
	"evolvevm/internal/vm"
)

// This file proves the host performance layer — every host tier, the
// register tier's stress paths, concurrent plan installs on shared code,
// and the cross-run code cache — is unobservable in virtual terms: every
// ledger, sample profile, trap, and heap cell is bit-identical under
// every tier mode.
//
// Unlike the cross-tier oracle, these comparisons do NOT skip
// resource-trapped runs: a cycle-limit trap must fire at the identical
// instruction under every substrate mode, so trapped executions are
// compared bit-for-bit like completed ones.

// substrateModes is the generated host-tier product (interp.TierModes):
// every ceiling below register, and the register ceiling under each
// valid stress set. "register" leaves traces on their production hotness
// gates, so it also covers mid-run promotion from the fused switch to
// the register form. substrateModes[0], the switch ceiling, is every
// soak's reference.
var substrateModes = interp.TierModes()

// modeConfig configures an engine for one tier mode.
func modeConfig(m interp.Tiers) func(*interp.Engine) {
	return func(e *interp.Engine) { e.Tiers = m }
}

// soakStride is the sample stride of TestSubstrateBitIdentical and
// TestSubstrateSharedCode, reference and every mode alike. Generated programs run for hundreds to a few
// thousand cycles, so at the default stride no function collects
// interp.TraceHotSamples ticks and the non-eager register modes never
// reach the promotion gate — the only place production builds a trace
// plan. At this stride about one optimized run in six promotes mid-run,
// and the windows stay wide enough for the built traces to be entered.
const soakStride = 400

// soakConfig runs mode at the soak sample stride.
func soakConfig(mode func(*interp.Engine)) func(*interp.Engine) {
	return func(e *interp.Engine) {
		e.SampleStride = soakStride
		mode(e)
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
			t.Fatalf("%s mode %s: %v", ctx, mode, err)
		}
		execBitIdentical(t, ctx+" mode "+mode.String(), ref, got)
	}
	return ref
}

// TestSubstrateBitIdentical runs generated programs at every jit level
// under every tier mode against the switch ceiling, asserting
// bit-identical Execs — including runs that trap, resource limits
// included. Runs use the soak stride, and the soak fails if the modes on
// production hotness gates never built a trace: then it would not have
// tested mid-run promotion at all.
func TestSubstrateBitIdentical(t *testing.T) {
	var checked int
	built := map[interp.Tiers]int64{}
	for _, seed := range soakSeeds(int64(soakN(t) / 5)) { // 400 seeds in full mode, 20 under -short
		g := genFor(seed)
		for k, input := range g.Inputs {
			for level := jit.MinLevel; level <= jit.MaxLevel; level++ {
				checkModes(t, fmt.Sprintf("seed %d input %d level %d", seed, k, level),
					func(configure func(*interp.Engine)) (*Exec, error) {
						var tiers interp.Tiers
						before := interp.ReadTraceStats().Built
						ex, err := RunTierConfigured(g.Prog, level, gc.Config{}, preCap,
							g.NumericGlobals, input, soakConfig(func(e *interp.Engine) {
								configure(e)
								tiers = e.Tiers
							}))
						built[tiers] += interp.ReadTraceStats().Built - before
						return ex, err
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
	for _, m := range substrateModes {
		if m.Ceiling != interp.TierRegister || m.Stress&interp.StressEagerReg != 0 {
			continue
		}
		t.Logf("mode %s: %d traces built at the promotion gate", m, built[m])
		if built[m] == 0 && *seedFlag < 0 {
			t.Errorf("mode %s built no trace over the soak: promotion was never exercised", m)
		}
	}
}

// TestSubstrateSharedCode races inline trace-plan installs: four engines
// run one program concurrently on the same compiled Codes (one shared
// code cache per program), half on the production hotness gates and half
// under eager-reg, so promotion points race each other's CAS-once
// installs into the shared plan slots. Every run must match the serial
// switch-ceiling oracle in every observable; under -race this is the
// data-race check of the install path.
func TestSubstrateSharedCode(t *testing.T) {
	racers := [2]interp.Tiers{{}, {Stress: interp.StressEagerReg}}
	lost := interp.ReadPlanInstallStats().LostTraces
	var checked int
	for _, seed := range soakSeeds(int64(soakN(t) / 10)) { // 200 seeds in full mode, 10 under -short
		g := genFor(seed)
		cache := jit.NewCache()
		for k, input := range g.Inputs {
			// The top level is where the sampler gate promotes code soonest.
			run := func(tiers interp.Tiers, shared *jit.Cache) (*Exec, error) {
				return runTierShared(g.Prog, jit.MaxLevel, gc.Config{}, preCap,
					g.NumericGlobals, input, soakConfig(modeConfig(tiers)), shared)
			}
			ref, err := run(substrateModes[0], nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			errc := make(chan error, 4)
			for w := 0; w < 4; w++ {
				go func() {
					got, err := run(racers[w%2], cache)
					if err != nil {
						errc <- err
						return
					}
					errc <- execDiff(ref, got)
				}()
			}
			for w := 0; w < 4; w++ {
				if err := <-errc; err != nil {
					t.Fatalf("seed %d input %d: concurrent shared-code run: %v", seed, k, err)
				}
			}
			checked += 4
		}
	}
	t.Logf("shared code: %d concurrent executions bit-identical vs the serial oracle (%d trace installs lost)",
		checked, interp.ReadPlanInstallStats().LostTraces-lost)
	if checked == 0 {
		t.Fatal("shared-code soak checked zero runs")
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
