// Package exec is the stateless per-run execution layer of the system:
// it turns one immutable RunSpec — program, input binding, scenario
// controller, jit/GC configuration, host substrate — into one
// RunOutcome. It holds no cross-run state of its own (that lives in
// internal/session) and no experiment logic (internal/harness); a spec
// may therefore be executed from any goroutine, and thousands of
// concurrent runs only share immutable inputs plus the explicitly
// thread-safe shared code cache.
//
// Cancellation is first-class: the run's context is threaded into the
// engine's sample-boundary check, so a canceled or deadline-exceeded run
// aborts cleanly mid-flight with a typed *interp.CanceledError and a
// fully attributed cycle ledger (see vm.Machine.LedgerError).
//
// Machines are pooled per program: a run acquires a reset vm.Machine
// from a sync.Pool keyed by the program and releases it on the way out,
// so the steady state of repeated runs allocates no machine, engine,
// compiler, or ledger memory. Correctness does not depend on the pool —
// a Reset machine is observationally a fresh one (the substrate and
// scheduler equivalence suites run with pooling active).
package exec

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/gc"
	"evolvevm/internal/interp"
	"evolvevm/internal/jit"
	"evolvevm/internal/vm"
)

// Substrate selects the host-performance mechanisms of a run. The zero
// value is production: every tier and the shared code cache. Every
// setting is host-side only; the determinism suites prove virtual
// results bit-identical under each one.
type Substrate struct {
	// Tiers is the engine's tier ceiling and stress set (interp.Tiers).
	interp.Tiers
	// NoCodeCache skips the shared cross-run code cache.
	NoCodeCache bool
}

// ProfileLabels, when enabled, wraps every run in a runtime/pprof label
// set (exec_prog, exec_controller) so CPU profiles attribute time by
// program and scenario. Off by default: attaching labels allocates per
// run, which would break the allocation-free steady state, so the
// profiling CLIs switch it on only when a profile is requested.
var ProfileLabels = false

// RunSpec describes one run completely. It is immutable from Run's point
// of view: Run never writes to it, so one spec value may be reused (or
// copied) freely.
type RunSpec struct {
	Prog *bytecode.Program
	Jit  jit.Config
	GC   gc.Config

	Substrate Substrate
	// SharedCode, when non-nil and not disabled by the substrate, lets the
	// run reuse host-side compilation work across runs. Virtual compile
	// charges are unaffected.
	SharedCode *jit.Cache

	// Controller builds the run's optimization controller once the machine
	// exists (repository controllers need the compiler's cost model). A
	// nil Controller runs under vm.NullController.
	Controller func(m *vm.Machine) vm.Controller

	// Setup binds the input to the engine (globals, array arguments)
	// before execution. May be nil.
	Setup func(e *interp.Engine) error

	// Inspect, when non-nil, observes the machine after the run finishes —
	// on success and on abort — before Run returns. Used by ledger
	// cross-checks and tests; production callers usually leave it nil.
	Inspect func(m *vm.Machine)
}

// RunOutcome captures the virtual observables of one finished run.
type RunOutcome struct {
	Result         bytecode.Value
	Cycles         int64
	CompileCycles  int64
	OverheadCycles int64
	Recompilations int
	TotalSamples   int64
	Levels         []int
	GCStats        gc.Stats
}

// machinePools maps *bytecode.Program → *sync.Pool of reset vm.Machines.
// Programs are memoized package-level values (programs.Registry), so the
// key set stays small and the pools live for the process.
var machinePools sync.Map

// acquireMachine returns a machine for prog, reusing a pooled one when
// available. The machine comes back in its post-New state (vm.Machine.Reset).
func acquireMachine(prog *bytecode.Program, cfg jit.Config) *vm.Machine {
	if p, ok := machinePools.Load(prog); ok {
		if m, _ := p.(*sync.Pool).Get().(*vm.Machine); m != nil {
			m.Reset(cfg)
			return m
		}
	}
	return vm.New(prog, cfg, nil)
}

// releaseMachine returns a machine to its program's pool. Callers must be
// done with every reference into the machine (the outcome copies all of
// them out).
func releaseMachine(m *vm.Machine) {
	p, ok := machinePools.Load(m.Prog)
	if !ok {
		p, _ = machinePools.LoadOrStore(m.Prog, &sync.Pool{})
	}
	p.(*sync.Pool).Put(m)
}

// Run executes spec under ctx. On success it returns the run's outcome;
// on failure the error is either the program's own runtime error or, for
// a canceled/expired context, a *interp.CanceledError wrapping ctx.Err().
func Run(ctx context.Context, spec *RunSpec) (*RunOutcome, error) {
	out := &RunOutcome{}
	if err := RunInto(ctx, spec, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RunInto executes spec like Run but fills a caller-owned outcome,
// reusing its Levels and GC-stats backing when capacities allow. Callers
// that measure many runs and fold each outcome into aggregates (baseline
// warming, sequence driving) reuse one outcome value to keep the steady
// state allocation-free; callers that retain the outcome use Run.
//
// On a failed run — a program trap (*interp.RuntimeError) or an abort
// (*interp.CanceledError) — RunInto still fills the outcome's ledger
// fields (Cycles, CompileCycles, OverheadCycles, Recompilations, Levels,
// samples, GC stats) before returning the error: a trap is a legitimate,
// fully attributed outcome for a serving front end, not a measurement
// failure. Only Result is left zero, since a failed run has none.
func RunInto(ctx context.Context, spec *RunSpec, out *RunOutcome) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return &interp.CanceledError{Prog: spec.Prog.Name, Cause: err}
	}
	m := acquireMachine(spec.Prog, spec.Jit)
	defer releaseMachine(m)
	if spec.Controller != nil {
		m.Controller = spec.Controller(m)
	}
	m.SetContext(ctx)
	m.Engine.GC = spec.GC
	m.Engine.Tiers = spec.Substrate.Tiers
	if !spec.Substrate.NoCodeCache && spec.SharedCode != nil {
		m.Compiler.UseShared(spec.SharedCode)
	}
	if spec.Setup != nil {
		if err := spec.Setup(m.Engine); err != nil {
			return fmt.Errorf("exec: setup: %w", err)
		}
	}
	var v bytecode.Value
	var err error
	if ProfileLabels {
		pprof.Do(ctx, pprof.Labels(
			"exec_prog", spec.Prog.Name,
			"exec_controller", m.Controller.Name(),
		), func(context.Context) {
			v, err = m.Run()
		})
	} else {
		v, err = m.Run()
	}
	if spec.Inspect != nil {
		spec.Inspect(m)
	}
	out.Result = v
	out.Cycles = m.TotalCycles()
	out.CompileCycles = m.CompileCycles
	out.OverheadCycles = m.OverheadCycles
	out.Recompilations = m.Recompilations
	out.Levels = m.LevelsInto(out.Levels[:0])
	out.GCStats = m.Engine.GCStats
	out.TotalSamples = 0
	for _, s := range m.Samples {
		out.TotalSamples += s
	}
	if err != nil {
		out.Result = bytecode.Value{}
		return err
	}
	return nil
}
