package exec

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"evolvevm/internal/aos"
	"evolvevm/internal/bytecode"
	"evolvevm/internal/interp"
	"evolvevm/internal/jit"
	"evolvevm/internal/vm"
)

// loopProg assembles the test workload: an n-iteration arithmetic loop,
// hot enough to sample and compile when n is large.
func loopProg(t testing.TB) *bytecode.Program {
	t.Helper()
	prog, err := bytecode.Assemble("cancelloop", `
global n
func main() locals i acc
  const 0
  store acc
  const 0
  store i
loop:
  load i
  gload n
  ige
  jnz done
  load acc
  load i
  ixor
  store acc
  iinc i 1
  jmp loop
done:
  load acc
  ret
end
`)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func loopSpec(t testing.TB, n int64) *RunSpec {
	return &RunSpec{
		Prog:       loopProg(t),
		Jit:        jit.DefaultConfig(),
		Controller: func(m *vm.Machine) vm.Controller { return aos.NewReactive() },
		Setup: func(e *interp.Engine) error {
			return e.SetGlobal("n", bytecode.Int(n))
		},
	}
}

func TestRunProducesOutcome(t *testing.T) {
	out, err := Run(context.Background(), loopSpec(t, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if out.Cycles <= 0 {
		t.Errorf("no cycles charged: %+v", out)
	}
	if len(out.Levels) == 0 {
		t.Error("no per-function levels recorded")
	}
}

// TestNilContext: a nil ctx means "no deadline", not a crash.
func TestNilContext(t *testing.T) {
	if _, err := Run(nil, loopSpec(t, 100)); err != nil {
		t.Fatal(err)
	}
}

// TestPreRunCancellation: an already-canceled context aborts before any
// virtual work, with the typed error and no function attribution.
func TestPreRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, loopSpec(t, 100))
	var cerr *interp.CanceledError
	if !errors.As(err, &cerr) {
		t.Fatalf("got %T (%v), want *interp.CanceledError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	if cerr.Fn != "" || cerr.Cycles != 0 {
		t.Errorf("pre-run abort attributed to %q after %d cycles", cerr.Fn, cerr.Cycles)
	}
}

// TestDeadlineAbortsMidFlight: a short deadline on a long run aborts at a
// sample boundary with a typed, located error and a consistent ledger.
func TestDeadlineAbortsMidFlight(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	spec := loopSpec(t, 200_000_000) // far more virtual work than 15ms of host time
	var m *vm.Machine
	spec.Inspect = func(got *vm.Machine) { m = got }
	_, err := Run(ctx, spec)
	var cerr *interp.CanceledError
	if !errors.As(err, &cerr) {
		t.Fatalf("got %T (%v), want *interp.CanceledError", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false for %v", err)
	}
	if cerr.Fn == "" || cerr.Cycles == 0 {
		t.Errorf("mid-flight abort not attributed: fn=%q cycles=%d", cerr.Fn, cerr.Cycles)
	}
	if m == nil {
		t.Fatal("Inspect hook not called on abort")
	}
	if lerr := m.LedgerError(); lerr != nil {
		t.Errorf("cycle ledger inconsistent after abort: %v", lerr)
	}
}

// TestCancelBetweenSetupAndRun: cancellation arriving after the pre-run
// check still aborts — the engine polls its interrupt hook at Run start.
func TestCancelBetweenSetupAndRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := loopSpec(t, 100)
	inner := spec.Setup
	spec.Setup = func(e *interp.Engine) error {
		cancel() // fires after exec.Run's own ctx.Err() check passed
		return inner(e)
	}
	_, err := Run(ctx, spec)
	var cerr *interp.CanceledError
	if !errors.As(err, &cerr) {
		t.Fatalf("got %T (%v), want *interp.CanceledError", err, err)
	}
	if cerr.Fn != "" {
		t.Errorf("abort before first instruction attributed to %q", cerr.Fn)
	}
}

func TestSetupErrorWrapped(t *testing.T) {
	spec := loopSpec(t, 100)
	boom := errors.New("bad input binding")
	spec.Setup = func(e *interp.Engine) error { return boom }
	_, err := Run(context.Background(), spec)
	if !errors.Is(err, boom) {
		t.Fatalf("setup error lost: %v", err)
	}
	if !strings.Contains(err.Error(), "exec: setup") {
		t.Errorf("setup error not labeled: %v", err)
	}
}

// TestSubstrateTogglesBitIdentical: the same spec yields the same virtual
// outcome at the switch, batched and register ceilings, with and without
// the shared code cache.
func TestSubstrateTogglesBitIdentical(t *testing.T) {
	cache := jit.NewCache()
	variants := []Substrate{
		{NoCodeCache: true, Tiers: interp.Tiers{Ceiling: interp.TierSwitch}},
		{Tiers: interp.Tiers{Ceiling: interp.TierBatched}},
		{},
	}
	var ref *RunOutcome
	for i, sub := range variants {
		spec := loopSpec(t, 300_000)
		spec.Substrate = sub
		spec.SharedCode = cache
		out, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if ref == nil {
			ref = out
			continue
		}
		if out.Result != ref.Result || out.Cycles != ref.Cycles ||
			out.CompileCycles != ref.CompileCycles || out.TotalSamples != ref.TotalSamples {
			t.Errorf("variant %d diverged:\nref %+v\ngot %+v", i, ref, out)
		}
	}
	if cache.Stats().Hits == 0 {
		t.Error("shared code cache never hit across cached variants")
	}
}

// TestZeroSubstrateIsProduction: the zero Substrate is the production
// configuration — the register ceiling, no stress, and the shared code
// cache — and a run under it leaves the engine at the same tiers.
func TestZeroSubstrateIsProduction(t *testing.T) {
	var sub Substrate
	if sub.Ceiling != interp.TierRegister || sub.Stress != 0 || sub.NoCodeCache {
		t.Fatalf("zero substrate %+v is not production", sub)
	}
	spec := loopSpec(t, 100)
	var got interp.Tiers
	spec.Inspect = func(m *vm.Machine) { got = m.Engine.Tiers }
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if got != (interp.Tiers{}) {
		t.Fatalf("engine ran with tiers %v, want the register ceiling with no stress", got)
	}
}
