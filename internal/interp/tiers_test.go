package interp

import (
	"testing"

	"evolvevm/internal/bytecode"
)

// TestTierModesProduct pins the generated equivalence-suite modes to the
// product they are derived from: each ceiling below register once, the
// register ceiling under every stress subset in which eager-osr and
// forced-deopt come with eager-reg, and async compile on the register
// modes without eager-reg — no mode twice.
func TestTierModesProduct(t *testing.T) {
	const (
		reg    = StressEagerReg
		osr    = StressEagerOSR
		deopt  = StressDeopt
		inline = StressNoInline
	)
	want := []TierMode{
		{"switch", Tiers{Ceiling: TierSwitch}, false},
		{"batched", Tiers{Ceiling: TierBatched}, false},
		{"fused", Tiers{Ceiling: TierFused}, false},
		{"register", Tiers{}, false},
		{"register+async", Tiers{}, true},
		{"register+eager-reg", Tiers{Stress: reg}, false},
		{"register+eager-reg+eager-osr", Tiers{Stress: reg | osr}, false},
		{"register+eager-reg+forced-deopt", Tiers{Stress: reg | deopt}, false},
		{"register+eager-reg+eager-osr+forced-deopt", Tiers{Stress: reg | osr | deopt}, false},
		{"register+no-inline", Tiers{Stress: inline}, false},
		{"register+no-inline+async", Tiers{Stress: inline}, true},
		{"register+eager-reg+no-inline", Tiers{Stress: reg | inline}, false},
		{"register+eager-reg+eager-osr+no-inline", Tiers{Stress: reg | osr | inline}, false},
		{"register+eager-reg+forced-deopt+no-inline", Tiers{Stress: reg | deopt | inline}, false},
		{"register+eager-reg+eager-osr+forced-deopt+no-inline", Tiers{Stress: reg | osr | deopt | inline}, false},
	}
	got := TierModes()
	if len(got) != len(want) {
		t.Fatalf("%d modes, want %d: %v", len(got), len(want), got)
	}
	names := map[string]bool{}
	configs := map[TierMode]bool{}
	for i, m := range got {
		if m != want[i] {
			t.Errorf("mode %d = %+v, want %+v", i, m, want[i])
		}
		key := TierMode{Tiers: m.Tiers, Async: m.Async}
		if names[m.Name] || configs[key] {
			t.Errorf("mode %q appears twice", m.Name)
		}
		names[m.Name], configs[key] = true, true
	}
}

// buildQueue builds each job as it is submitted.
type buildQueue struct{}

func (buildQueue) Submit(j CompileJob) { j.Build() }

// TestZeroTiersIsProduction: a new engine, and one Reset after running
// under every stress member at the lowest ceiling with a compile queue,
// is at the register ceiling with an empty stress set and no queue.
func TestZeroTiersIsProduction(t *testing.T) {
	if (Tiers{}).Ceiling != TierRegister || (Tiers{}).Stress != 0 {
		t.Fatal("zero Tiers is not the register ceiling with no stress")
	}
	e := NewEngine(mustProg(t, callLoopSrc))
	if e.Tiers != (Tiers{}) || e.BgCompile != nil {
		t.Fatalf("new engine tiers %v queue %v, want production", e.Tiers, e.BgCompile)
	}
	e.Tiers = Tiers{Ceiling: TierSwitch, Stress: stressAll}
	e.BgCompile = buildQueue{}
	if err := e.SetGlobal("n", bytecode.Int(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if e.Tiers != (Tiers{}) || e.BgCompile != nil {
		t.Fatalf("reset engine tiers %v queue %v, want production", e.Tiers, e.BgCompile)
	}
}

// TestCeilingBoundsPlans runs a hot call loop under every ceiling with
// eager-reg stress — which would build and enter traces from the first
// instruction if the ceiling allowed — and checks which host forms the
// run consults: the switch ceiling builds no execution plan at all, the
// batched and fused ceilings only their own plan and no trace, and only
// the register ceiling builds traces.
func TestCeilingBoundsPlans(t *testing.T) {
	p := mustProg(t, callLoopSrc)
	for _, c := range []Tier{TierSwitch, TierBatched, TierFused, TierRegister} {
		t.Run(c.String(), func(t *testing.T) {
			e := NewEngine(p)
			e.Tiers = Tiers{Ceiling: c, Stress: StressEagerReg}
			if err := e.SetGlobal("n", bytecode.Int(200)); err != nil {
				t.Fatal(err)
			}
			before := ReadTraceStats()
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			built := statsDelta(before, ReadTraceStats()).Built
			main := e.PeekCode(p.Entry)
			unfused, fused := main.plans[0].Load() != nil, main.plans[1].Load() != nil
			switch c {
			case TierSwitch:
				if unfused || fused || main.TraceReady() || built != 0 {
					t.Fatalf("switch ceiling consulted a plan: unfused=%v fused=%v traced=%v built=%d",
						unfused, fused, main.TraceReady(), built)
				}
			case TierBatched, TierFused:
				if unfused != (c == TierBatched) || fused != (c == TierFused) {
					t.Fatalf("%v ceiling built unfused=%v fused=%v", c, unfused, fused)
				}
				if main.TraceReady() || built != 0 {
					t.Fatalf("%v ceiling built a trace (delta %d)", c, built)
				}
			case TierRegister:
				if !fused || !main.TraceReady() || built == 0 {
					t.Fatalf("register ceiling: fused=%v traced=%v built=%d", fused, main.TraceReady(), built)
				}
			}
		})
	}
}
