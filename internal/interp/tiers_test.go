package interp

import (
	"testing"

	"evolvevm/internal/bytecode"
)

// TestTierModesProduct pins the generated equivalence-suite modes to the
// product they are derived from: each ceiling below register once, and
// the register ceiling under every stress subset in which eager-osr and
// forced-deopt come with eager-reg — no mode or name twice.
func TestTierModesProduct(t *testing.T) {
	const (
		reg    = StressEagerReg
		osr    = StressEagerOSR
		deopt  = StressDeopt
		inline = StressNoInline
	)
	want := []struct {
		name  string
		tiers Tiers
	}{
		{"switch", Tiers{Ceiling: TierSwitch}},
		{"batched", Tiers{Ceiling: TierBatched}},
		{"fused", Tiers{Ceiling: TierFused}},
		{"register", Tiers{}},
		{"register+eager-reg", Tiers{Stress: reg}},
		{"register+eager-reg+eager-osr", Tiers{Stress: reg | osr}},
		{"register+eager-reg+forced-deopt", Tiers{Stress: reg | deopt}},
		{"register+eager-reg+eager-osr+forced-deopt", Tiers{Stress: reg | osr | deopt}},
		{"register+no-inline", Tiers{Stress: inline}},
		{"register+eager-reg+no-inline", Tiers{Stress: reg | inline}},
		{"register+eager-reg+eager-osr+no-inline", Tiers{Stress: reg | osr | inline}},
		{"register+eager-reg+forced-deopt+no-inline", Tiers{Stress: reg | deopt | inline}},
		{"register+eager-reg+eager-osr+forced-deopt+no-inline", Tiers{Stress: reg | osr | deopt | inline}},
	}
	got := TierModes()
	if len(got) != len(want) {
		t.Fatalf("%d modes, want %d: %v", len(got), len(want), got)
	}
	names := map[string]bool{}
	configs := map[Tiers]bool{}
	for i, m := range got {
		if m != want[i].tiers || m.String() != want[i].name {
			t.Errorf("mode %d = %q %+v, want %q %+v", i, m, m, want[i].name, want[i].tiers)
		}
		if names[m.String()] || configs[m] {
			t.Errorf("mode %q appears twice", m)
		}
		names[m.String()], configs[m] = true, true
	}
}

// TestZeroTiersIsProduction: a new engine, and one Reset after running
// under every stress member at the lowest ceiling, is at the register
// ceiling with an empty stress set.
func TestZeroTiersIsProduction(t *testing.T) {
	if (Tiers{}).Ceiling != TierRegister || (Tiers{}).Stress != 0 {
		t.Fatal("zero Tiers is not the register ceiling with no stress")
	}
	e := NewEngine(mustProg(t, callLoopSrc))
	if e.Tiers != (Tiers{}) {
		t.Fatalf("new engine tiers %v, want production", e.Tiers)
	}
	e.Tiers = Tiers{Ceiling: TierSwitch, Stress: stressAll}
	if err := e.SetGlobal("n", bytecode.Int(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if e.Tiers != (Tiers{}) {
		t.Fatalf("reset engine tiers %v, want production", e.Tiers)
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
