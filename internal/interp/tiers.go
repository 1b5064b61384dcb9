package interp

import "strings"

// Tier is one host execution tier. Tiers are ordered from slowest to
// fastest, each adding one mechanism on top of the one below it; an
// engine's Tiers.Ceiling names the highest tier it may run. Which tier
// executes an instruction is never a virtual observable: results, traps,
// cycles, samples and ledgers are bit-identical under every ceiling (the
// difftest soaks), so the ceiling is a host-speed and testing setting
// only.
type Tier int8

const (
	// TierSwitch dispatches and charges every instruction individually
	// through the accounted switch; no execution plan is ever built.
	TierSwitch Tier = iota - 3
	// TierBatched adds block-batched cycle accounting: straight-line
	// segments are charged once and run op by op (fuse.go, unfused plan).
	TierBatched
	// TierFused adds superinstruction fusion to the batched segments.
	TierFused
	// TierRegister adds register-converted hot-loop traces with OSR
	// entry and CALL inlining (trace.go, regir.go). The production tier,
	// and the zero value.
	TierRegister
)

var tierNames = [...]string{"switch", "batched", "fused", "register"}

func (t Tier) String() string {
	if t < TierSwitch || t > TierRegister {
		return "tier(?)"
	}
	return tierNames[t-TierSwitch]
}

// Stress is a set of overrides of the register tier's promotion and exit
// policy. Production runs with the empty set; the equivalence suites use
// the members to force the register tier's rarely taken paths over code
// that would otherwise never reach them. Every member is host-side only.
type Stress uint8

const (
	// StressEagerReg builds and enters traces for every executed Code
	// immediately, at every level, without the sampler-count and
	// back-edge hotness gates.
	StressEagerReg Stress = 1 << iota
	// StressEagerOSR enters OSR points without waiting for the parent
	// trace's back-edge gate.
	StressEagerOSR
	// StressDeopt hands every trace run back to the accounted loop after
	// a single iteration, exercising the exit/re-entry state mapping at
	// every boundary.
	StressDeopt
	// StressNoInline refuses CALL during trace building, so loops with
	// calls degrade out of the register tier.
	StressNoInline

	stressAll = StressEagerReg | StressEagerOSR | StressDeopt | StressNoInline
)

var stressNames = [...]string{"eager-reg", "eager-osr", "forced-deopt", "no-inline"}

func (s Stress) String() string {
	var parts []string
	for i, name := range stressNames {
		if s&(1<<i) != 0 {
			parts = append(parts, name)
		}
	}
	return strings.Join(parts, "+")
}

// Tiers selects the host execution tiers of an engine: a ceiling and a
// stress set. The zero value is the production configuration, the
// register ceiling with no stress.
type Tiers struct {
	Ceiling Tier
	Stress  Stress
}

func (t Tiers) String() string {
	if t.Stress == 0 {
		return t.Ceiling.String()
	}
	return t.Ceiling.String() + "+" + t.Stress.String()
}

// TierModes returns the host configurations every equivalence suite
// holds to bit identity, derived rather than listed: each ceiling below
// register once (the stress set only steers the register tier), and the
// register ceiling under every stress subset in which eager-osr and
// forced-deopt come with eager-reg (without it their paths are reached
// only by loops that pass the hotness gates). A mode's name is its
// String. The first mode is the switch ceiling, the suites' reference.
func TierModes() []Tiers {
	var modes []Tiers
	for c := TierSwitch; c < TierRegister; c++ {
		modes = append(modes, Tiers{Ceiling: c})
	}
	for s := Stress(0); s <= stressAll; s++ {
		if s&(StressEagerOSR|StressDeopt) != 0 && s&StressEagerReg == 0 {
			continue
		}
		modes = append(modes, Tiers{Stress: s})
	}
	return modes
}
