package interp

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"evolvevm/internal/bytecode"
)

// This file pins the trace-tier counters to exact values. Each case runs
// one known program on one engine and asserts the precise delta of every
// ReadTraceStats field, so the counters are held to what they count — not
// merely to being non-zero — across every way out of Run: normal return,
// trap, cancellation, and deoptimization.

// statsAdd returns a + k·b field by field; zero degradation entries are
// dropped so results compare with reflect.DeepEqual.
func statsAdd(a, b TraceStats, k int64) TraceStats {
	d := TraceStats{
		Built:        a.Built + k*b.Built,
		HeadEntries:  a.HeadEntries + k*b.HeadEntries,
		OSREntries:   a.OSREntries + k*b.OSREntries,
		SideExits:    a.SideExits + k*b.SideExits,
		Traps:        a.Traps + k*b.Traps,
		Deopts:       a.Deopts + k*b.Deopts,
		GuardFails:   a.GuardFails + k*b.GuardFails,
		InlinedCalls: a.InlinedCalls + k*b.InlinedCalls,
		InlineDeopts: a.InlineDeopts + k*b.InlineDeopts,
	}
	for _, r := range DegradeReasons {
		if n := a.Degrade[r] + k*b.Degrade[r]; n != 0 {
			if d.Degrade == nil {
				d.Degrade = make(map[string]int64)
			}
			d.Degrade[r] = n
		}
	}
	return d
}

// statsDelta returns after - before.
func statsDelta(before, after TraceStats) TraceStats { return statsAdd(after, before, -1) }

// statsCase is one single-engine run with its exact expected counter
// delta.
type statsCase struct {
	name    string
	src     string
	globals map[string]bytecode.Value
	// configure, when set, sets up the engine after it is put on the
	// eager register tier; it may install hooks that mutate per-run
	// state, so it is called once per engine.
	configure func(p *bytecode.Program, e *Engine)
	// wantErr classifies the run's error: "" (none), "runtime", "canceled".
	wantErr string
	want    TraceStats
}

var errStop = errors.New("stop")

func statsCases() []statsCase {
	return []statsCase{
		{
			name:    "eager-regtier",
			src:     callLoopSrc,
			globals: map[string]bytecode.Value{"n": bytecode.Int(500)},
			want:    TraceStats{Built: 1, HeadEntries: 6, SideExits: 1, InlinedCalls: 494},
		},
		{
			name:    "stress-deopt",
			src:     callLoopSrc,
			globals: map[string]bytecode.Value{"n": bytecode.Int(200)},
			configure: func(p *bytecode.Program, e *Engine) {
				e.Tiers.Stress |= StressDeopt
			},
			want: TraceStats{Built: 1, HeadEntries: 198, SideExits: 1, Deopts: 197, InlinedCalls: 197},
		},
		{
			name: "osr",
			src:  branchySrc,
			globals: map[string]bytecode.Value{
				"n": bytecode.Int(10),
				"a": bytecode.Int(-1), "b": bytecode.Int(-1), "c": bytecode.Int(4),
			},
			configure: func(p *bytecode.Program, e *Engine) {
				e.Tiers.Stress |= StressEagerOSR
			},
			want: TraceStats{Built: 1, HeadEntries: 2, OSREntries: 1, SideExits: 2},
		},
		{
			name:    "trap",
			src:     divTrapSrc,
			globals: map[string]bytecode.Value{"n": bytecode.Int(8), "d": bytecode.Int(5)},
			wantErr: "runtime",
			want:    TraceStats{Built: 1, HeadEntries: 1, Traps: 1},
		},
		{
			name:    "canceled",
			src:     callLoopSrc,
			globals: map[string]bytecode.Value{"n": bytecode.Int(1_000_000)},
			configure: func(p *bytecode.Program, e *Engine) {
				polls := 0
				e.Interrupt = func() error {
					if polls++; polls == 6 {
						return errStop
					}
					return nil
				}
			},
			wantErr: "canceled",
			want:    TraceStats{Built: 1, HeadEntries: 5, InlinedCalls: 489},
		},
		{
			name:    "guard-fail",
			src:     callLoopSrc,
			globals: map[string]bytecode.Value{"n": bytecode.Int(400)},
			configure: func(p *bytecode.Program, e *Engine) {
				leafIdx, _ := p.FuncIndex("leaf")
				slow := NewCode(leafIdx, p.Funcs[leafIdx], -1, 100)
				fast := NewCode(leafIdx, p.Funcs[leafIdx], 2, 40)
				cur := slow
				base, basePeek := e.Provider, e.PeekCode
				e.Provider = func(fn int) *Code {
					if fn == leafIdx {
						return cur
					}
					return base(fn)
				}
				e.PeekCode = func(fn int) *Code {
					if fn == leafIdx {
						return cur
					}
					return basePeek(fn)
				}
				e.OnInvoke = func(fn int, count int64) {
					if fn == leafIdx && count == 100 {
						cur = fast
					}
				}
			},
			want: TraceStats{Built: 1, HeadEntries: 299, SideExits: 298, GuardFails: 297, InlinedCalls: 99},
		},
		{
			name:    "hook-charge",
			src:     callLoopSrc,
			globals: map[string]bytecode.Value{"n": bytecode.Int(300)},
			configure: func(p *bytecode.Program, e *Engine) {
				leafIdx, _ := p.FuncIndex("leaf")
				e.OnInvoke = func(fn int, count int64) {
					if fn == leafIdx && count%50 == 0 {
						// Park the clock one cycle short of the next sample
						// boundary: the rest of the iteration cannot fit.
						e.AddCycles(e.SampleStride - e.Cycles%e.SampleStride - 1)
					}
				}
			},
			want: TraceStats{Built: 1, HeadEntries: 7, SideExits: 1, InlinedCalls: 293, InlineDeopts: 6},
		},
		{
			name:    "depth-trap",
			src:     depthTrapWarmSrc,
			globals: map[string]bytecode.Value{"n": bytecode.Int(10)},
			wantErr: "runtime",
			want:    TraceStats{Built: 1, HeadEntries: 1, Traps: 1},
		},
	}
}

// runStatsCase runs one case on a fresh engine and checks its error class.
func runStatsCase(c statsCase, p *bytecode.Program) error {
	e := NewEngine(p)
	e.MaxCycles = 200_000_000
	for k, v := range c.globals {
		if err := e.SetGlobal(k, v); err != nil {
			return err
		}
	}
	e.Tiers.Stress = StressEagerReg
	if c.configure != nil {
		c.configure(p, e)
	}
	_, err := e.Run()
	var re *RuntimeError
	var ce *CanceledError
	switch {
	case c.wantErr == "" && err == nil,
		c.wantErr == "runtime" && errors.As(err, &re),
		c.wantErr == "canceled" && errors.As(err, &ce) && errors.Is(err, errStop):
		return nil
	}
	return fmt.Errorf("%s: run error %v, want class %q", c.name, err, c.wantErr)
}

// TestTraceStatsExact asserts the exact per-run counter deltas of every
// case on a single engine.
func TestTraceStatsExact(t *testing.T) {
	for _, c := range statsCases() {
		t.Run(c.name, func(t *testing.T) {
			p := mustProg(t, c.src)
			before := ReadTraceStats()
			if err := runStatsCase(c, p); err != nil {
				t.Fatal(err)
			}
			got := statsDelta(before, ReadTraceStats())
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("delta %#v\nwant  %#v", got, c.want)
			}
		})
	}
}

// TestTraceStatsConcurrentSum runs every case on N engines at once: the
// process-wide totals must be exactly N times the single-engine deltas,
// with no update lost or double-counted (run it under -race).
func TestTraceStatsConcurrentSum(t *testing.T) {
	const engines = 4
	cases := statsCases()
	progs := make([]*bytecode.Program, len(cases))
	for i, c := range cases {
		progs[i] = mustProg(t, c.src)
	}
	before := ReadTraceStats()
	var wg sync.WaitGroup
	errs := make(chan error, engines*len(cases))
	for w := 0; w < engines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, c := range cases {
				if err := runStatsCase(c, progs[i]); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got := statsDelta(before, ReadTraceStats())
	var want TraceStats
	for _, c := range cases {
		want = statsAdd(want, c.want, engines)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("concurrent delta %#v\nwant             %#v", got, want)
	}
}
