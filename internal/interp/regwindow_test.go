package interp

import (
	"reflect"
	"runtime"
	"testing"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/gc"
)

// This file holds the edge cases of the in-place register file: a trace's
// registers are a window of the locals arena (the frame's locals, then
// temporaries and pinned callee blocks in the arena's spare capacity), so
// the tests aim at the places where that window meets the rest of the
// engine — arena growth, the collector's roots, and callee-frame
// materialization moving a pinned block over live registers. Each run is
// compared with the per-instruction interpreter (TierSwitch); the
// difftest suite runs the same shapes through every substrate mode and
// tier (internal/difftest/regwindow_test.go).

// withFreshArena runs f with the scratch pool emptied and seeded so the
// next Run starts on a locals arena of exactly capLocals capacity. It
// returns the locals capacity that run handed back. Two collections empty
// a sync.Pool (primary, then victim cache), so the run's Get must call New.
func withFreshArena(t *testing.T, capLocals int, f func()) int {
	t.Helper()
	var made *runScratch
	oldNew := scratchPool.New
	scratchPool.New = func() any {
		made = &runScratch{
			locals: make([]bytecode.Value, 0, capLocals),
			stack:  make([]bytecode.Value, 0, 256),
			frames: make([]frame, 0, 32),
		}
		return made
	}
	defer func() { scratchPool.New = oldNew }()
	runtime.GC()
	runtime.GC()
	f()
	if made == nil {
		t.Fatal("run did not start on a fresh arena")
	}
	return cap(made.locals)
}

// gcWindowSrc runs a traced loop in work, whose frame ends exactly at the
// arena's capacity when the test seeds it so: every trace entry must grow
// the arena before its temporaries fit. The iteration's last write to a
// temporary loads the array held by global arr, and the exit test reads
// only locals, so the trace leaves that reference behind in the spare
// capacity. After the loop main drops the array and
// allocates, starting a collection. The dropped array is then referenced
// only by stale registers above the live frames' locals, so it must be
// freed exactly as in the per-instruction interpreter.
const gcWindowSrc = `
global n
global arr
global keep
func main() locals r
  const 8
  newarr
  gstore arr
  call work 0
  store r
  const 0
  gstore arr
  const 6
  newarr
  gstore keep
  load r
  ret
end
func work() locals i s m
  gload n
  store m
  const 0
  store s
  const 0
  store i
loop:
  load i
  load m
  ige
  jnz done
  load s
  gload arr
  load i
  const 7
  iand
  aload
  iadd
  store s
  gload arr
  load i
  const 7
  iand
  load i
  const 3
  imul
  astore
  iinc i 1
  jmp loop
done:
  load s
  ret
end
`

// heapSnap renders the engine's heap and collector record.
type heapSnap struct {
	heap  [][]bytecode.Value
	stats gc.Stats
}

func snapHeap(e *Engine) heapSnap {
	h := heapSnap{stats: e.GCStats}
	for _, arr := range e.heap {
		h.heap = append(h.heap, append([]bytecode.Value(nil), arr...))
	}
	return h
}

// TestRegWindowGrowThenCollect enters the trace with no spare arena
// capacity (main's and work's locals exactly fill it), so the grow path
// reallocates; then main's allocation collects under each policy.
func TestRegWindowGrowThenCollect(t *testing.T) {
	p := mustProg(t, gcWindowSrc)
	g := map[string]bytecode.Value{"n": bytecode.Int(40)}
	// Arena length while work runs: main's one local plus work's three.
	const frameTop = 4
	for _, pol := range []gc.Policy{gc.Copying, gc.MarkSweep} {
		t.Run(pol.String(), func(t *testing.T) {
			var refEng, gotEng *Engine
			withGC := func(extra func(*Engine)) func(*Engine) {
				return func(e *Engine) {
					e.GC = gc.Config{Policy: pol, BudgetCells: 10}
					extra(e)
				}
			}
			ref := snapRun(t, p, g, withGC(func(e *Engine) { e.Tiers.Ceiling = TierSwitch; refEng = e }))
			var got *engineSnap
			before := ReadTraceStats()
			grown := withFreshArena(t, frameTop, func() {
				got = snapRun(t, p, g, withGC(func(e *Engine) { e.Tiers.Stress = StressEagerReg; gotEng = e }))
			})
			if d := statsDelta(before, ReadTraceStats()); d.HeadEntries == 0 {
				t.Fatalf("work's loop never entered the register tier: %+v", d)
			}
			snapIdentical(t, "grow-collect", ref, got)
			refHeap, gotHeap := snapHeap(refEng), snapHeap(gotEng)
			if !reflect.DeepEqual(refHeap, gotHeap) {
				t.Fatalf("heap diverged:\nref %+v\ngot %+v", refHeap, gotHeap)
			}
			if len(refHeap.stats.Collections) == 0 || refHeap.stats.FreedCells < 8 {
				t.Fatalf("no collection freed the dropped array: %+v", refHeap.stats)
			}
			if grown <= frameTop {
				t.Fatalf("arena capacity %d after the run: the trace never grew it", grown)
			}
		})
	}
}

// cpushSrc inlines leaf into main's loop with a temporary (2*i, the
// argument) allocated before leaf's pinned block, so the block sits above
// the frame base it moves down to when a callee exit materializes leaf's
// frame. leaf's branch exits with x on its operand stack, read from the
// block's first register — the slot y lands in once the block has moved.
const cpushSrc = `
global n
global k
func main() locals i s
  const 0
  store s
  const 0
  store i
loop:
  load i
  gload n
  ige
  jnz done
  load s
  load i
  const 2
  imul
  call leaf 1
  iadd
  store s
  iinc i 1
  jmp loop
done:
  load s
  ret
end
func leaf(x) locals y
  load x
  load x
  imul
  store y
  load x
  load y
  gload k
  ieq
  jnz hit
  const 1
  iadd
  ret
hit:
  load y
  iadd
  ret
end
`

// calleeExitOverlap reports whether cpushSrc's trace has the shape the
// callee-exit test needs: a callee exit whose operand stack reads a
// register of the pinned block that the frame materialization overwrites.
func calleeExitOverlap(t *testing.T, p *bytecode.Program) bool {
	t.Helper()
	leafIdx, _ := p.FuncIndex("leaf")
	leaf := NewCode(leafIdx, p.Funcs[leafIdx], -1, BaselineScalePct)
	main := NewCode(p.Entry, p.Funcs[p.Entry], -1, BaselineScalePct)
	tp := buildTracePlan(main, true, func(fn int) *Code {
		if fn == leafIdx {
			return leaf
		}
		return nil
	})
	for _, tr := range tp.tr {
		if tr == nil {
			continue
		}
		for _, ex := range tr.exits {
			if ex.callIdx < 0 {
				continue
			}
			rc := tr.calls[ex.callIdx]
			// The move writes regs[nloc : nloc+rc.nloc].
			for _, q := range ex.cpush {
				if symKind(q.kind) == symReg && q.v >= tr.nloc && q.v < tr.nloc+rc.nloc && rc.lbase > tr.nloc {
					return true
				}
			}
		}
	}
	return false
}

// TestRegWindowCalleeExitStack fires leaf's side exit at every iteration
// of the loop: the materialized frame must see x on its operand stack,
// not the value the block move left in x's register.
func TestRegWindowCalleeExitStack(t *testing.T) {
	p := mustProg(t, cpushSrc)
	if !calleeExitOverlap(t, p) {
		t.Fatal("trace shape changed: no callee exit reads a register the frame move overwrites")
	}
	const n = 12
	for i := int64(0); i <= n; i++ { // i == n: the exit never fires
		x := 2 * i
		before := ReadTraceStats()
		checkTraceLadder(t, cpushSrc, map[string]bytecode.Value{
			"n": bytecode.Int(n), "k": bytecode.Int(x * x),
		})
		if d := statsDelta(before, ReadTraceStats()); d.InlinedCalls == 0 {
			t.Fatalf("k=%d: leaf never ran inlined: %+v", x*x, d)
		}
	}
}
