package difftest

import (
	"fmt"
	"testing"

	"evolvevm/internal/bytecode"
	"evolvevm/internal/gc"
	"evolvevm/internal/interp"
	"evolvevm/internal/jit"
)

// The register tier's register file is a window of the locals arena: the
// running frame's locals, then temporaries and inlined callees' pinned
// local blocks in the arena's spare capacity. These programs aim at the
// places where that window meets the rest of the engine, and every
// substrate mode must reproduce the per-instruction interpreter on them
// bit for bit, at every tier and under every collector.

// rwCollect leaves an array reference in a stale temporary above the live
// frames' locals (work's last temporary write loads arr; its exit test
// reads only locals), then drops the array and allocates: the collection
// must free it, because collector roots end at the live frames' locals.
const rwCollect = `
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

// rwCallee inlines leaf with a temporary (the argument 2*i) allocated
// beneath its pinned block, so materializing leaf's frame moves the block
// down over registers. leaf's branch exits with x on its operand stack
// (when y == k); an OnInvoke charge can also force an entry deopt.
const rwCallee = `
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

// parkHook returns a configure step whose OnInvoke hook, on every every-th
// invocation of fn, charges the clock to one cycle short of the next
// sample boundary — a compile-like charge that leaves no room for the rest
// of a trace iteration. Boundaries sit at whole strides from the clock at
// Run start, which the entry function's first invocation observes. The
// charge is booked to fn's cycle ledger so the oracle's ledger balances.
func parkHook(fn int, every int64) func(*interp.Engine) {
	return func(e *interp.Engine) {
		var base int64
		e.OnInvoke = func(f int, count int64) {
			if f == e.Prog.Entry && count == 1 {
				base = e.Cycles
			}
			if f == fn && count%every == 0 {
				n := e.SampleStride - (e.Cycles-base)%e.SampleStride - 1
				e.FnCycles[fn] += n
				e.AddCycles(n)
			}
		}
	}
}

// TestRegWindowEdges checks the edge programs against the oracle: each
// substrate mode bit-identical to the substrate-off run, at every tier.
func TestRegWindowEdges(t *testing.T) {
	collect := mustAssemble(t, rwCollect)
	callee := mustAssemble(t, rwCallee)
	leaf, _ := callee.FuncIndex("leaf")
	type edge struct {
		name   string
		prog   *bytecode.Program
		gc     gc.Config
		input  map[string]int64
		config func(*interp.Engine)
		deopts bool // the edge must force inlined-callee entry deopts
	}
	var edges []edge
	for _, pol := range []gc.Policy{gc.Copying, gc.MarkSweep} {
		edges = append(edges, edge{"collect-" + pol.String(), collect,
			gc.Config{Policy: pol, BudgetCells: 10}, map[string]int64{"n": 40}, nil, false})
	}
	for i := int64(0); i <= 12; i += 3 {
		x := 2 * i
		edges = append(edges, edge{fmt.Sprintf("callee-exit@%d", i), callee,
			gc.Config{}, map[string]int64{"n": 12, "k": x * x}, nil, false})
	}
	for _, every := range []int64{1, 3, 7} {
		edges = append(edges, edge{fmt.Sprintf("hook-entry/%d", every), callee,
			gc.Config{}, map[string]int64{"n": 40, "k": -1}, parkHook(leaf, every), true})
	}
	for _, ed := range edges {
		var slots []int
		var input []bytecode.Value
		for name, v := range ed.input {
			idx, ok := ed.prog.GlobalIndex(name)
			if !ok {
				t.Fatalf("%s: no global %q", ed.name, name)
			}
			slots = append(slots, idx)
			input = append(input, bytecode.Int(v))
		}
		then := func(mode func(*interp.Engine)) func(*interp.Engine) {
			return func(e *interp.Engine) {
				if ed.config != nil {
					ed.config(e)
				}
				mode(e)
			}
		}
		before := interp.ReadTraceStats()
		for level := jit.MinLevel; level <= jit.MaxLevel; level++ {
			ref := checkModes(t, fmt.Sprintf("%s level %d", ed.name, level),
				func(configure func(*interp.Engine)) (*Exec, error) {
					return RunTierConfigured(ed.prog, level, ed.gc, runCap, slots, input, then(configure))
				})
			if ref.Trap != "" {
				t.Fatalf("%s level %d: reference trapped: %s", ed.name, level, ref.Trap)
			}
		}
		if ed.deopts && interp.ReadTraceStats().InlineDeopts == before.InlineDeopts {
			t.Errorf("%s: no entry deopt fired", ed.name)
		}
	}
}

func mustAssemble(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	p, err := bytecode.Assemble("edge", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if err := bytecode.Verify(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return p
}
