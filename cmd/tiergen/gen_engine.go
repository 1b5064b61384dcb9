package main

import (
	"fmt"
	"os"
	"strings"

	"evolvevm/internal/opspec"
)

// genEngineRun emits internal/interp/engine_run_gen.go: the whole of
// Engine.Run. The tier scaffolding — frame handling, sampling, the trace
// tier entry, the fused superinstruction arms — is spliced
// in verbatim from the templates below; the per-opcode arms of the fused
// plan's micro-op switch and of the accounted per-instruction switch are
// generated from the spec (scalar groups as shared inner switches with
// trap clauses spliced in, kernel ops as kernel calls, structural and
// control ops from the per-op snippet tables).
func genEngineRun(table []opspec.Op) string {
	var b strings.Builder
	b.WriteString(runTop)
	emitOpArms(&b, table, true)
	b.WriteString(runMid)
	emitOpArms(&b, table, false)
	b.WriteString(runBottom)
	return interpFile(b.String())
}

// fail aborts generation with a spec-coverage error (e.g. a structural op
// without a snippet for a tier it is classified into).
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tiergen: "+format+"\n", args...)
	os.Exit(1)
}

// groupInfo describes how a scalar group's ops read their operands and
// wrap their result on the operand stack.
type groupInfo struct {
	access string // operand accessor on a stack Value
	rType  string // scalar result type
	wrap   string // Value constructor for the result
}

var groupInfos = map[string]groupInfo{
	"intbin": {".I", "int64", "bytecode.Int"},
	"intcmp": {".I", "bool", "bytecode.Bool"},
	"fltbin": {".AsFloat()", "float64", "bytecode.Float"},
	"fltcmp": {".AsFloat()", "bool", "bytecode.Bool"},
}

// membersOf returns the spec entries of one scalar group, in spec order.
func membersOf(table []opspec.Op, group string) []opspec.Op {
	var ms []opspec.Op
	for _, o := range table {
		if o.Group == group {
			ms = append(ms, o)
		}
	}
	return ms
}

// planRollback is the suffix-charge rollback a trapping micro-op performs
// before surfacing its trap: subtract the unexecuted tail of the batched
// segment charge and report the trap at the op's original successor pc.
const planRollback = `e.Cycles -= int64(f.rem)
*workP -= int64(f.remBase)
*cycP -= int64(f.rem)
fr.pc = int(f.tpc)
`

// emitGroupArm emits one scalar-group case arm: pop two operands, inner
// switch over the group members splicing each spec Scalar expression (and
// trap clauses, with rollback on the plan tier), push the wrapped result.
func emitGroupArm(b *strings.Builder, table []opspec.Op, group, opExpr string, plan bool) {
	gi, ok := groupInfos[group]
	if !ok {
		fail("unknown scalar group %q", group)
	}
	members := membersOf(table, group)
	var names []string
	for _, o := range members {
		names = append(names, "bytecode."+o.Enum)
	}
	fmt.Fprintf(b, "case %s:\n", strings.Join(names, ", "))
	fmt.Fprintf(b, "n := len(stack)\na, b := stack[n-2]%s, stack[n-1]%s\nstack = stack[:n-1]\nvar r %s\nswitch %s {\n",
		gi.access, gi.access, gi.rType, opExpr)
	for _, o := range members {
		fmt.Fprintf(b, "case bytecode.%s:\n", o.Enum)
		for _, t := range o.Traps {
			fmt.Fprintf(b, "if %s {\n", t.Cond)
			if plan {
				b.WriteString(planRollback)
			}
			fmt.Fprintf(b, "return result, rerr(%q)\n}\n", t.Msg)
		}
		fmt.Fprintf(b, "r = %s\n", o.Scalar)
	}
	b.WriteString("}\n")
	fmt.Fprintf(b, "stack[n-2] = %s(r)\n", gi.wrap)
}

// emitKernelArm emits the case arm of a pure kernel op: apply the
// generated kernel to the top Pops stack values in place.
func emitKernelArm(b *strings.Builder, o opspec.Op) {
	fmt.Fprintf(b, "case bytecode.%s:\n", o.Enum)
	if o.Pops == 1 {
		fmt.Fprintf(b, "stack[len(stack)-1] = sem%s(stack[len(stack)-1])\n", o.Enum)
		return
	}
	var args []string
	for i := 0; i < o.Pops; i++ {
		args = append(args, fmt.Sprintf("stack[n-%d]", o.Pops-i))
	}
	fmt.Fprintf(b, "n := len(stack)\nv := sem%s(%s)\nstack = stack[:n-%d]\nstack[n-%d] = v\n",
		o.Enum, strings.Join(args, ", "), o.Pops-1, o.Pops)
}

// emitOpArms emits the per-opcode case arms of one dispatch switch: the
// fused plan's micro-op switch (plan true; ops classified segNone are
// absent from micro-programs and skipped) or the accounted
// per-instruction switch (plan false; every op).
func emitOpArms(b *strings.Builder, table []opspec.Op, plan bool) {
	opExpr := "in.Op"
	snippets := accSnippets
	if plan {
		opExpr = "f.op"
		snippets = planSnippets
	}
	doneGroups := make(map[string]bool)
	for _, o := range table {
		if plan && segClassOf(o) == "" {
			continue
		}
		switch {
		case o.Group != "":
			if !doneGroups[o.Group] {
				doneGroups[o.Group] = true
				emitGroupArm(b, table, o.Group, opExpr, plan)
			}
		case kernelOp(o):
			emitKernelArm(b, o)
		default:
			snip, ok := snippets[o.Enum]
			if !ok {
				tier := "accounted"
				if plan {
					tier = "plan"
				}
				fail("op %s has no scalar group, no kernel, and no %s-tier snippet", o.Enum, tier)
			}
			fmt.Fprintf(b, "case bytecode.%s:\n", o.Enum)
			b.WriteString(snip)
		}
	}
}

// accSnippets are the accounted-loop case bodies of the structural and
// control ops, whose semantics live in engine state (frames, heap,
// output) rather than in a value kernel. Operands are decoded from the
// instruction (in.A, in.B).
var accSnippets = map[string]string{
	"NOP": "",
	"IPUSH": `stack = append(stack, bytecode.Int(int64(in.A)))
`,
	"CONST": `stack = append(stack, code.Consts[in.A])
`,
	"LOAD": `stack = append(stack, locals[lb+int(in.A)])
`,
	"STORE": `locals[lb+int(in.A)] = stack[len(stack)-1]
stack = stack[:len(stack)-1]
`,
	"GLOAD": `stack = append(stack, e.Globals[in.A])
`,
	"GSTORE": `e.Globals[in.A] = stack[len(stack)-1]
stack = stack[:len(stack)-1]
`,
	"IINC": `locals[lb+int(in.A)].I += int64(in.B)
`,
	"POP": `stack = stack[:len(stack)-1]
`,
	"DUP": `stack = append(stack, stack[len(stack)-1])
`,
	"SWAP": `n := len(stack)
stack[n-1], stack[n-2] = stack[n-2], stack[n-1]
`,
	"JMP": `fr.pc = int(in.A)
`,
	"JZ": `v := stack[len(stack)-1]
stack = stack[:len(stack)-1]
if !v.IsTrue() {
fr.pc = int(in.A)
}
`,
	"JNZ": `v := stack[len(stack)-1]
stack = stack[:len(stack)-1]
if v.IsTrue() {
fr.pc = int(in.A)
}
`,
	"CALL": `argc := int(in.B)
args := stack[len(stack)-argc:]
if err := push(int(in.A)); err != nil {
return result, err
}
nf := &frames[len(frames)-1]
copy(locals[nf.localsBase:], args)
stack = stack[:len(stack)-argc]
nf.spBase = len(stack)
break body // switch to callee frame
`,
	"RET": `rv := stack[len(stack)-1]
stack = stack[:fr.spBase]
locals = locals[:fr.localsBase]
frames = frames[:len(frames)-1]
stack = append(stack, rv)
if len(frames) == 0 {
result = rv
return result, nil
}
break body // resume caller frame
`,
	"NEWARR": `n := stack[len(stack)-1].AsInt()
// Publish the collector's root sets: a collection can
// only start inside NewArray. A copying collection
// rewrites references in place, so the aliased local
// slices stay valid afterwards.
e.rootLocals, e.rootStack = locals, stack[:len(stack)-1]
ref, err := e.NewArray(n)
if err != nil {
return result, rerr("%v", err)
}
// Allocation cost scales with size; charge it to the
// allocating function as well so the per-function ledger
// (Σ FnCycles) reconciles with the engine clock.
e.Cycles += 2 * n
*cycP += 2 * n
stack[len(stack)-1] = ref
`,
	"ALOAD": `n := len(stack)
arr, err := e.Array(stack[n-2])
if err != nil {
return result, rerr("aload: %v", err)
}
idx := stack[n-1].AsInt()
if idx < 0 || idx >= int64(len(arr)) {
return result, rerr("aload: index %d out of range [0,%d)", idx, len(arr))
}
stack = stack[:n-1]
stack[n-2] = arr[idx]
`,
	"ASTORE": `n := len(stack)
arr, err := e.Array(stack[n-3])
if err != nil {
return result, rerr("astore: %v", err)
}
idx := stack[n-2].AsInt()
if idx < 0 || idx >= int64(len(arr)) {
return result, rerr("astore: index %d out of range [0,%d)", idx, len(arr))
}
arr[idx] = stack[n-1]
stack = stack[:n-3]
`,
	"ALEN": `arr, err := e.Array(stack[len(stack)-1])
if err != nil {
return result, rerr("alen: %v", err)
}
stack[len(stack)-1] = bytecode.Int(int64(len(arr)))
`,
	"PRINT": `e.Output = append(e.Output, stack[len(stack)-1])
stack = stack[:len(stack)-1]
`,
	"HALT": `e.halted = true
if len(stack) > fr.spBase {
result = stack[len(stack)-1]
}
return result, nil
`,
}

// planSnippets are the plan micro-op case bodies of the structural ops
// admitted into segments. Operands are pre-decoded into the fop (f.a,
// f.b); trapping ops roll back the unexecuted suffix charge (f.rem,
// f.remBase) and report at the original successor pc (f.tpc).
var planSnippets = map[string]string{
	"NOP": "",
	"IPUSH": `stack = append(stack, bytecode.Int(int64(f.a)))
`,
	"CONST": `stack = append(stack, code.Consts[f.a])
`,
	"LOAD": `stack = append(stack, locals[lb+int(f.a)])
`,
	"STORE": `locals[lb+int(f.a)] = stack[len(stack)-1]
stack = stack[:len(stack)-1]
`,
	"GLOAD": `stack = append(stack, e.Globals[f.a])
`,
	"GSTORE": `e.Globals[f.a] = stack[len(stack)-1]
stack = stack[:len(stack)-1]
`,
	"IINC": `locals[lb+int(f.a)].I += int64(f.b)
`,
	"POP": `stack = stack[:len(stack)-1]
`,
	"DUP": `stack = append(stack, stack[len(stack)-1])
`,
	"SWAP": `n := len(stack)
stack[n-1], stack[n-2] = stack[n-2], stack[n-1]
`,
	"JMP": `fr.pc = int(f.a)
`,
	"JZ": `v := stack[len(stack)-1]
stack = stack[:len(stack)-1]
if !v.IsTrue() {
fr.pc = int(f.a)
}
`,
	"JNZ": `v := stack[len(stack)-1]
stack = stack[:len(stack)-1]
if v.IsTrue() {
fr.pc = int(f.a)
}
`,
	"ALOAD": `n := len(stack)
arr, aerr := e.Array(stack[n-2])
if aerr == nil {
idx := stack[n-1].AsInt()
if idx >= 0 && idx < int64(len(arr)) {
stack = stack[:n-1]
stack[n-2] = arr[idx]
break
}
aerr = fmt.Errorf("index %d out of range [0,%d)", idx, len(arr))
}
e.Cycles -= int64(f.rem)
*workP -= int64(f.remBase)
*cycP -= int64(f.rem)
fr.pc = int(f.tpc)
return result, rerr("aload: %v", aerr)
`,
	"ASTORE": `n := len(stack)
arr, aerr := e.Array(stack[n-3])
if aerr == nil {
idx := stack[n-2].AsInt()
if idx >= 0 && idx < int64(len(arr)) {
arr[idx] = stack[n-1]
stack = stack[:n-3]
break
}
aerr = fmt.Errorf("index %d out of range [0,%d)", idx, len(arr))
}
e.Cycles -= int64(f.rem)
*workP -= int64(f.remBase)
*cycP -= int64(f.rem)
fr.pc = int(f.tpc)
return result, rerr("astore: %v", aerr)
`,
	"ALEN": `arr, aerr := e.Array(stack[len(stack)-1])
if aerr != nil {
e.Cycles -= int64(f.rem)
*workP -= int64(f.remBase)
*cycP -= int64(f.rem)
fr.pc = int(f.tpc)
return result, rerr("alen: %v", aerr)
}
stack[len(stack)-1] = bytecode.Int(int64(len(arr)))
`,
	"PRINT": `e.Output = append(e.Output, stack[len(stack)-1])
stack = stack[:len(stack)-1]
`,
}
