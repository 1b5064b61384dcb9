package main

import (
	"fmt"
	"strings"

	"evolvevm/internal/opspec"
)

// genSem emits internal/interp/sem_gen.go: the scalar group helpers every
// tier calls (intBin, intCmp, fltBin, fltCmp), the comparison truth-table
// decomposition used by the closure tier, the semantic kernels of the
// pure ops outside any scalar group, and the kernel dispatch tables of
// the register tier.
func genSem(table []opspec.Op) string {
	var b strings.Builder
	b.WriteString("// The semantic core of the instruction set: every tier's arithmetic\n")
	b.WriteString("// routes through the helpers and kernels below, so the spec's scalar\n")
	b.WriteString("// expressions are the single definition of each op's value behavior.\n\n")

	genGroupFn(&b, table, "intbin", "intBin", "int64", "int64",
		"// intBin applies a non-trapping integer binop, mirroring the accounted\n// interpreter case by case.\n")
	genGroupFn(&b, table, "intcmp", "intCmp", "int64", "bool",
		"// intCmp applies an integer comparison, mirroring the accounted\n// interpreter case by case.\n")
	genGroupFn(&b, table, "fltbin", "fltBin", "float64", "float64",
		"// fltBin applies a float binop, mirroring the accounted interpreter.\n")
	genGroupFn(&b, table, "fltcmp", "fltCmp", "float64", "bool",
		"// fltCmp applies a float comparison, mirroring the accounted interpreter.\n")

	// cmpFlags: the three-region truth table of each integer comparison,
	// obtained by probing intCmp at one representative of each sign(a-b)
	// region — valid because every intcmp scalar expression is a function
	// of sign(a-b) alone.
	b.WriteString("// cmpFlags decomposes an integer comparison into its three-region truth\n")
	b.WriteString("// table: the result for a<b, a==b, and a>b. A closure captures the three\n")
	b.WriteString("// booleans and evaluates the comparison with two compares and no call.\n")
	b.WriteString("// The table is obtained by probing intCmp at one representative of each\n")
	b.WriteString("// region, so it tracks the spec's scalar expressions by construction\n")
	b.WriteString("// (every comparison in the intcmp group is a function of sign(a-b)).\n")
	b.WriteString("func cmpFlags(op bytecode.Op) (lt, eq, gt, ok bool) {\n")
	b.WriteString("\tswitch op {\n")
	var cmps []string
	for _, o := range table {
		if o.Group == "intcmp" {
			cmps = append(cmps, "bytecode."+o.Enum)
		}
	}
	fmt.Fprintf(&b, "\tcase %s:\n", strings.Join(cmps, ", "))
	b.WriteString("\t\treturn intCmp(op, 0, 1), intCmp(op, 0, 0), intCmp(op, 1, 0), true\n")
	b.WriteString("\t}\n\treturn false, false, false, false\n}\n\n")

	b.WriteString("// cmpJumpFlags folds a compare-and-branch's taken/not-taken sense into the\n")
	b.WriteString("// comparison's three-region truth table: the returned booleans say \"take\n")
	b.WriteString("// the branch\" directly for a<b, a==b, and a>b.\n")
	b.WriteString("func cmpJumpFlags(op bytecode.Op, want bool) (jlt, jeq, jgt bool) {\n")
	b.WriteString("\tlt, eq, gt, _ := cmpFlags(op)\n")
	b.WriteString("\treturn lt == want, eq == want, gt == want\n}\n\n")

	// Kernels for the pure ops outside any scalar group.
	for _, o := range table {
		if !kernelOp(o) {
			continue
		}
		fmt.Fprintf(&b, "// sem%s is the semantic kernel of %s.\n", o.Enum, o.Name)
		fmt.Fprintf(&b, "func sem%s(%s) bytecode.Value {\n", o.Enum, kernelParams(o.Pops))
		if o.KernelStmts {
			for _, line := range strings.Split(o.Kernel, "\n") {
				b.WriteString("\t" + line + "\n")
			}
		} else {
			fmt.Fprintf(&b, "\treturn %s\n", o.Kernel)
		}
		b.WriteString("}\n\n")
	}

	// Kernel dispatch tables, indexed by opcode and split by arity; the
	// register tier's rPure1/rPure2/rPure3 instructions dispatch through
	// them, and the converter uses them for constant folding.
	for arity := 1; arity <= 3; arity++ {
		fmt.Fprintf(&b, "// semTab%d maps each %d-operand kernel op to its kernel.\n", arity, arity)
		fmt.Fprintf(&b, "var semTab%d = [bytecode.NumOps]func(%s) bytecode.Value{\n",
			arity, strings.TrimSuffix(strings.Repeat("bytecode.Value, ", arity), ", "))
		for _, o := range table {
			if kernelOp(o) && o.Pops == arity {
				fmt.Fprintf(&b, "\tbytecode.%s: sem%s,\n", o.Enum, o.Enum)
			}
		}
		b.WriteString("}\n\n")
	}

	return interpFile(b.String())
}

// kernelOp reports whether o gets a standalone semantic kernel: a pure op
// whose semantics are a Kernel expression rather than a scalar group.
func kernelOp(o opspec.Op) bool {
	return o.Class == opspec.Pure && o.Group == "" && o.Kernel != ""
}

// kernelParams renders the kernel parameter list for the given arity:
// "v0, v1, v2 bytecode.Value".
func kernelParams(arity int) string {
	var names []string
	for i := 0; i < arity; i++ {
		names = append(names, fmt.Sprintf("v%d", i))
	}
	return strings.Join(names, ", ") + " bytecode.Value"
}

// genGroupFn emits one scalar-group helper: a switch over the group's
// non-trapping members returning each spec Scalar expression, with the
// last member as the default arm.
func genGroupFn(b *strings.Builder, table []opspec.Op, group, fname, argT, retT, doc string) {
	var members []opspec.Op
	for _, o := range table {
		if o.Group == group && !o.CanTrap() {
			members = append(members, o)
		}
	}
	b.WriteString(doc)
	fmt.Fprintf(b, "func %s(op bytecode.Op, a, b %s) %s {\n\tswitch op {\n", fname, argT, retT)
	for i, o := range members {
		if i == len(members)-1 {
			fmt.Fprintf(b, "\tdefault: // %s\n\t\treturn %s\n", o.Enum, o.Scalar)
		} else {
			fmt.Fprintf(b, "\tcase bytecode.%s:\n\t\treturn %s\n", o.Enum, o.Scalar)
		}
	}
	b.WriteString("\t}\n}\n\n")
}

// interpFile wraps a generated body in the interp package clause with
// exactly the imports the body uses.
func interpFile(body string) string {
	var b strings.Builder
	b.WriteString(header)
	b.WriteString("package interp\n\n")
	var imps []string
	for _, std := range []string{"fmt", "math", "slices", "sync"} {
		if strings.Contains(body, std+".") {
			imps = append(imps, "\""+std+"\"")
		}
	}
	if strings.Contains(body, "bytecode.") {
		imps = append(imps, "\n\"evolvevm/internal/bytecode\"")
	}
	if strings.Contains(body, "gc.") {
		imps = append(imps, "\"evolvevm/internal/gc\"")
	}
	if len(imps) > 0 {
		fmt.Fprintf(&b, "import (\n\t%s\n)\n\n", strings.Join(imps, "\n\t"))
	}
	b.WriteString(body)
	return b.String()
}
