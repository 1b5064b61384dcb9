// Package opspec is the single declarative specification of the VM's
// instruction set: one entry per opcode carrying its mnemonic, stack
// effect, operand kind, virtual-cycle cost, semantics expression, and trap
// clauses. cmd/tiergen consumes this table and generates the opcode
// metadata in internal/bytecode plus the dispatch arms, fusion legality
// tables, and register-IR lowering rules of all three execution tiers in
// internal/interp — the tiers are equivalent by construction because
// every one of them is derived from this file.
//
// The package deliberately does not import internal/bytecode: the opcode
// constants over there are themselves generated from this table, in spec
// order.
package opspec

import "fmt"

// OperandKind mirrors the assembler/verifier operand classes of
// internal/bytecode. tiergen emits the bytecode-side enum from this one,
// so the two stay index-compatible.
type OperandKind uint8

const (
	OpsNone   OperandKind = iota
	OpsImm                // A is an immediate integer (IPUSH)
	OpsConst              // A is a constant-pool index
	OpsLocal              // A is a local slot
	OpsLocImm             // A is a local slot, B an immediate (IINC)
	OpsGlobal             // A is a global slot
	OpsTarget             // A is a jump target (instruction index)
	OpsCall               // A is a function index, B an arg count
	numOperandKinds
)

var operandKindNames = [numOperandKinds]string{
	OpsNone:   "opsNone",
	OpsImm:    "opsImm",
	OpsConst:  "opsConst",
	OpsLocal:  "opsLocal",
	OpsLocImm: "opsLocImm",
	OpsGlobal: "opsGlobal",
	OpsTarget: "opsTarget",
	OpsCall:   "opsCall",
}

// GoName returns the bytecode-package identifier of the operand kind.
func (k OperandKind) GoName() (string, bool) {
	if k >= numOperandKinds {
		return "", false
	}
	return operandKindNames[k], true
}

// Class is the coarse execution role of an opcode. It decides which parts
// of each tier are generated from the spec and which come from the tier's
// scaffolding templates.
type Class uint8

const (
	// Pure ops compute a value from their stack operands with no engine
	// access: the semantics live entirely in Scalar (grouped ops) or
	// Kernel, and every tier's dispatch arm is generated from them.
	Pure Class = iota
	// Structural ops move values between stack, locals, globals, and the
	// constant pool (or touch engine state like the output log and heap):
	// their per-tier arms are scaffolding templates keyed by name, but
	// their metadata, cost, and fusion legality still come from the spec.
	Structural
	// Control ops transfer control (branches, calls, returns, halt); they
	// terminate fusion segments and are handled by tier scaffolding.
	Control
)

func (c Class) String() string {
	switch c {
	case Pure:
		return "pure"
	case Structural:
		return "structural"
	case Control:
		return "control"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Trap is one trap clause of an opcode: when Cond holds at run time the op
// aborts the run with Msg. For grouped integer ops Cond is a Go expression
// over the scalar operands a and b that tiergen splices into every tier's
// dispatch arm verbatim; for Structural ops with hand-templated bodies
// (the array ops) Cond is descriptive and the clause only feeds the trap
// *flag* used by the fusion-legality and loop-hoisting tables. An empty
// Cond marks an unconditional trap and must be the last clause.
type Trap struct {
	Cond string
	Msg  string
}

// Op is the full specification of one opcode.
type Op struct {
	// Enum is the Go constant name generated into internal/bytecode
	// (e.g. "IADD"); Name is the assembler mnemonic ("iadd").
	Enum string
	Name string

	Operands OperandKind

	// Pops/Pushes is the static stack effect. Pops is -1 for CALL, whose
	// pop count is operand-dependent.
	Pops   int
	Pushes int

	// Cost is the baseline interpreter cycle charge — the single source
	// of the per-op cost tables of every tier and of the harness's cycle
	// accounting.
	Cost int64

	Class Class

	// Group names a family of ops sharing one generated scalar helper:
	// "intbin" (int64 a,b → int64), "intcmp" (int64 a,b → bool),
	// "fltbin" (float64 a,b → float64), "fltcmp" (float64 a,b → bool).
	// Scalar is the Go expression over a and b. Empty for ungrouped ops.
	Group  string
	Scalar string

	// Kernel is the semantics of an ungrouped Pure op as Go source over
	// the popped values v0..v{Pops-1} (v0 deepest). It is either a single
	// expression yielding a bytecode.Value or, when KernelStmts is set, a
	// full function body that returns one.
	Kernel      string
	KernelStmts bool

	// Traps lists the opcode's trap clauses in evaluation order.
	Traps []Trap

	// Alloc marks ops that can allocate heap memory (and hence start a
	// garbage collection). Alloc ops never enter fusion segments.
	Alloc bool

	// Jump/CondJump/Terminator feed the generated control-flow predicate
	// table (Op.IsJump and friends).
	Jump       bool
	CondJump   bool
	Terminator bool
}

// CanTrap reports whether the op has at least one trap clause.
func (o *Op) CanTrap() bool { return len(o.Traps) > 0 }

// SpecError is a positioned validation error: Index and Enum locate the
// offending spec entry (Index −1 for table-level errors).
type SpecError struct {
	Index int
	Enum  string
	Msg   string
}

func (e *SpecError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("opspec: %s", e.Msg)
	}
	return fmt.Sprintf("opspec: op %d (%s): %s", e.Index, e.Enum, e.Msg)
}

var validGroups = map[string]bool{"intbin": true, "intcmp": true, "fltbin": true, "fltcmp": true}

// Validate checks the spec table for structural mistakes and returns every
// violation as a positioned error. tiergen refuses to generate from a
// table that does not validate.
func Validate(table []Op) []error {
	var errs []error
	bad := func(i int, enum, format string, args ...interface{}) {
		errs = append(errs, &SpecError{Index: i, Enum: enum, Msg: fmt.Sprintf(format, args...)})
	}
	names := make(map[string]int, len(table))
	enums := make(map[string]int, len(table))
	for i := range table {
		o := &table[i]
		if o.Enum == "" || o.Name == "" {
			bad(i, o.Enum, "missing enum or mnemonic")
			continue
		}
		if prev, dup := enums[o.Enum]; dup {
			bad(i, o.Enum, "duplicate enum (first at op %d)", prev)
		}
		enums[o.Enum] = i
		if prev, dup := names[o.Name]; dup {
			bad(i, o.Enum, "duplicate mnemonic %q (first at op %d)", o.Name, prev)
		}
		names[o.Name] = i
		if _, ok := o.Operands.GoName(); !ok {
			bad(i, o.Enum, "unknown operand kind %d", o.Operands)
		}
		if o.Cost <= 0 {
			bad(i, o.Enum, "cost %d is not positive", o.Cost)
		}
		if o.Pops < -1 || (o.Pops == -1 && o.Operands != OpsCall) {
			bad(i, o.Enum, "invalid pop count %d", o.Pops)
		}
		if o.Pushes < 0 {
			bad(i, o.Enum, "negative push count %d", o.Pushes)
		}
		if o.Group != "" {
			if !validGroups[o.Group] {
				bad(i, o.Enum, "unknown group %q", o.Group)
			}
			if o.Scalar == "" {
				bad(i, o.Enum, "grouped op has no scalar expression")
			}
			if o.Kernel != "" {
				bad(i, o.Enum, "grouped op must not also define a kernel")
			}
			if o.Class != Pure {
				bad(i, o.Enum, "grouped op must be pure")
			}
			if o.Pops != 2 || o.Pushes != 1 {
				bad(i, o.Enum, "grouped op must pop 2 and push 1")
			}
		}
		if o.Class == Pure && o.Group == "" && o.Kernel == "" {
			bad(i, o.Enum, "pure op has neither group nor kernel")
		}
		if o.Class == Pure && o.Pushes != 1 {
			bad(i, o.Enum, "pure op must push exactly 1 value")
		}
		for ti, t := range o.Traps {
			if t.Msg == "" {
				bad(i, o.Enum, "trap clause %d has no message", ti)
			}
			if t.Cond == "" && ti != len(o.Traps)-1 {
				bad(i, o.Enum, "trap clause %d is unreachable: clause %d always traps", ti+1, ti)
			}
		}
		if o.CanTrap() && o.Class == Control {
			bad(i, o.Enum, "control op cannot carry trap clauses")
		}
		if (o.Jump || o.CondJump) && o.Operands != OpsTarget {
			bad(i, o.Enum, "jump op must take a target operand")
		}
		if o.CondJump && !o.Jump {
			bad(i, o.Enum, "conditional jump must also be a jump")
		}
	}
	if len(table) > 256 {
		errs = append(errs, &SpecError{Index: -1, Msg: fmt.Sprintf("%d opcodes exceed the uint8 opcode space", len(table))})
	}
	return errs
}

// ByEnum returns the index of the op with the given enum name, or -1.
func ByEnum(table []Op, enum string) int {
	for i := range table {
		if table[i].Enum == enum {
			return i
		}
	}
	return -1
}
