// Code generated by cmd/tiergen from internal/opspec. DO NOT EDIT.

package interp

import (
	"math"

	"evolvevm/internal/bytecode"
)

// The semantic core of the instruction set: every tier's arithmetic
// routes through the helpers and kernels below, so the spec's scalar
// expressions are the single definition of each op's value behavior.

// intBin applies a non-trapping integer binop, mirroring the accounted
// interpreter case by case.
func intBin(op bytecode.Op, a, b int64) int64 {
	switch op {
	case bytecode.IADD:
		return a + b
	case bytecode.ISUB:
		return a - b
	case bytecode.IMUL:
		return a * b
	case bytecode.IAND:
		return a & b
	case bytecode.IOR:
		return a | b
	case bytecode.IXOR:
		return a ^ b
	case bytecode.ISHL:
		return a << (uint64(b) & 63)
	default: // ISHR
		return a >> (uint64(b) & 63)
	}
}

// intCmp applies an integer comparison, mirroring the accounted
// interpreter case by case.
func intCmp(op bytecode.Op, a, b int64) bool {
	switch op {
	case bytecode.IEQ:
		return a == b
	case bytecode.INE:
		return a != b
	case bytecode.ILT:
		return a < b
	case bytecode.ILE:
		return a <= b
	case bytecode.IGT:
		return a > b
	default: // IGE
		return a >= b
	}
}

// fltBin applies a float binop, mirroring the accounted interpreter.
func fltBin(op bytecode.Op, a, b float64) float64 {
	switch op {
	case bytecode.FADD:
		return a + b
	case bytecode.FSUB:
		return a - b
	case bytecode.FMUL:
		return a * b
	default: // FDIV
		return a / b
	}
}

// fltCmp applies a float comparison, mirroring the accounted interpreter.
func fltCmp(op bytecode.Op, a, b float64) bool {
	switch op {
	case bytecode.FEQ:
		return a == b
	case bytecode.FNE:
		return a != b
	case bytecode.FLT:
		return a < b
	case bytecode.FLE:
		return a <= b
	case bytecode.FGT:
		return a > b
	default: // FGE
		return a >= b
	}
}

// semINEG is the semantic kernel of ineg.
func semINEG(v0 bytecode.Value) bytecode.Value {
	return bytecode.Int(-v0.I)
}

// semINOT is the semantic kernel of inot.
func semINOT(v0 bytecode.Value) bytecode.Value {
	return bytecode.Int(^v0.I)
}

// semFNEG is the semantic kernel of fneg.
func semFNEG(v0 bytecode.Value) bytecode.Value {
	return bytecode.Float(-v0.AsFloat())
}

// semFSQRT is the semantic kernel of fsqrt.
func semFSQRT(v0 bytecode.Value) bytecode.Value {
	return bytecode.Float(math.Sqrt(v0.AsFloat()))
}

// semFABS is the semantic kernel of fabs.
func semFABS(v0 bytecode.Value) bytecode.Value {
	return bytecode.Float(math.Abs(v0.AsFloat()))
}

// semI2F is the semantic kernel of i2f.
func semI2F(v0 bytecode.Value) bytecode.Value {
	return bytecode.Float(float64(v0.I))
}

// semF2I is the semantic kernel of f2i.
func semF2I(v0 bytecode.Value) bytecode.Value {
	return bytecode.Int(int64(v0.F))
}

// semSELECT is the semantic kernel of select.
func semSELECT(v0, v1, v2 bytecode.Value) bytecode.Value {
	if v2.IsTrue() {
		return v0
	}
	return v1
}

// semIABS is the semantic kernel of iabs.
func semIABS(v0 bytecode.Value) bytecode.Value {
	if v0.I < 0 {
		return bytecode.Int(-v0.I)
	}
	return bytecode.Int(v0.I)
}

// semTab1 maps each 1-operand kernel op to its kernel.
var semTab1 = [bytecode.NumOps]func(bytecode.Value) bytecode.Value{
	bytecode.INEG:  semINEG,
	bytecode.INOT:  semINOT,
	bytecode.FNEG:  semFNEG,
	bytecode.FSQRT: semFSQRT,
	bytecode.FABS:  semFABS,
	bytecode.I2F:   semI2F,
	bytecode.F2I:   semF2I,
	bytecode.IABS:  semIABS,
}

// semTab2 maps each 2-operand kernel op to its kernel.
var semTab2 = [bytecode.NumOps]func(bytecode.Value, bytecode.Value) bytecode.Value{}

// semTab3 maps each 3-operand kernel op to its kernel.
var semTab3 = [bytecode.NumOps]func(bytecode.Value, bytecode.Value, bytecode.Value) bytecode.Value{
	bytecode.SELECT: semSELECT,
}
