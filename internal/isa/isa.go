// Package isa defines the micro-operation instruction set used throughout the
// simulator. The ISA is a small, RISC-flavoured micro-op vocabulary standing
// in for the post-decode x86 micro-ops that the paper's Scarab/PIN substrate
// produces: ALU operations, x86-style base+index*scale+displacement memory
// operands, explicit condition codes written by compare instructions, and
// conditional branches that read them.
//
// Branch Runahead operates strictly at the micro-op level (dependence chains
// are stored as sequences of micro-ops, already decoded), so any micro-op ISA
// with these properties exercises the same chain extraction and chain
// execution paths as the paper's.
package isa

import "fmt"

// Reg names an architectural register. The ISA exposes 32 general-purpose
// integer registers R0..R31 plus the condition-code register RegFlags, which
// participates in dataflow exactly like a register: compare instructions
// write it and conditional branches read it. The chain extraction backward
// walk (paper §4.3, Figure 9) seeds its search list with the branch's source
// registers "i.e., the condition code register".
type Reg uint8

// Architectural registers.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31

	// RegFlags is the condition-code register written by Cmp/Test and read
	// by conditional branches.
	RegFlags

	// NumRegs is the total number of architectural registers including
	// RegFlags.
	NumRegs

	// RegNone marks an absent operand.
	RegNone Reg = 0xFF
)

// Valid reports whether r names a real architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// String implements fmt.Stringer.
func (r Reg) String() string {
	switch {
	case r == RegFlags:
		return "cc"
	case r == RegNone:
		return "-"
	case r < RegFlags:
		return fmt.Sprintf("r%d", uint8(r))
	default:
		return fmt.Sprintf("r?%d", uint8(r))
	}
}

// Op enumerates micro-operation opcodes.
type Op uint8

const (
	// OpNop does nothing.
	OpNop Op = iota

	// Integer ALU operations: Dst <- Src1 op (Src2 | Imm).
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpShl // logical shift left
	OpShr // logical shift right
	OpSar // arithmetic shift right
	OpMul

	// OpMov copies Src1 to Dst. Moves are move-eliminated during chain
	// extraction (paper §4.3).
	OpMov
	// OpMovI loads the immediate into Dst.
	OpMovI
	// OpSext sign-extends the low Imm bytes (1, 2 or 4) of Src1 into Dst.
	OpSext

	// OpLd loads MemSize bytes from [Src1 + Src2*Scale + Imm] into Dst.
	// If Signed, the loaded value is sign-extended.
	OpLd
	// OpSt stores the low MemSize bytes of Dst (the data register) to
	// [Src1 + Src2*Scale + Imm]. Dependence chains never contain stores:
	// store-load pairs are move-eliminated at extraction.
	OpSt

	// OpCmp computes Src1 - (Src2|Imm) and writes the condition codes.
	OpCmp
	// OpTest computes Src1 & (Src2|Imm) and writes the condition codes.
	OpTest

	// OpBr is a conditional branch: if Cond holds on RegFlags, control
	// transfers to the micro-op at PC Imm (absolute).
	OpBr
	// OpJmp is an unconditional branch to the micro-op at PC Imm.
	OpJmp

	// Expensive operations. The paper's chain extractor refuses to place
	// integer divide and floating-point operations into dependence chains;
	// these opcodes exist so that refusal can be exercised.
	OpDiv  // integer divide (Dst <- Src1 / Src2|Imm; divide by zero yields 0)
	OpFAdd // floating point add on the register bit patterns
	OpFMul // floating point multiply on the register bit patterns

	// OpHalt stops the program.
	OpHalt

	numOps
)

var opNames = [numOps]string{
	OpNop:  "nop",
	OpAdd:  "add",
	OpSub:  "sub",
	OpAnd:  "and",
	OpOr:   "or",
	OpXor:  "xor",
	OpShl:  "shl",
	OpShr:  "shr",
	OpSar:  "sar",
	OpMul:  "mul",
	OpMov:  "mov",
	OpMovI: "movi",
	OpSext: "sext",
	OpLd:   "ld",
	OpSt:   "st",
	OpCmp:  "cmp",
	OpTest: "test",
	OpBr:   "br",
	OpJmp:  "jmp",
	OpDiv:  "div",
	OpFAdd: "fadd",
	OpFMul: "fmul",
	OpHalt: "halt",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op?%d", uint8(o))
}

// IsBranch reports whether the opcode is a control-flow operation.
func (o Op) IsBranch() bool { return o == OpBr || o == OpJmp }

// IsCondBranch reports whether the opcode is a conditional branch.
func (o Op) IsCondBranch() bool { return o == OpBr }

// IsMem reports whether the opcode accesses memory.
func (o Op) IsMem() bool { return o == OpLd || o == OpSt }

// IsLoad reports whether the opcode is a load.
func (o Op) IsLoad() bool { return o == OpLd }

// IsStore reports whether the opcode is a store.
func (o Op) IsStore() bool { return o == OpSt }

// IsExpensive reports whether the opcode is banned from dependence chains
// (paper §1: "do not contain expensive operations such as integer divide or
// floating point operations").
func (o Op) IsExpensive() bool { return o == OpDiv || o == OpFAdd || o == OpFMul }

// WritesFlags reports whether the opcode writes the condition codes.
func (o Op) WritesFlags() bool { return o == OpCmp || o == OpTest }

// Cond enumerates branch conditions evaluated against the condition codes.
type Cond uint8

const (
	CondEQ  Cond = iota // equal (zero)
	CondNE              // not equal
	CondLT              // signed less than
	CondLE              // signed less or equal
	CondGT              // signed greater than
	CondGE              // signed greater or equal
	CondULT             // unsigned less than
	CondUGE             // unsigned greater or equal

	numConds
)

var condNames = [numConds]string{"eq", "ne", "lt", "le", "gt", "ge", "ult", "uge"}

// String implements fmt.Stringer.
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond?%d", uint8(c))
}

// Flags is the architectural condition-code state produced by Cmp/Test.
type Flags struct {
	Zero bool // operands compared equal / result was zero
	LTs  bool // signed less-than held
	LTu  bool // unsigned less-than held
}

// Eval reports whether condition c holds for flags f.
func (c Cond) Eval(f Flags) bool {
	switch c {
	case CondEQ:
		return f.Zero
	case CondNE:
		return !f.Zero
	case CondLT:
		return f.LTs
	case CondLE:
		return f.LTs || f.Zero
	case CondGT:
		return !f.LTs && !f.Zero
	case CondGE:
		return !f.LTs
	case CondULT:
		return f.LTu
	case CondUGE:
		return !f.LTu
	default:
		return false
	}
}

// Pack encodes the flags into a register-sized word so checkpointing code
// can treat RegFlags uniformly with data registers.
func (f Flags) Pack() uint64 {
	var v uint64
	if f.Zero {
		v |= 1
	}
	if f.LTs {
		v |= 2
	}
	if f.LTu {
		v |= 4
	}
	return v
}

// UnpackFlags decodes a word produced by Flags.Pack.
func UnpackFlags(v uint64) Flags {
	return Flags{Zero: v&1 != 0, LTs: v&2 != 0, LTu: v&4 != 0}
}

// CompareFlags computes the condition codes for Cmp(a, b).
func CompareFlags(a, b uint64) Flags {
	return Flags{
		Zero: a == b,
		LTs:  int64(a) < int64(b),
		LTu:  a < b,
	}
}

// TestFlags computes the condition codes for Test(a, b).
func TestFlags(a, b uint64) Flags {
	r := a & b
	return Flags{
		Zero: r == 0,
		LTs:  int64(r) < 0,
		LTu:  false,
	}
}

// Uop is a single static micro-operation. PCs are micro-op indices: every
// micro-op occupies one unit of the program counter space, and branch
// targets (Imm of OpBr/OpJmp) are absolute micro-op indices.
type Uop struct {
	PC   uint64 // static micro-op address
	Op   Op
	Dst  Reg   // destination register; data register for OpSt
	Src1 Reg   // first source (base register for memory ops)
	Src2 Reg   // second source (index register for memory ops when Scale > 0)
	Imm  int64 // immediate / displacement / absolute branch target

	// UseImm selects Imm instead of Src2 as the second ALU/compare operand.
	UseImm bool
	// Scale is the memory index scale (0 means no index register).
	Scale uint8
	// MemSize is the access width in bytes for OpLd/OpSt: 1, 2, 4 or 8.
	MemSize uint8
	// Signed sign-extends loaded values.
	Signed bool
	// Cond is the branch condition for OpBr.
	Cond Cond
}

// HasDst reports whether the micro-op writes a destination register.
// Stores use Dst as a *source* (the data register), so they report false.
func (u *Uop) HasDst() bool {
	switch u.Op {
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpSar, OpMul,
		OpMov, OpMovI, OpSext, OpLd, OpDiv, OpFAdd, OpFMul:
		return u.Dst.Valid()
	default:
		return false
	}
}

// DstRegN writes the architectural registers written by the micro-op into
// dst and returns the count (at most two: an architectural destination plus
// RegFlags, which compare/test write).
func (u *Uop) DstRegN(dst *[2]Reg) int {
	n := 0
	if u.HasDst() {
		dst[n] = u.Dst
		n++
	}
	if u.Op.WritesFlags() {
		dst[n] = RegFlags
		n++
	}
	return n
}

// SrcRegN writes the architectural registers read by the micro-op into src
// and returns the count (at most three: two address/operand sources plus a
// store's data register). Conditional branches read RegFlags.
func (u *Uop) SrcRegN(src *[4]Reg) int {
	switch u.Op {
	case OpNop, OpMovI, OpJmp, OpHalt:
		return 0
	case OpBr:
		src[0] = RegFlags
		return 1
	case OpLd:
		src[0] = u.Src1
		if u.Scale > 0 && u.Src2.Valid() {
			src[1] = u.Src2
			return 2
		}
		return 1
	case OpSt:
		src[0] = u.Src1
		n := 1
		if u.Scale > 0 && u.Src2.Valid() {
			src[n] = u.Src2
			n++
		}
		if u.Dst.Valid() {
			src[n] = u.Dst // data register
			n++
		}
		return n
	case OpMov, OpSext:
		src[0] = u.Src1
		return 1
	default: // two-operand ALU / compare
		src[0] = u.Src1
		if !u.UseImm && u.Src2.Valid() {
			src[1] = u.Src2
			return 2
		}
		return 1
	}
}

// Validate checks structural well-formedness of the micro-op. It does not
// check branch targets against a program; see program.Program.Validate.
func (u *Uop) Validate() error {
	if u.Op >= numOps {
		return fmt.Errorf("isa: uop at pc %d: invalid opcode %d", u.PC, uint8(u.Op))
	}
	switch u.Op {
	case OpLd, OpSt:
		switch u.MemSize {
		case 1, 2, 4, 8:
		default:
			return fmt.Errorf("isa: uop at pc %d: invalid memory size %d", u.PC, u.MemSize)
		}
		if !u.Src1.Valid() {
			return fmt.Errorf("isa: uop at pc %d: memory op needs a base register", u.PC)
		}
		if u.Scale > 0 {
			switch u.Scale {
			case 1, 2, 4, 8:
			default:
				return fmt.Errorf("isa: uop at pc %d: invalid scale %d", u.PC, u.Scale)
			}
			if !u.Src2.Valid() {
				return fmt.Errorf("isa: uop at pc %d: scaled access needs an index register", u.PC)
			}
		}
		if !u.Dst.Valid() {
			return fmt.Errorf("isa: uop at pc %d: memory op needs a data/destination register", u.PC)
		}
	case OpSext:
		switch u.Imm {
		case 1, 2, 4:
		default:
			return fmt.Errorf("isa: uop at pc %d: sext width must be 1, 2 or 4 bytes, got %d", u.PC, u.Imm)
		}
		if !u.Src1.Valid() || !u.Dst.Valid() {
			return fmt.Errorf("isa: uop at pc %d: sext needs source and destination", u.PC)
		}
	case OpBr:
		if u.Cond >= numConds {
			return fmt.Errorf("isa: uop at pc %d: invalid condition %d", u.PC, uint8(u.Cond))
		}
		if u.Imm < 0 {
			return fmt.Errorf("isa: uop at pc %d: negative branch target", u.PC)
		}
	case OpJmp:
		if u.Imm < 0 {
			return fmt.Errorf("isa: uop at pc %d: negative jump target", u.PC)
		}
	case OpNop, OpHalt:
	case OpMovI:
		if !u.Dst.Valid() {
			return fmt.Errorf("isa: uop at pc %d: movi needs a destination", u.PC)
		}
	case OpMov:
		if !u.Src1.Valid() || !u.Dst.Valid() {
			return fmt.Errorf("isa: uop at pc %d: mov needs source and destination", u.PC)
		}
	case OpCmp, OpTest:
		if !u.Src1.Valid() {
			return fmt.Errorf("isa: uop at pc %d: compare needs a first source", u.PC)
		}
		if !u.UseImm && !u.Src2.Valid() {
			return fmt.Errorf("isa: uop at pc %d: compare needs a second operand", u.PC)
		}
	default: // ALU
		if !u.Src1.Valid() || !u.Dst.Valid() {
			return fmt.Errorf("isa: uop at pc %d: alu op needs a source and destination", u.PC)
		}
		if !u.UseImm && !u.Src2.Valid() {
			return fmt.Errorf("isa: uop at pc %d: alu op needs a second operand", u.PC)
		}
	}
	return nil
}

// String renders the micro-op in a compact assembly-like form.
func (u *Uop) String() string {
	switch u.Op {
	case OpNop, OpHalt:
		return fmt.Sprintf("%4d: %s", u.PC, u.Op)
	case OpMovI:
		return fmt.Sprintf("%4d: %s %s, #%d", u.PC, u.Op, u.Dst, u.Imm)
	case OpMov:
		return fmt.Sprintf("%4d: %s %s, %s", u.PC, u.Op, u.Dst, u.Src1)
	case OpSext:
		return fmt.Sprintf("%4d: %s %s, %s, %d", u.PC, u.Op, u.Dst, u.Src1, u.Imm)
	case OpLd:
		return fmt.Sprintf("%4d: %s%d %s, %s", u.PC, u.Op, u.MemSize*8, u.Dst, u.memOperand())
	case OpSt:
		return fmt.Sprintf("%4d: %s%d %s, %s", u.PC, u.Op, u.MemSize*8, u.memOperand(), u.Dst)
	case OpCmp, OpTest:
		if u.UseImm {
			return fmt.Sprintf("%4d: %s %s, #%d", u.PC, u.Op, u.Src1, u.Imm)
		}
		return fmt.Sprintf("%4d: %s %s, %s", u.PC, u.Op, u.Src1, u.Src2)
	case OpBr:
		return fmt.Sprintf("%4d: %s.%s -> %d", u.PC, u.Op, u.Cond, u.Imm)
	case OpJmp:
		return fmt.Sprintf("%4d: %s -> %d", u.PC, u.Op, u.Imm)
	default:
		if u.UseImm {
			return fmt.Sprintf("%4d: %s %s, %s, #%d", u.PC, u.Op, u.Dst, u.Src1, u.Imm)
		}
		return fmt.Sprintf("%4d: %s %s, %s, %s", u.PC, u.Op, u.Dst, u.Src1, u.Src2)
	}
}

func (u *Uop) memOperand() string {
	if u.Scale > 0 {
		return fmt.Sprintf("[%s + %s*%d + %d]", u.Src1, u.Src2, u.Scale, u.Imm)
	}
	return fmt.Sprintf("[%s + %d]", u.Src1, u.Imm)
}

// ALUResult computes the architectural result of a non-memory, non-branch
// data operation given its resolved operands. It is shared by the core's
// functional front-end and the Dependence Chain Engine so both produce
// identical values.
func ALUResult(op Op, a, b uint64, imm int64) uint64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << (b & 63)
	case OpShr:
		return a >> (b & 63)
	case OpSar:
		return uint64(int64(a) >> (b & 63))
	case OpMul:
		return a * b
	case OpMov:
		return a
	case OpMovI:
		return uint64(imm)
	case OpSext:
		switch imm {
		case 1:
			return uint64(int64(int8(a)))
		case 2:
			return uint64(int64(int16(a)))
		case 4:
			return uint64(int64(int32(a)))
		}
		return a
	case OpDiv:
		if b == 0 {
			return 0
		}
		return uint64(int64(a) / int64(b))
	case OpFAdd:
		return floatOp(a, b, false)
	case OpFMul:
		return floatOp(a, b, true)
	default:
		return 0
	}
}

func floatOp(a, b uint64, mul bool) uint64 {
	fa := float64FromBits(a)
	fb := float64FromBits(b)
	var r float64
	if mul {
		r = fa * fb
	} else {
		r = fa + fb
	}
	return float64Bits(r)
}
