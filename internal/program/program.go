// Package program provides the static program container and an
// assembler-style builder used by the synthetic workloads. A program is a
// flat sequence of micro-ops; the program counter space is micro-op indices.
package program

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// Program is an immutable sequence of micro-ops plus its initial data image.
type Program struct {
	Name string
	Uops []isa.Uop
	// Data holds initial memory contents keyed by base address.
	Data []Segment
	// Entry is the micro-op index where execution starts.
	Entry uint64
}

// Segment is a contiguous block of initial memory contents.
type Segment struct {
	Base  uint64
	Bytes []byte
}

// At returns the micro-op at pc, or nil when pc is outside the program.
// Fetching outside the program happens routinely on the wrong path; the core
// treats a nil micro-op as an unfetchable address and stalls until recovery.
func (p *Program) At(pc uint64) *isa.Uop {
	if pc >= uint64(len(p.Uops)) {
		return nil
	}
	return &p.Uops[pc]
}

// Len returns the number of static micro-ops.
func (p *Program) Len() int { return len(p.Uops) }

// Validate checks every micro-op and all branch targets.
func (p *Program) Validate() error {
	if len(p.Uops) == 0 {
		return fmt.Errorf("program %q: empty", p.Name)
	}
	if p.Entry >= uint64(len(p.Uops)) {
		return fmt.Errorf("program %q: entry %d outside program", p.Name, p.Entry)
	}
	for i := range p.Uops {
		u := &p.Uops[i]
		if u.PC != uint64(i) {
			return fmt.Errorf("program %q: uop %d has pc %d", p.Name, i, u.PC)
		}
		if err := u.Validate(); err != nil {
			return fmt.Errorf("program %q: %w", p.Name, err)
		}
		if u.Op.IsBranch() && u.Imm >= int64(len(p.Uops)) {
			return fmt.Errorf("program %q: uop %d branches to %d, outside program", p.Name, i, u.Imm)
		}
	}
	return nil
}

// Disassemble renders the whole program.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; program %q (%d uops)\n", p.Name, len(p.Uops))
	for i := range p.Uops {
		b.WriteString(p.Uops[i].String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Builder assembles programs with forward label references.
type Builder struct {
	name   string
	uops   []isa.Uop
	data   []Segment
	labels map[string]uint64
	// fixups maps uop index -> label for branch targets not yet defined.
	fixups map[int]string
	err    error
}

// NewBuilder returns a Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:   name,
		labels: make(map[string]uint64),
		fixups: make(map[int]string),
	}
}

func (b *Builder) emit(u isa.Uop) *Builder {
	u.PC = uint64(len(b.uops))
	b.uops = append(b.uops, u)
	return b
}

// Label defines a label at the current position.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup && b.err == nil {
		b.err = fmt.Errorf("program %q: duplicate label %q", b.name, name)
	}
	b.labels[name] = uint64(len(b.uops))
	return b
}

// Data adds an initial-memory segment.
func (b *Builder) Data(base uint64, bytes []byte) *Builder {
	b.data = append(b.data, Segment{Base: base, Bytes: bytes})
	return b
}

// DataU64 adds a segment of 64-bit little-endian words.
func (b *Builder) DataU64(base uint64, words []uint64) *Builder {
	raw := make([]byte, 8*len(words))
	for i, w := range words {
		putU64(raw[8*i:], w)
	}
	return b.Data(base, raw)
}

// DataU32 adds a segment of 32-bit little-endian words.
func (b *Builder) DataU32(base uint64, words []uint32) *Builder {
	raw := make([]byte, 4*len(words))
	for i, w := range words {
		putU32(raw[4*i:], w)
	}
	return b.Data(base, raw)
}

func putU64(dst []byte, v uint64) {
	for i := 0; i < 8; i++ {
		dst[i] = byte(v >> (8 * i))
	}
}

func putU32(dst []byte, v uint32) {
	for i := 0; i < 4; i++ {
		dst[i] = byte(v >> (8 * i))
	}
}

// Nop appends a no-op.
func (b *Builder) Nop() *Builder { return b.emit(isa.Uop{Op: isa.OpNop}) }

// Halt appends a halt.
func (b *Builder) Halt() *Builder { return b.emit(isa.Uop{Op: isa.OpHalt}) }

// MovI sets dst to an immediate.
func (b *Builder) MovI(dst isa.Reg, imm int64) *Builder {
	return b.emit(isa.Uop{Op: isa.OpMovI, Dst: dst, Src1: isa.RegNone, Src2: isa.RegNone, Imm: imm})
}

// Mov copies src to dst.
func (b *Builder) Mov(dst, src isa.Reg) *Builder {
	return b.emit(isa.Uop{Op: isa.OpMov, Dst: dst, Src1: src, Src2: isa.RegNone})
}

// Sext sign-extends the low bytes of src into dst.
func (b *Builder) Sext(dst, src isa.Reg, bytes int64) *Builder {
	return b.emit(isa.Uop{Op: isa.OpSext, Dst: dst, Src1: src, Src2: isa.RegNone, Imm: bytes})
}

// ALU appends a three-register data operation.
func (b *Builder) ALU(op isa.Op, dst, src1, src2 isa.Reg) *Builder {
	return b.emit(isa.Uop{Op: op, Dst: dst, Src1: src1, Src2: src2})
}

// ALUI appends a register-immediate data operation.
func (b *Builder) ALUI(op isa.Op, dst, src1 isa.Reg, imm int64) *Builder {
	return b.emit(isa.Uop{Op: op, Dst: dst, Src1: src1, Src2: isa.RegNone, Imm: imm, UseImm: true})
}

// Add, Sub, And, Or, Xor, Shl, Shr, Sar, Mul are three-register convenience forms.
func (b *Builder) Add(dst, s1, s2 isa.Reg) *Builder { return b.ALU(isa.OpAdd, dst, s1, s2) }
func (b *Builder) Sub(dst, s1, s2 isa.Reg) *Builder { return b.ALU(isa.OpSub, dst, s1, s2) }
func (b *Builder) And(dst, s1, s2 isa.Reg) *Builder { return b.ALU(isa.OpAnd, dst, s1, s2) }
func (b *Builder) Or(dst, s1, s2 isa.Reg) *Builder  { return b.ALU(isa.OpOr, dst, s1, s2) }
func (b *Builder) Xor(dst, s1, s2 isa.Reg) *Builder { return b.ALU(isa.OpXor, dst, s1, s2) }
func (b *Builder) Mul(dst, s1, s2 isa.Reg) *Builder { return b.ALU(isa.OpMul, dst, s1, s2) }

// AddI, SubI, AndI, ShlI, ShrI, SarI, MulI are register-immediate convenience forms.
func (b *Builder) AddI(dst, s1 isa.Reg, imm int64) *Builder { return b.ALUI(isa.OpAdd, dst, s1, imm) }
func (b *Builder) SubI(dst, s1 isa.Reg, imm int64) *Builder { return b.ALUI(isa.OpSub, dst, s1, imm) }
func (b *Builder) AndI(dst, s1 isa.Reg, imm int64) *Builder { return b.ALUI(isa.OpAnd, dst, s1, imm) }
func (b *Builder) OrI(dst, s1 isa.Reg, imm int64) *Builder  { return b.ALUI(isa.OpOr, dst, s1, imm) }
func (b *Builder) XorI(dst, s1 isa.Reg, imm int64) *Builder { return b.ALUI(isa.OpXor, dst, s1, imm) }
func (b *Builder) ShlI(dst, s1 isa.Reg, imm int64) *Builder { return b.ALUI(isa.OpShl, dst, s1, imm) }
func (b *Builder) ShrI(dst, s1 isa.Reg, imm int64) *Builder { return b.ALUI(isa.OpShr, dst, s1, imm) }
func (b *Builder) SarI(dst, s1 isa.Reg, imm int64) *Builder { return b.ALUI(isa.OpSar, dst, s1, imm) }
func (b *Builder) MulI(dst, s1 isa.Reg, imm int64) *Builder { return b.ALUI(isa.OpMul, dst, s1, imm) }

// Div appends an integer divide (excluded from dependence chains).
func (b *Builder) Div(dst, s1, s2 isa.Reg) *Builder { return b.ALU(isa.OpDiv, dst, s1, s2) }

// FAdd and FMul append floating-point operations (excluded from chains).
func (b *Builder) FAdd(dst, s1, s2 isa.Reg) *Builder { return b.ALU(isa.OpFAdd, dst, s1, s2) }
func (b *Builder) FMul(dst, s1, s2 isa.Reg) *Builder { return b.ALU(isa.OpFMul, dst, s1, s2) }

// Ld loads size bytes from [base + disp] into dst.
func (b *Builder) Ld(dst, base isa.Reg, disp int64, size uint8, signed bool) *Builder {
	return b.emit(isa.Uop{Op: isa.OpLd, Dst: dst, Src1: base, Src2: isa.RegNone,
		Imm: disp, MemSize: size, Signed: signed})
}

// LdIdx loads size bytes from [base + index*scale + disp] into dst.
func (b *Builder) LdIdx(dst, base, index isa.Reg, scale uint8, disp int64, size uint8, signed bool) *Builder {
	return b.emit(isa.Uop{Op: isa.OpLd, Dst: dst, Src1: base, Src2: index,
		Imm: disp, Scale: scale, MemSize: size, Signed: signed})
}

// St stores the low size bytes of data to [base + disp].
func (b *Builder) St(data, base isa.Reg, disp int64, size uint8) *Builder {
	return b.emit(isa.Uop{Op: isa.OpSt, Dst: data, Src1: base, Src2: isa.RegNone,
		Imm: disp, MemSize: size})
}

// StIdx stores the low size bytes of data to [base + index*scale + disp].
func (b *Builder) StIdx(data, base, index isa.Reg, scale uint8, disp int64, size uint8) *Builder {
	return b.emit(isa.Uop{Op: isa.OpSt, Dst: data, Src1: base, Src2: index,
		Imm: disp, Scale: scale, MemSize: size})
}

// Cmp compares two registers and writes the condition codes.
func (b *Builder) Cmp(s1, s2 isa.Reg) *Builder {
	return b.emit(isa.Uop{Op: isa.OpCmp, Dst: isa.RegNone, Src1: s1, Src2: s2})
}

// CmpI compares a register with an immediate.
func (b *Builder) CmpI(s1 isa.Reg, imm int64) *Builder {
	return b.emit(isa.Uop{Op: isa.OpCmp, Dst: isa.RegNone, Src1: s1, Src2: isa.RegNone,
		Imm: imm, UseImm: true})
}

// Test ANDs two registers and writes the condition codes.
func (b *Builder) Test(s1, s2 isa.Reg) *Builder {
	return b.emit(isa.Uop{Op: isa.OpTest, Dst: isa.RegNone, Src1: s1, Src2: s2})
}

// TestI ANDs a register with an immediate and writes the condition codes.
func (b *Builder) TestI(s1 isa.Reg, imm int64) *Builder {
	return b.emit(isa.Uop{Op: isa.OpTest, Dst: isa.RegNone, Src1: s1, Src2: isa.RegNone,
		Imm: imm, UseImm: true})
}

// Br appends a conditional branch to a label.
func (b *Builder) Br(c isa.Cond, label string) *Builder {
	idx := len(b.uops)
	b.emit(isa.Uop{Op: isa.OpBr, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, Cond: c})
	b.fixups[idx] = label
	return b
}

// Jmp appends an unconditional jump to a label.
func (b *Builder) Jmp(label string) *Builder {
	idx := len(b.uops)
	b.emit(isa.Uop{Op: isa.OpJmp, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
	b.fixups[idx] = label
	return b
}

// PC returns the index the next emitted micro-op will occupy.
func (b *Builder) PC() uint64 { return uint64(len(b.uops)) }

// Build resolves labels and returns the validated program.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	for idx, label := range b.fixups {
		pc, ok := b.labels[label]
		if !ok {
			return nil, fmt.Errorf("program %q: undefined label %q", b.name, label)
		}
		b.uops[idx].Imm = int64(pc)
	}
	p := &Program{Name: b.name, Uops: b.uops, Data: b.data}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error; for use in workload constructors
// whose programs are statically known to be well-formed.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
