package emu

import (
	"repro/internal/isa"
	"repro/internal/program"
)

// Source is the execution-driven instruction source: a static program plus a
// committed memory image, executed functionally at fetch time — the role PIN
// plays for Scarab in the paper. It implements core.InstrSource (the seam is
// structural; this package never imports core), alongside the trace replayer
// in internal/btrace.
type Source struct {
	prog *program.Program
	mem  *Memory
}

// NewSource loads the program's data segments into a fresh memory and
// returns the execution-driven source over them.
func NewSource(p *program.Program) *Source {
	m := NewMemory()
	for _, seg := range p.Data {
		m.LoadSegment(seg.Base, seg.Bytes)
	}
	return &Source{prog: p, mem: m}
}

// NumUops returns the static image length in micro-ops.
func (s *Source) NumUops() int { return s.prog.Len() }

// UopAt returns the static micro-op at pc, nil outside the program.
func (s *Source) UopAt(pc uint64) *isa.Uop { return s.prog.At(pc) }

// Entry returns the initial fetch PC.
func (s *Source) Entry() uint64 { return s.prog.Entry }

// Memory returns the committed architectural memory image.
func (s *Source) Memory() *Memory { return s.mem }

// FetchExec functionally executes the micro-op at pc against regs, with
// memory observed through view. A nil micro-op means pc is off the program
// (possible only on the wrong path); execution-driven fetch treats the wrong
// path exactly like the correct one, so wrongPath is unused.
func (s *Source) FetchExec(pc uint64, regs *RegFile, view MemView, wrongPath bool) (*isa.Uop, StepResult, error) {
	u := s.prog.At(pc)
	if u == nil {
		return nil, StepResult{}, nil
	}
	return u, StepInPlace(u, regs, view), nil
}

// Pos implements the stream-position checkpoint hook; the execution-driven
// source derives everything from the register file and PC, so it has none.
func (s *Source) Pos() uint64 { return 0 }

// SetPos implements the stream-position recovery hook (no-op, see Pos).
func (s *Source) SetPos(uint64) {}
