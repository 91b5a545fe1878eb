package btrace

import (
	"repro/internal/emu"
	"repro/internal/isa"
)

// Source replays a trace through the core's instruction-source seam
// (core.InstrSource). Correct-path fetches apply the next record's effects
// without executing — emulation is off the hot path — while wrong-path
// fetches interpret the static image from the (checkpointed) registers, so
// the machine still walks real wrong paths. The stream position is the
// branch-checkpoint state: recovery rewinds it to just past the
// mispredicted branch's record.
type Source struct {
	tr  *Trace
	mem *emu.Memory
	pos uint64
}

// NewSource loads the trace's data segments into a fresh memory and returns
// a replayer positioned at the first record.
func NewSource(t *Trace) *Source {
	m := emu.NewMemory()
	for _, seg := range t.Prog.Data {
		m.LoadSegment(seg.Base, seg.Bytes)
	}
	return &Source{tr: t, mem: m}
}

// NumUops returns the static image length in micro-ops.
func (s *Source) NumUops() int { return s.tr.Prog.Len() }

// UopAt returns the static micro-op at pc, nil outside the image.
func (s *Source) UopAt(pc uint64) *isa.Uop { return s.tr.Prog.At(pc) }

// Entry returns the initial fetch PC.
func (s *Source) Entry() uint64 { return s.tr.Prog.Entry }

// Memory returns the committed architectural memory image.
func (s *Source) Memory() *emu.Memory { return s.mem }

// FetchExec produces the micro-op at pc. On the correct path it consumes
// the next record and materializes its effects; on the wrong path it
// executes the static image against regs and view like the
// execution-driven source. This sits on the core's fetch path: it must not
// allocate, which is why exhaustion and divergence are sentinel errors.
//
//brlint:hotpath
func (s *Source) FetchExec(pc uint64, regs *emu.RegFile, view emu.MemView, wrongPath bool) (*isa.Uop, emu.StepResult, error) {
	u := s.tr.Prog.At(pc)
	if u == nil {
		return nil, emu.StepResult{}, nil
	}
	if wrongPath {
		return u, emu.StepInPlace(u, regs, view), nil
	}
	if s.pos >= uint64(len(s.tr.Recs)) {
		return nil, emu.StepResult{}, ErrExhausted
	}
	rec := &s.tr.Recs[s.pos]
	if uint64(rec.PC) != pc {
		return nil, emu.StepResult{}, ErrDiverged
	}
	s.pos++
	res := emu.StepResult{NextPC: pc + 1}
	bits := rec.Bits
	switch u.Op {
	case isa.OpHalt:
		res.Halted = true
		res.NextPC = pc
	case isa.OpBr:
		res.IsBranch = true
		res.IsCond = true
		res.Target = uint64(u.Imm)
		res.FallThrou = pc + 1
		if bits&bTaken != 0 {
			res.Taken = true
			res.NextPC = res.Target
		}
	case isa.OpJmp:
		res.IsBranch = true
		res.Taken = true
		res.Target = uint64(u.Imm)
		res.FallThrou = pc + 1
		res.NextPC = res.Target
	}
	if bits&bIsMem != 0 {
		res.IsMem = true
		res.MemAddr = rec.Addr
		res.MemSize = u.MemSize
		if bits&bIsStore != 0 {
			res.StoreVal = rec.StoreVal
		} else {
			res.IsLoad = true
		}
	}
	if bits&bWroteDst != 0 {
		regs.Set(u.Dst, rec.Value)
		res.Value = rec.Value
		res.WroteDst = true
	}
	if bits&bWroteFlags != 0 {
		regs.Set(isa.RegFlags, uint64(rec.Flags))
	}
	return u, res, nil
}

// Pos reports the stream position (records consumed on the correct path).
func (s *Source) Pos() uint64 { return s.pos }

// SetPos rewinds the stream on misprediction recovery; branch checkpoints
// are taken just past the branch's own record, so recovery resumes exactly
// at the first post-branch correct-path micro-op.
func (s *Source) SetPos(pos uint64) { s.pos = pos }
