package core

import (
	"repro/internal/emu"
	"repro/internal/isa"
)

// InstrSource is the seam between the cycle-level machine and whatever
// supplies its instruction stream. The front-end owns the speculative
// architectural state (register file, fetch PC, store overlay); a source
// owns where micro-ops and their correct-path effects come from:
//
//   - emu.Source executes the static program functionally at fetch time
//     (execution-driven, the paper's PIN/Scarab arrangement);
//   - btrace.Source replays a recorded correct-path stream and falls back
//     to interpreting the static image on the wrong path (trace-driven).
//
// Both expose the same static micro-op image (NumUops/UopAt/Entry) so the
// decode cache, LDBP and the runahead chain extractor work unchanged, and
// the same committed memory (Memory) so store retirement and the DCE's
// memory view stay source-agnostic.
//
// The interface is structural: implementations never import this package.
type InstrSource interface {
	// NumUops returns the static image length in micro-ops.
	NumUops() int
	// UopAt returns the static micro-op at pc, nil outside the image.
	UopAt(pc uint64) *isa.Uop
	// Entry returns the initial fetch PC.
	Entry() uint64
	// Memory returns the committed architectural memory image; the core
	// writes retired stores into it and the runahead system reads it.
	Memory() *emu.Memory
	// FetchExec produces the micro-op at pc and its architectural effects,
	// updating regs in place. Loads observe memory through view (committed
	// state plus the front-end's speculative store overlay). A nil uop with
	// a nil error means pc left the image — the front-end goes invalid
	// until recovery. A non-nil error is fatal to the run (e.g. trace
	// exhausted or diverged) and must be a preallocated sentinel: FetchExec
	// is on the fetch hot path and may not allocate.
	FetchExec(pc uint64, regs *emu.RegFile, view emu.MemView, wrongPath bool) (*isa.Uop, emu.StepResult, error)
	// Pos reports the source's stream position for branch checkpoints;
	// SetPos rewinds it on misprediction recovery, and a fork from a
	// shared warmup sets it to the warm source's. Execution-driven
	// sources have no stream and return 0 / ignore SetPos.
	Pos() uint64
	// SetPos restores a position previously returned by Pos.
	SetPos(pos uint64)
}
