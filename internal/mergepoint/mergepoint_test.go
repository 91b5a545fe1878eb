package mergepoint

import (
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
)

// recorder collects reported relations.
type recorder struct {
	guards    [][2]uint64
	affectors [][2]uint64
}

func (r *recorder) Guard(g, h uint64)    { r.guards = append(r.guards, [2]uint64{g, h}) }
func (r *recorder) Affector(a, h uint64) { r.affectors = append(r.affectors, [2]uint64{a, h}) }

func dyn(u isa.Uop, taken bool, memAddr uint64) *core.DynUop {
	uu := u
	d := &core.DynUop{U: &uu}
	d.Res = emu.StepResult{Taken: taken, MemAddr: memAddr, MemSize: uu.MemSize,
		IsCond: uu.Op.IsCondBranch(), IsBranch: uu.Op.IsBranch()}
	d.IsCondBr = uu.Op.IsCondBranch()
	return d
}

func br(pc uint64) isa.Uop { return isa.Uop{PC: pc, Op: isa.OpBr, Cond: isa.CondEQ} }
func add(pc uint64, dst, src isa.Reg) isa.Uop {
	return isa.Uop{PC: pc, Op: isa.OpAdd, Dst: dst, Src1: src, Imm: 1, UseImm: true}
}
func cmp(pc uint64, src isa.Reg) isa.Uop {
	return isa.Uop{PC: pc, Op: isa.OpCmp, Src1: src, Imm: 0, UseImm: true}
}

// TestMergePointFound drives the classic hammock: branch 10 skips uop 11;
// both paths join at 12. The wrong path is [11, 12, 13]; the correct path
// goes straight to 12.
func TestMergePointFound(t *testing.T) {
	rec := &recorder{}
	p := New(DefaultConfig(), rec)

	cause := dyn(br(10), true, 0) // resolved taken; wrong path fell through
	squashed := []*core.DynUop{
		dyn(add(11, isa.R1, isa.R1), false, 0), // only on the fall-through path
		dyn(add(12, isa.R2, isa.R2), false, 0), // merge point
		dyn(add(13, isa.R3, isa.R3), false, 0),
	}
	p.OnFlush(cause, squashed)

	// Correct path: the branch retires, then the merge instruction.
	p.OnRetire(dyn(br(10), true, 0))
	p.OnRetire(dyn(add(12, isa.R2, isa.R2), false, 0))
	if p.ctr.mergesFound.Get() != 1 {
		t.Fatalf("merge not found: %+v", p.ctr)
	}
	if p.Accuracy() != 1.0 {
		t.Fatalf("accuracy %.2f", p.Accuracy())
	}
}

// TestGuardDetection: a branch observed on the wrong path before the merge
// point is guarded by the merge-predicted branch.
func TestGuardDetection(t *testing.T) {
	rec := &recorder{}
	p := New(DefaultConfig(), rec)

	cause := dyn(br(10), true, 0)
	squashed := []*core.DynUop{
		dyn(cmp(11, isa.R1), false, 0),
		dyn(br(12), false, 0),                  // guarded branch, wrong path only
		dyn(add(20, isa.R2, isa.R2), false, 0), // merge point
	}
	p.OnFlush(cause, squashed)
	p.OnRetire(dyn(br(10), true, 0))
	p.OnRetire(dyn(add(20, isa.R2, isa.R2), false, 0))

	found := false
	for _, g := range rec.guards {
		if g[0] == 10 && g[1] == 12 {
			found = true
		}
	}
	if !found {
		t.Fatalf("guard 10->12 not reported: %v", rec.guards)
	}
}

// TestAffectorDetection: after the merge, a branch whose compare sources a
// register written only on one side of the merge-predicted branch is an
// affectee.
func TestAffectorDetection(t *testing.T) {
	rec := &recorder{}
	p := New(DefaultConfig(), rec)

	cause := dyn(br(10), true, 0)
	squashed := []*core.DynUop{
		dyn(add(11, isa.R7, isa.R7), false, 0), // writes R7 on the wrong path only
		dyn(add(12, isa.R2, isa.R2), false, 0), // merge point
	}
	p.OnFlush(cause, squashed)
	p.OnRetire(dyn(br(10), true, 0))
	p.OnRetire(dyn(add(12, isa.R2, isa.R2), false, 0)) // merge found; poison = {R7,...}
	// Post-merge: a compare sourcing R7 poisons the flags; the branch
	// reading them is an affectee of branch 10.
	p.OnRetire(dyn(cmp(30, isa.R7), false, 0))
	p.OnRetire(dyn(br(31), false, 0))

	found := false
	for _, a := range rec.affectors {
		if a[0] == 10 && a[1] == 31 {
			found = true
		}
	}
	if !found {
		t.Fatalf("affector 10->31 not reported: %v", rec.affectors)
	}
}

// TestPoisonCleared: overwriting a poisoned register with clean data clears
// the poison, so a later consumer branch is NOT an affectee.
func TestPoisonCleared(t *testing.T) {
	rec := &recorder{}
	p := New(DefaultConfig(), rec)

	cause := dyn(br(10), true, 0)
	squashed := []*core.DynUop{
		dyn(add(11, isa.R7, isa.R7), false, 0),
		dyn(add(12, isa.R2, isa.R2), false, 0), // merge
	}
	p.OnFlush(cause, squashed)
	p.OnRetire(dyn(br(10), true, 0))
	p.OnRetire(dyn(add(12, isa.R2, isa.R2), false, 0))
	// Clean overwrite of R7 (sources only R9, which is clean).
	p.OnRetire(dyn(isa.Uop{PC: 25, Op: isa.OpMov, Dst: isa.R7, Src1: isa.R9}, false, 0))
	p.OnRetire(dyn(cmp(30, isa.R7), false, 0))
	p.OnRetire(dyn(br(31), false, 0))

	for _, a := range rec.affectors {
		if a[1] == 31 {
			t.Fatalf("affectee reported after poison was cleared: %v", rec.affectors)
		}
	}
}

// TestSelfAffector: the merge-predicted branch sources its own poison at
// the second instance (paper: "including the merge predicted branch").
func TestSelfAffector(t *testing.T) {
	rec := &recorder{}
	p := New(DefaultConfig(), rec)

	cause := dyn(br(10), true, 0)
	squashed := []*core.DynUop{
		// The wrong path writes the flags (a compare).
		dyn(cmp(11, isa.R1), false, 0),
		dyn(add(12, isa.R2, isa.R2), false, 0), // merge
	}
	p.OnFlush(cause, squashed)
	p.OnRetire(dyn(br(10), true, 0))
	p.OnRetire(dyn(add(12, isa.R2, isa.R2), false, 0))
	// Second instance of branch 10 arrives with the flags still poisoned.
	p.OnRetire(dyn(br(10), false, 0))

	found := false
	for _, a := range rec.affectors {
		if a[0] == 10 && a[1] == 10 {
			found = true
		}
	}
	if !found {
		t.Fatalf("self-affector not reported: %v", rec.affectors)
	}
}

// TestMergeSessionFailsOnSecondInstance: if the branch retires again before
// any correct-path PC hits the WPB, the session fails.
func TestMergeSessionFailsOnSecondInstance(t *testing.T) {
	p := New(DefaultConfig(), &recorder{})
	cause := dyn(br(10), true, 0)
	squashed := []*core.DynUop{dyn(add(11, isa.R1, isa.R1), false, 0)}
	p.OnFlush(cause, squashed)
	p.OnRetire(dyn(br(10), true, 0))
	// Correct path never touches wrong-path PCs; the branch comes again.
	p.OnRetire(dyn(add(50, isa.R5, isa.R5), false, 0))
	p.OnRetire(dyn(br(10), false, 0))
	if p.ctr.mergesMissed.Get() != 1 {
		t.Fatalf("session did not fail: %+v", p.ctr)
	}
}

// TestWrongPathFlushIgnored: flushes caused by wrong-path branches must not
// start sessions.
func TestWrongPathFlushIgnored(t *testing.T) {
	p := New(DefaultConfig(), &recorder{})
	cause := dyn(br(10), true, 0)
	cause.WrongPath = true
	p.OnFlush(cause, []*core.DynUop{dyn(add(11, isa.R1, isa.R1), false, 0)})
	if p.ctr.sessions.Get() != 0 {
		t.Fatal("wrong-path flush started a session")
	}
}

func TestDestSetBloom(t *testing.T) {
	var d DestSet
	d.AddMem(0x1000)
	d.AddMem(0x2040)
	if !d.MaybeMem(0x1000) || !d.MaybeMem(0x2040) {
		t.Fatal("bloom filter lost an inserted address")
	}
	misses := 0
	for a := uint64(0); a < 100; a++ {
		if !d.MaybeMem(0x900000 + a*64) {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("bloom filter claims every address; useless")
	}
	var e DestSet
	e.AddReg(isa.R5)
	d.Or(e)
	if !d.HasReg(isa.R5) {
		t.Fatal("Or lost a register")
	}
	if (&DestSet{}).HasReg(isa.R5) {
		t.Fatal("empty set has registers")
	}
	if !(&DestSet{}).Empty() || d.Empty() {
		t.Fatal("Empty() inconsistent")
	}
}

// TestLayoutPredictorHammock: the layout heuristic succeeds on a simple
// forward hammock (reconvergence at the taken target).
func TestLayoutPredictorHammock(t *testing.T) {
	p := NewLayoutPredictor(64)
	cause := dyn(br(10), true, 0)
	cause.Res.Target = 14
	cause.Res.FallThrou = 11
	p.OnFlush(cause, nil)
	p.OnRetire(dyn(br(10), true, 0))
	p.OnRetire(dyn(add(14, isa.R1, isa.R1), false, 0))
	if p.Accuracy() != 1.0 {
		t.Fatalf("accuracy %.2f on a hammock", p.Accuracy())
	}
}

// TestLayoutPredictorFailsOnNonLocalFlow: when the correct path never
// reaches the assumed layout merge (an early exit), the heuristic misses —
// the failure mode the WPB approach avoids.
func TestLayoutPredictorFailsOnNonLocalFlow(t *testing.T) {
	p := NewLayoutPredictor(8)
	cause := dyn(br(10), false, 0) // resolved not-taken
	cause.Res.Target = 14
	cause.Res.FallThrou = 11
	p.OnFlush(cause, nil)
	p.OnRetire(dyn(br(10), false, 0))
	// Correct path jumps elsewhere and loops without touching PC 14.
	for i := 0; i < 12; i++ {
		p.OnRetire(dyn(add(40+uint64(i%3), isa.R1, isa.R1), false, 0))
	}
	if p.ctr.mergesMissed.Get() != 1 {
		t.Fatalf("expected a miss: %+v", p.ctr)
	}
}
