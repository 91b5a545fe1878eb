package emu

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/program"
)

func TestMemoryReadWriteWidths(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 8, 0x1122334455667788)
	if got := m.Read(0x1000, 8); got != 0x1122334455667788 {
		t.Fatalf("u64 read = %#x", got)
	}
	if got := m.Read(0x1000, 4); got != 0x55667788 {
		t.Fatalf("u32 read = %#x", got)
	}
	if got := m.Read(0x1004, 4); got != 0x11223344 {
		t.Fatalf("upper u32 read = %#x", got)
	}
	if got := m.Read(0x1000, 1); got != 0x88 {
		t.Fatalf("byte read = %#x", got)
	}
	// Unmapped memory reads zero.
	if got := m.Read(0x999999, 8); got != 0 {
		t.Fatalf("unmapped read = %#x", got)
	}
}

func TestMemoryCrossPageAccess(t *testing.T) {
	m := NewMemory()
	addr := uint64(4096 - 4) // straddles a page boundary
	m.Write(addr, 8, 0xDEADBEEFCAFEF00D)
	if got := m.Read(addr, 8); got != 0xDEADBEEFCAFEF00D {
		t.Fatalf("cross-page read = %#x", got)
	}
	if len(m.pages) != 2 {
		t.Fatalf("pages = %d, want 2", len(m.pages))
	}
}

func TestMemoryRoundTripProperty(t *testing.T) {
	check := func(addr uint64, v uint64, sizeSel uint8) bool {
		size := []uint8{1, 2, 4, 8}[sizeSel%4]
		m := NewMemory()
		m.Write(addr, size, v)
		mask := ^uint64(0)
		if size < 8 {
			mask = (1 << (8 * size)) - 1
		}
		return m.Read(addr, size) == v&mask
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSignExtend(t *testing.T) {
	if SignExtend(0x80, 1) != 0xFFFFFFFFFFFFFF80 {
		t.Fatal("byte sign extension")
	}
	if SignExtend(0x7FFF, 2) != 0x7FFF {
		t.Fatal("positive sign extension")
	}
	if SignExtend(0x80000000, 4) != 0xFFFFFFFF80000000 {
		t.Fatal("word sign extension")
	}
}

func TestStepBranchSemantics(t *testing.T) {
	p := program.NewBuilder("br").
		MovI(isa.R1, 1).
		CmpI(isa.R1, 1).
		Br(isa.CondEQ, "target").
		MovI(isa.R2, 111). // skipped
		Label("target").
		MovI(isa.R2, 222).
		Halt().
		MustBuild()
	r := NewRunner(p)
	if _, halted, err := r.Run(100); err != nil || !halted {
		t.Fatalf("halted=%v err=%v", halted, err)
	}
	if got := r.State.Regs.Get(isa.R2); got != 222 {
		t.Fatalf("R2 = %d, want 222 (taken branch must skip)", got)
	}
}

func TestStepMemorySemantics(t *testing.T) {
	p := program.NewBuilder("mem").
		MovI(isa.R1, 0x2000).
		MovI(isa.R2, -1). // 0xFFFF... stored as 4 bytes
		St(isa.R2, isa.R1, 0, 4).
		Ld(isa.R3, isa.R1, 0, 4, false). // zero-extended
		Ld(isa.R4, isa.R1, 0, 4, true).  // sign-extended
		Halt().
		MustBuild()
	r := NewRunner(p)
	if _, halted, _ := r.Run(100); !halted {
		t.Fatal("did not halt")
	}
	if got := r.State.Regs.Get(isa.R3); got != 0xFFFFFFFF {
		t.Fatalf("zero-extended load = %#x", got)
	}
	if got := r.State.Regs.Get(isa.R4); got != ^uint64(0) {
		t.Fatalf("sign-extended load = %#x", got)
	}
}

func TestStepScaledAddressing(t *testing.T) {
	p := program.NewBuilder("idx").
		MovI(isa.R1, 0x3000).
		MovI(isa.R2, 5).
		St(isa.R2, isa.R1, 20, 4).                     // mem[0x3014] = 5
		MovI(isa.R3, 5).                               // index
		LdIdx(isa.R4, isa.R1, isa.R3, 4, 0, 4, false). // [R1 + 5*4]
		Halt().
		MustBuild()
	r := NewRunner(p)
	if _, halted, _ := r.Run(100); !halted {
		t.Fatal("did not halt")
	}
	if got := r.State.Regs.Get(isa.R4); got != 5 {
		t.Fatalf("scaled load = %d, want 5", got)
	}
}

func TestRunnerStepCountAndPCError(t *testing.T) {
	p := program.NewBuilder("cnt").Nop().Nop().Halt().MustBuild()
	r := NewRunner(p)
	n, halted, err := r.Run(100)
	if err != nil || !halted || n != 3 {
		t.Fatalf("n=%d halted=%v err=%v", n, halted, err)
	}
	// Stepping past halt keeps PC pinned; force an invalid PC instead.
	r.State.PC = 100
	if _, err := r.StepOne(); err == nil {
		t.Fatal("expected out-of-program error")
	}
}

// TestEmulatorDeterminism: identical programs produce identical final
// state regardless of how execution is chunked.
func TestEmulatorDeterminism(t *testing.T) {
	build := func() *Runner {
		p := program.NewBuilder("det").
			MovI(isa.R1, 0x4000).
			MovI(isa.R2, 0).
			MovI(isa.R3, 0).
			Label("loop").
			Mul(isa.R2, isa.R2, isa.R2).
			AddI(isa.R2, isa.R2, 13).
			AndI(isa.R2, isa.R2, 0xFFFF).
			StIdx(isa.R2, isa.R1, isa.R3, 8, 0, 8).
			AddI(isa.R3, isa.R3, 1).
			CmpI(isa.R3, 50).
			Br(isa.CondLT, "loop").
			Halt().
			MustBuild()
		return NewRunner(p)
	}
	a, b := build(), build()
	if _, _, err := a.Run(10000); err != nil {
		t.Fatal(err)
	}
	for b.State.Regs.Get(isa.R3) != 50 {
		if _, err := b.StepOne(); err != nil {
			t.Fatal(err)
		}
		if b.Steps > 10000 {
			t.Fatal("runaway")
		}
	}
	// Drain to halt.
	if _, _, err := b.Run(10); err != nil {
		t.Fatal(err)
	}
	if a.State.Regs != b.State.Regs {
		t.Fatal("register state diverged between chunked executions")
	}
	for i := uint64(0); i < 50; i++ {
		if a.Mem.Read(0x4000+i*8, 8) != b.Mem.Read(0x4000+i*8, 8) {
			t.Fatalf("memory diverged at slot %d", i)
		}
	}
}
