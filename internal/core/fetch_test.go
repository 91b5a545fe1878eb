package core

import (
	"testing"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/program"
)

// straightLine builds n independent ALU micro-ops then a halt.
func straightLine(n int) *program.Program {
	b := program.NewBuilder("straight")
	for i := 0; i < n; i++ {
		b.MovI(isa.Reg(i%8), int64(i))
	}
	b.Halt()
	return b.MustBuild()
}

// TestFetchWidthBound: at most FetchWidth micro-ops enter the fetch queue
// per cycle.
func TestFetchWidthBound(t *testing.T) {
	p := straightLine(64)
	cfg := DefaultConfig()
	c := New(cfg, p, bpred.NewBimodal(10), testHierarchy(), nil)
	prev := uint64(0)
	for i := 0; i < 10; i++ {
		c.Cycle()
		f := c.Ctr.Fetched.Get()
		if f-prev > uint64(cfg.FetchWidth) {
			t.Fatalf("fetched %d in one cycle, width %d", f-prev, cfg.FetchWidth)
		}
		prev = f
	}
}

// TestTakenBranchEndsFetchGroup: a predicted-taken branch terminates its
// fetch group (standard front-end constraint).
func TestTakenBranchEndsFetchGroup(t *testing.T) {
	b := program.NewBuilder("tb")
	b.MovI(isa.R1, 1).
		Label("loop").
		CmpI(isa.R1, 0).
		Br(isa.CondNE, "loop"). // always taken: spin
		Halt()
	p := b.MustBuild()
	c := New(DefaultConfig(), p, bpred.NewBimodal(10), testHierarchy(), nil)
	// Warm the predictor: after a few iterations, every group ends at the
	// branch, so per-cycle fetch is at most 2 (cmp + br).
	for i := 0; i < 30; i++ {
		c.Cycle()
	}
	prev := c.Ctr.Fetched.Get()
	for i := 0; i < 10; i++ {
		c.Cycle()
		f := c.Ctr.Fetched.Get()
		if f-prev > 3 { // cmp, br (+1 slack for the redirect boundary)
			t.Fatalf("fetch group crossed a taken branch: %d uops", f-prev)
		}
		prev = f
	}
}

// TestColdICacheStallsFetch: the very first fetch must wait for the
// instruction cache fill from memory.
func TestColdICacheStallsFetch(t *testing.T) {
	p := straightLine(16)
	c := New(DefaultConfig(), p, bpred.NewBimodal(10), testHierarchy(), nil)
	c.Cycle()
	if c.Ctr.Fetched.Get() != 0 {
		t.Fatal("fetched through a cold I-cache in cycle 0")
	}
	if c.Ctr.FetchStallICache.Get() == 0 {
		t.Fatal("I-cache stall not recorded")
	}
	for i := 0; i < 400 && c.Ctr.Fetched.Get() == 0; i++ {
		c.Cycle()
	}
	if c.Ctr.Fetched.Get() == 0 {
		t.Fatal("fetch never unblocked after the I-cache fill")
	}
}

// TestDispatchBackpressure: a tiny ROB throttles dispatch, not correctness.
func TestDispatchBackpressure(t *testing.T) {
	p := straightLine(200)
	cfg := DefaultConfig()
	cfg.ROBSize = 8
	c := New(cfg, p, bpred.NewBimodal(10), testHierarchy(), nil)
	runToHalt(t, c)
	if c.Ctr.DispatchStallBackend.Get() == 0 {
		t.Fatal("no backend dispatch stalls with an 8-entry ROB")
	}
	if got := c.Ctr.Retired.Get(); got != 201 {
		t.Fatalf("retired %d, want 201", got)
	}
}

// TestIPCApproachesWidthOnWarmLoop: a loop of independent ALU ops with a
// perfectly predicted back-edge runs near (and never beyond) the machine
// width once the I-cache is warm. (Cold straight-line code is legitimately
// I-miss-bound instead.)
func TestIPCApproachesWidthOnWarmLoop(t *testing.T) {
	b := program.NewBuilder("warm")
	b.MovI(isa.R9, 0)
	b.Label("loop")
	for i := 0; i < 12; i++ {
		b.MovI(isa.Reg(i%8), int64(i))
	}
	b.AddI(isa.R9, isa.R9, 1).
		CmpI(isa.R9, 3000).
		Br(isa.CondLT, "loop").
		Halt()
	p := b.MustBuild()
	c := New(DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	runToHalt(t, c)
	ipc := float64(c.Ctr.Retired.Get()) / float64(c.Ctr.Cycles.Get())
	if ipc > 4.0 {
		t.Fatalf("IPC %.2f exceeds machine width", ipc)
	}
	if ipc < 2.0 {
		t.Fatalf("IPC %.2f too low for a warm independent loop", ipc)
	}
}
