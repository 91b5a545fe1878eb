package core

import (
	"testing"

	"repro/internal/bpred"
	"repro/internal/simtest"
)

// drainedCore runs the data-dependent sum-below workload for a partial
// budget and drains the pipeline, leaving the core in the state a warm
// machine holds at the warmup/measure boundary.
func drainedCore(t *testing.T) *Core {
	t.Helper()
	p, _, _ := sumBelowProgram(4096, 42)
	c := New(DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	if _, err := c.Run(20_000); err != nil {
		t.Fatal(err)
	}
	if c.haltRetired {
		t.Fatal("budget must stop the core mid-program, not at the halt")
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCoreRoundTrip(t *testing.T) {
	c := drainedCore(t)
	if len(c.Branches) == 0 {
		t.Fatal("driven core recorded no per-branch statistics")
	}

	p, _, _ := sumBelowProgram(4096, 42)
	fresh := New(DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	fresh.CopyFrom(c)

	simtest.RequireDeepEqual(t, "clock", c.now, fresh.now)
	simtest.RequireDeepEqual(t, "sequence", c.seq, fresh.seq)
	simtest.RequireDeepEqual(t, "fetch stall", c.fetchStallUntil, fresh.fetchStallUntil)
	simtest.RequireDeepEqual(t, "fetch line", [2]uint64{c.lineReadyAt, c.curFetchLine},
		[2]uint64{fresh.lineReadyAt, fresh.curFetchLine})
	simtest.RequireDeepEqual(t, "halt flag", c.haltRetired, fresh.haltRetired)
	simtest.RequireDeepEqual(t, "front-end registers", c.fe.regs, fresh.fe.regs)
	simtest.RequireDeepEqual(t, "front-end PC", c.fe.pc, fresh.fe.pc)
	simtest.RequireDeepEqual(t, "front-end flags", [2]bool{c.fe.invalid, c.fe.halted},
		[2]bool{fresh.fe.invalid, fresh.fe.halted})
	simtest.RequireDeepEqual(t, "branch stats", c.Branches, fresh.Branches)
	simtest.RequireDeepEqual(t, "counters", c.Ctr, fresh.Ctr)
	for pc, bs := range c.Branches {
		if fresh.Branches[pc] == bs {
			t.Fatalf("copy shares the branch statistics of pc %#x with the warm core", pc)
		}
	}

	// The copied pipeline must be empty, exactly like the drained source.
	if len(fresh.rob) != 0 || len(fresh.fetchQ) != 0 || fresh.rsCount != 0 || fresh.lsqCount != 0 {
		t.Fatal("copy left pipeline structures populated")
	}
}

// TestCopyRejectsLivePipeline pins the drain precondition: copying an
// in-flight pipeline would silently drop speculative state.
func TestCopyRejectsLivePipeline(t *testing.T) {
	p, _, _ := sumBelowProgram(256, 7)
	c := New(DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	if _, err := c.Run(200); err != nil {
		t.Fatal(err)
	}
	if len(c.rob) == 0 && len(c.fetchQ) == 0 && c.rsCount == 0 {
		t.Fatal("short run left no in-flight micro-ops; the precondition is untested")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom of a live pipeline must panic")
		}
	}()
	p2, _, _ := sumBelowProgram(256, 7)
	New(DefaultConfig(), p2, bpred.NewTAGESCL64(), testHierarchy(), nil).CopyFrom(c)
}
