package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bpred"
	"repro/internal/trace"
)

// TestDrainRefillsPoolAfterRecoveries drains a recovery-heavy run at
// several points and requires every DynUop back in the pool and the issued
// list empty each time: retire and squash between them return every
// micro-op they take out, whatever mix of nested recoveries and wrong-path
// stores the run went through.
func TestDrainRefillsPoolAfterRecoveries(t *testing.T) {
	p, _, _ := nestedBranchProgram(4000, 17)
	c := New(DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	for _, budget := range []uint64{5_000, 12_000, 20_000} {
		if _, err := c.Run(budget); err != nil {
			t.Fatal(err)
		}
		if err := c.Drain(); err != nil {
			t.Fatalf("drain after %d retired: %v", budget, err)
		}
		if !c.fe.poolFull() || len(c.issued) != 0 {
			t.Fatalf("after %d retired: pooled %d/%d, issued %d",
				budget, len(c.fe.free), len(c.fe.uops), len(c.issued))
		}
	}
	if c.Ctr.Recoveries.Get() < 500 || c.Ctr.FetchedWrongPath.Get() == 0 {
		t.Fatalf("run was not recovery-heavy: %d recoveries, %d wrong-path fetches",
			c.Ctr.Recoveries.Get(), c.Ctr.FetchedWrongPath.Get())
	}
}

// TestDrainReportsLeakedDynUop: a DynUop taken from the pool and never
// returned is residue the drain must refuse to snapshot over.
func TestDrainReportsLeakedDynUop(t *testing.T) {
	p, _, _ := sumBelowProgram(500, 5)
	c := New(DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	if _, err := c.Run(1_000); err != nil {
		t.Fatal(err)
	}
	c.fe.newDynUop()
	err := c.Drain()
	if err == nil || !strings.Contains(err.Error(), "pooled") {
		t.Fatalf("drain with a leaked DynUop: err = %v, want a residue error", err)
	}
}

// TestDrainReportsStaleWakeupState: once the pipeline is empty, no
// micro-op may still head a consumer list and the ready and timed lists
// must be empty. A squash that left a link behind, planted here on a
// drained core, is residue the barrier must refuse.
func TestDrainReportsStaleWakeupState(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		plant      func(*Core)
	}{
		{"stale edge", "consumer lists=1", func(c *Core) { c.fe.uops[0].consumers = linkOf(&c.fe.uops[1], 0) }},
		{"stale timed entry", "timed=1", func(c *Core) { c.arm(&c.fe.uops[0]) }},
	} {
		p, _, _ := sumBelowProgram(500, 5)
		c := New(DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
		if _, err := c.Run(1_000); err != nil {
			t.Fatal(err)
		}
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		tc.plant(c)
		if err := c.Drain(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: drain err = %v, want a wakeup residue error with %q", tc.name, err, tc.want)
		}
	}
}

// TestPoolBoundsInFlight: the pool holds exactly the micro-ops the fetch
// queue and ROB can hold, and a full machine never runs it dry.
func TestPoolBoundsInFlight(t *testing.T) {
	cfg := DefaultConfig()
	p, _, _ := sumBelowProgram(2000, 23)
	c := New(cfg, p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	if got, want := len(c.fe.uops), cfg.FetchQSize+cfg.ROBSize; got != want {
		t.Fatalf("pool holds %d DynUops, want FetchQSize+ROBSize = %d", got, want)
	}
	minFree := len(c.fe.free)
	for !c.Halted() {
		c.Cycle()
		if inFlight := len(c.fetchQ) + len(c.rob); inFlight+len(c.fe.free) != len(c.fe.uops) {
			t.Fatalf("cycle %d: %d in flight + %d free != pool of %d",
				c.Now(), inFlight, len(c.fe.free), len(c.fe.uops))
		}
		if len(c.fe.free) < minFree {
			minFree = len(c.fe.free)
		}
	}
	if minFree == len(c.fe.uops) {
		t.Fatal("no micro-op was ever in flight")
	}
}

// completeOrder is a trace sink that checks every cycle's KindUop
// complete events arrive in program (Seq) order.
type completeOrder struct {
	lastCycle, lastSeq uint64
	bad                []string
}

func (o *completeOrder) Emit(ev trace.Event) {
	if ev.Kind != trace.KindUop || ev.Arg != trace.StageComplete {
		return
	}
	if ev.Cycle == o.lastCycle && ev.Seq <= o.lastSeq && len(o.bad) < 5 {
		o.bad = append(o.bad, fmt.Sprintf("cycle %d: seq %d after %d", ev.Cycle, ev.Seq, o.lastSeq))
	}
	o.lastCycle, o.lastSeq = ev.Cycle, ev.Seq
}

// TestCompleteInProgramOrder: the issued list is in issue order, which
// out-of-order issue makes differ from program order, but completions
// within a cycle are still reported (and branches resolved) oldest first.
func TestCompleteInProgramOrder(t *testing.T) {
	p, _, _ := nestedBranchProgram(2000, 29)
	c := New(DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	order := &completeOrder{}
	c.SetTrace(trace.New(order))
	runToHalt(t, c)
	if order.lastSeq == 0 {
		t.Fatal("no completion was traced")
	}
	if len(order.bad) > 0 {
		t.Fatalf("completions out of program order: %v", order.bad)
	}
}
