package runahead

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// TestDCEPoolInvariants drives Mini and Big over four kernels at the golden
// test's budget (SmallScale, 70k instructions) and checks the engine's
// host-side invariants after every core cycle. The simulated results
// cannot show these: a missed scan-skip arming site or a leaked instance
// changes host time and memory, not cycles. After a quiesce no instance
// may be live.
func TestDCEPoolInvariants(t *testing.T) {
	const budget = 70_000
	for _, cfg := range []Config{Mini(), Big()} {
		for _, name := range []string{"mcf_17", "leela_17", "omnetpp_06", "tc"} {
			w, err := workloads.ByName(name, workloads.SmallScale())
			if err != nil {
				t.Fatal(err)
			}
			hier := testHierarchy()
			c := core.New(core.DefaultConfig(), w.Prog, bpred.NewTAGESCL64(), hier, nil)
			sys := New(cfg, hier.DCache, c.Memory())
			c.SetExtension(sys)
			where := cfg.Name + "/" + name
			var done, prevDone []uint64
			for c.Ctr.Retired.Get() < budget && !c.Halted() {
				c.Cycle()
				done = checkPool(t, sys.dce, prevDone, done[:0], where)
				prevDone, done = done, prevDone
			}
			if sys.dce.C.Get("completions") == 0 {
				t.Fatalf("%s: no chain instance completed", where)
			}
			if err := sys.Quiesce(c.Now()); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if sys.dce.live != 0 {
				t.Fatalf("%s: %d instances live after Quiesce", where, sys.dce.live)
			}
		}
	}
}

// TestQuiesceReportsLeakedInstance: an instance that keeps a reference no
// holder will drop stays live through the barrier, and Quiesce says so
// instead of letting a snapshot hide the leak.
func TestQuiesceReportsLeakedInstance(t *testing.T) {
	cfg := Mini()
	cfg.InitMode = NonSpeculative
	dce, cc, _, _, _ := dceFixture(cfg)
	cc.Install(incChain())
	var regs emu.RegFile
	regs.Set(isa.R1, 0x1000)
	dce.Sync(0, 7, true, &regs)
	for now := uint64(1); now < 200; now++ {
		dce.Tick(now, 4, 92)
	}
	if len(dce.all) == 0 {
		t.Fatal("no instance in flight to leak")
	}
	dce.all[0].refs++ // a holder that never drops its reference
	err := dce.quiesce(200)
	// The leaked instance may keep ancestors alive through its
	// environment, so only the error itself is pinned.
	if err == nil || !strings.Contains(err.Error(), "still holds") || dce.live == 0 {
		t.Fatalf("quiesce with a leaked instance: err = %v, live = %d, want a live-instance error", err, dce.live)
	}
}

// Quiesce discards all speculative in-flight engine state: live chain
// instances are killed, deferred initiations dropped and every assigned
// prediction queue is reset and deactivated (it would reactivate at the
// next synchronization, exactly as after a divergence). Every chain instance
// must then be back in the pool; one that is not is an error, as a non-full
// micro-op pool is for core.Drain. The pool tests use it as their leak
// check.
func (s *System) Quiesce(now uint64) error {
	return s.dce.quiesce(now)
}

func (e *DCE) quiesce(now uint64) error {
	for _, in := range e.all {
		if !in.done() {
			e.kill(now, in)
		}
	}
	for len(e.all) > 0 {
		e.popAll()
	}
	for _, in := range e.run {
		e.drop(in)
	}
	clear(e.run)
	e.run = e.run[:0]
	for _, d := range e.deferred {
		e.drop(d.parent)
	}
	clear(e.deferred)
	e.deferred = e.deferred[:0]
	e.activeRun = 0
	e.resetScans()
	for _, q := range e.pqs.queues {
		if q.assigned {
			q.reset(now)
			q.active = false
		}
	}
	if e.live != 0 {
		return fmt.Errorf("runahead: quiesced DCE still holds %d chain instances", e.live)
	}
	return nil
}

// resetScans clears the scan-skip flags of an engine with no instances.
func (e *DCE) resetScans() {
	e.runDirty, e.pendingDirty, e.awake = false, false, false
	e.nextDone = 0
}

// checkPool asserts, for the end of one core cycle:
//   - run holds no instance that was already done when the previous cycle
//     ended (prevDone, ascending ids), so a done entry never outlives one
//     compaction;
//   - the not-done entries of run number exactly activeRun;
//   - no instance on the free list is held by all, run or deferred: every
//     holder has a positive reference count and every free instance a zero
//     one, so no instance can be both.
//
// It appends the ids of the done instances now in run to done and returns
// it. Ids, not pointers, identify instances: a pointer is reused by the
// pool.
func checkPool(t *testing.T, e *DCE, prevDone, done []uint64, where string) []uint64 {
	t.Helper()
	notDone, j := 0, 0
	for _, in := range e.run {
		// run is in initiation order, so its ids ascend like prevDone's.
		for j < len(prevDone) && prevDone[j] < in.id {
			j++
		}
		if j < len(prevDone) && prevDone[j] == in.id {
			t.Fatalf("%s: instance %d stayed in run a cycle after it was done", where, in.id)
		}
		if in.done() {
			done = append(done, in.id)
		} else {
			notDone++
		}
		if in.refs <= 0 {
			t.Fatalf("%s: run holds instance %d with %d references", where, in.id, in.refs)
		}
	}
	if notDone != e.activeRun {
		t.Fatalf("%s: run has %d live entries, activeRun is %d", where, notDone, e.activeRun)
	}
	for _, in := range e.all {
		if in.refs <= 0 {
			t.Fatalf("%s: all holds instance %d with %d references", where, in.id, in.refs)
		}
	}
	for _, d := range e.deferred {
		if d.parent.refs <= 0 {
			t.Fatalf("%s: deferred holds instance %d with %d references", where, d.parent.id, d.parent.refs)
		}
	}
	for _, in := range e.free {
		if in.refs != 0 {
			t.Fatalf("%s: free instance %d has %d references", where, in.id, in.refs)
		}
	}
	return done
}
