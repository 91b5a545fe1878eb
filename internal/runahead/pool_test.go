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

// TestDCEPoolInvariants drives Mini, Big and Mini with in-order chain
// execution over four kernels at the golden test's budget (SmallScale, 70k
// instructions) and checks the engine's host-side invariants after every
// core cycle. The simulated results cannot always show these: a leaked
// instance changes host memory, not cycles, and a missed wakeup may delay a
// micro-op only where no counter looks. The in-order ablation wakes its
// micro-ops by other rules than out-of-order issue, and no golden point
// runs it. After a quiesce no instance may be live.
func TestDCEPoolInvariants(t *testing.T) {
	const budget = 70_000
	inOrder := Mini()
	inOrder.Name = "mini-in-order"
	inOrder.InOrderChainExec = true
	for _, cfg := range []Config{Mini(), Big(), inOrder} {
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
			for c.Ctr.Retired.Get() < budget && !c.Halted() {
				c.Cycle()
				checkPool(t, sys.dce, where)
			}
			if sys.dce.ctr.Completions.Get() == 0 {
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
	for _, d := range e.deferred {
		e.drop(d.parent)
	}
	clear(e.deferred)
	e.deferred = e.deferred[:0]
	e.activeRun = 0
	e.resetQueues()
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

// resetQueues clears the event queues of an engine with no instances.
func (e *DCE) resetQueues() {
	for _, q := range []*[]instRef{&e.resolveQ, &e.issueQ} {
		clear(*q)
		*q = (*q)[:0]
	}
	clear(e.doneQ)
	e.doneQ = e.doneQ[:0]
	e.deferredStale = false
}

// The two selections below are the scans the event queues replaced:
// resolvePending used to walk every pending live-in of every instance, and
// issue every chain from micro-op 0. They stay here as the reference the
// queues must agree with.

// scanResolvable reports whether the resolvePending scan would act on one
// of in's pending live-ins: its producer was killed or the local it waits
// for is ready.
func scanResolvable(in *Instance) bool {
	for _, p := range in.pending {
		if p.src != nil && (p.src.killed || p.src.ready[p.srcLocal]) {
			return true
		}
	}
	return false
}

// scanIssuable returns the micro-ops of in the issue scan would have
// issued, bandwidth permitting: the unissued ones whose sources are ready,
// and under InOrderChainExec only the first unissued one.
func scanIssuable(e *DCE, in *Instance) uopSet {
	var s uopSet
	for i := range in.chain.Uops {
		if in.issued[i] {
			continue
		}
		if e.cfg.InOrderChainExec && i > 0 && !in.issued[i-1] {
			break
		}
		if !e.srcsReady(in, &in.chain.Uops[i]) {
			if e.cfg.InOrderChainExec {
				break
			}
			continue
		}
		s.add(i)
	}
	return s
}

// checkPool asserts, for the end of one core cycle:
//   - the not-done entries of all number exactly activeRun;
//   - no instance on the free list is held by all or deferred: every
//     holder has a positive reference count and every free instance a zero
//     one, so no instance can be both;
//   - the event queues agree with the scans they replaced: issueQ and
//     resolveQ are in id order; every not-done instance's ready set is
//     what scanIssuable selects, and one that is not empty is on issueQ;
//     and a not-done instance with a pending live-in whose producer is
//     ready or killed is on resolveQ.
//
// Ids, not pointers, identify instances: a pointer is reused by the pool.
func checkPool(t *testing.T, e *DCE, where string) {
	t.Helper()
	for _, l := range []struct {
		name string
		refs []instRef
	}{{"issue", e.issueQ}, {"resolution", e.resolveQ}} {
		for i := 1; i < len(l.refs); i++ {
			if l.refs[i-1].id >= l.refs[i].id {
				t.Fatalf("%s: %s list out of id order: %d before %d", where, l.name, l.refs[i-1].id, l.refs[i].id)
			}
		}
	}
	// all, issueQ and resolveQ are in id order, so one merge walk finds
	// each instance's entries. An entry whose instance was recycled keeps
	// the old id, which no instance in all carries any more.
	notDone, iq, rq := 0, 0, 0
	for _, in := range e.all {
		if in.refs <= 0 {
			t.Fatalf("%s: all holds instance %d with %d references", where, in.id, in.refs)
		}
		if in.done() {
			continue
		}
		notDone++
		for iq < len(e.issueQ) && e.issueQ[iq].id < in.id {
			iq++
		}
		for rq < len(e.resolveQ) && e.resolveQ[rq].id < in.id {
			rq++
		}
		ref := scanIssuable(e, in)
		if in.readyUops != ref {
			t.Fatalf("%s: instance %d ready set %x, the issue scan selects %x", where, in.id, in.readyUops, ref)
		}
		if listed := iq < len(e.issueQ) && e.issueQ[iq].id == in.id; !ref.empty() && !listed {
			t.Fatalf("%s: instance %d has an issuable micro-op and is not on the issue list", where, in.id)
		}
		if queued := rq < len(e.resolveQ) && e.resolveQ[rq].id == in.id; scanResolvable(in) && !queued {
			t.Fatalf("%s: instance %d has a resolvable live-in and is not queued for resolution", where, in.id)
		}
	}
	if notDone != e.activeRun {
		t.Fatalf("%s: all has %d live entries, activeRun is %d", where, notDone, e.activeRun)
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
}
