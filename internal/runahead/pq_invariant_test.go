package runahead

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
)

// assertPQOrder checks the prediction-queue pointer invariant: the DCE's
// allocation (push) pointer never falls behind the core's fetch pointer,
// which never falls behind the retire pointer.
func assertPQOrder(t *testing.T, q *Queue, where string) {
	t.Helper()
	if q.alloc < q.fetch || q.fetch < q.retire {
		t.Fatalf("%s: pointer ordering violated: alloc=%d fetch=%d retire=%d",
			where, q.alloc, q.fetch, q.retire)
	}
}

// pqSystem builds a full Branch Runahead System over a trivial memory
// hierarchy, serial (non-speculative) initiation for easy reasoning.
func pqSystem() (*System, *emu.Memory) {
	cfg := Mini()
	cfg.InitMode = NonSpeculative
	mem := emu.NewMemory()
	dc := cache.New(cache.Config{Name: "d", SizeBytes: 4096, LineBytes: 64,
		Ways: 4, HitLatency: 3, Ports: 2}, constMem{latency: 20})
	return New(cfg, dc, mem), mem
}

// condBr fabricates a retired-state conditional-branch micro-op.
func condBr(pc uint64, taken bool) *core.DynUop {
	d := &core.DynUop{U: &isa.Uop{PC: pc, Op: isa.OpBr}, IsCondBr: true}
	d.Res.Taken = taken
	return d
}

// TestPQPointerOrderAcrossRecoveryFlush drives the System through the same
// core.Extension hook sequence the core uses — checkpoint at each branch
// fetch, restore on a recovery flush, retire-side bookkeeping — and asserts
// DCE-push >= core-fetch >= core-retire at every step. The squashed branch
// instances must re-consume the same slots with the same values after the
// restore.
func TestPQPointerOrderAcrossRecoveryFlush(t *testing.T) {
	s, mem := pqSystem()
	const base = uint64(0x1000)
	pattern := func(idx int) bool { return idx%3 == 0 }
	for i := 0; i < 64; i++ {
		v := uint64(0)
		if pattern(i) {
			v = 900 // clears the chain's >= 500 threshold
		}
		mem.Write(base+uint64(i)*4, 4, v)
	}
	s.cc.Install(incChain())

	// Core misprediction at index 0 synchronizes the engine; chains compute
	// outcomes for indices 1, 2, 3, ... into consecutive queue slots.
	var regs emu.RegFile
	regs.Set(isa.R1, base)
	regs.Set(isa.R3, 0)
	s.BranchResolved(0, condBr(7, true), &regs)
	q := s.pqs.For(7)
	if q == nil {
		t.Fatal("synchronization assigned no queue to the branch")
	}

	// Let the engine run ahead of fetch by six outcomes.
	now := uint64(1)
	for ; now < 10_000; now++ {
		s.Tick(now, core.TickInfo{SpareIssueSlots: 4, SpareRS: 92})
		assertPQOrder(t, q, "tick")
		if q.alloc >= 6 && allFilled(q, 6) {
			break
		}
	}
	if q.alloc < 6 {
		t.Fatalf("engine never ran ahead: alloc=%d", q.alloc)
	}

	// The core fetches four instances of the branch (indices 1..4), taking
	// an extension checkpoint before each, exactly as the pipeline does.
	type fetchedBr struct {
		d    *core.DynUop
		snap interface{}
	}
	var inflight []fetchedBr
	for i := 1; i <= 4; i++ {
		snap := s.Checkpoint()
		d := condBr(7, pattern(i))
		pred, fromDCE := s.FetchCondBranch(now, d, false)
		d.TagePred = false
		d.PredTaken = pred
		d.UsedDCE = fromDCE
		assertPQOrder(t, q, "fetch")
		if !fromDCE {
			t.Fatalf("instance %d not supplied by the prediction queue", i)
		}
		if pred != pattern(i) {
			t.Fatalf("instance %d predicted %v, want %v", i, pred, pattern(i))
		}
		inflight = append(inflight, fetchedBr{d, snap})
	}
	if q.fetch != 4 {
		t.Fatalf("fetch pointer %d after four consumptions", q.fetch)
	}

	// The oldest instance retires; the retire pointer trails fetch.
	s.Retired(now, inflight[0].d)
	assertPQOrder(t, q, "retire")
	if q.retire != 1 {
		t.Fatalf("retire pointer %d after first retirement", q.retire)
	}

	// Recovery flush: an older mispredicted branch squashes instances 2..4,
	// restoring the checkpoint taken before instance 2 was fetched. The
	// fetch pointer rewinds to 1 but must not drop below retire.
	s.Restore(now, inflight[1].snap)
	assertPQOrder(t, q, "restore")
	if q.fetch != 1 {
		t.Fatalf("fetch pointer %d after restore, want 1", q.fetch)
	}

	// The refetched instances re-consume the same slots, same values.
	for i := 2; i <= 4; i++ {
		d := condBr(7, pattern(i))
		pred, fromDCE := s.FetchCondBranch(now, d, false)
		d.TagePred = false
		d.PredTaken = pred
		d.UsedDCE = fromDCE
		assertPQOrder(t, q, "refetch")
		if !fromDCE || pred != pattern(i) {
			t.Fatalf("refetched instance %d: pred=%v fromDCE=%v, want %v from queue",
				i, pred, fromDCE, pattern(i))
		}
		ref := d.ExtData.(*slotRef)
		if ref.idx != uint64(i-1) {
			t.Fatalf("refetched instance %d consumed slot %d, want %d", i, ref.idx, i-1)
		}
		s.Retired(now, d)
		assertPQOrder(t, q, "refetch retire")
	}
	if q.retire != 4 {
		t.Fatalf("retire pointer %d after all retirements, want 4", q.retire)
	}
	if got := s.ctr.predCorrect.Get(); got != 4 {
		t.Fatalf("pred_correct = %d, want 4", got)
	}
}

// TestPQLateSlotRefilledAcrossRecovery pins the paper's late-prediction
// recovery path ("the already consumed slot will be filled in case there is
// a recovery", §4.2): a slot consumed before the DCE fills it falls back to
// the baseline prediction, and after the recovery rewinds fetch, the
// refetched branch gets the now-filled value.
func TestPQLateSlotRefilledAcrossRecovery(t *testing.T) {
	s, _ := pqSystem()
	q := s.pqs.Ensure(0x40, 0)
	q.reset(0) // synchronized: active, pointers aligned

	// The DCE allocates a slot but has not computed the outcome yet.
	*q.slot(q.alloc) = pqSlot{}
	q.alloc++

	snap := s.Checkpoint()
	d := condBr(0x40, true)
	pred, fromDCE := s.FetchCondBranch(1, d, false)
	if fromDCE || pred {
		t.Fatalf("unfilled slot supplied a prediction (pred=%v fromDCE=%v)", pred, fromDCE)
	}
	if ref := d.ExtData.(*slotRef); ref.cat != catLate {
		t.Fatalf("consumption category %v, want late", ref.cat)
	}
	if !q.slot(0).consumed {
		t.Fatal("late consumption not marked on the slot")
	}
	assertPQOrder(t, q, "late fetch")

	// The fallback mispredicted; recovery rewinds fetch. By refetch time the
	// DCE has filled the slot, so the queue now supplies the outcome.
	s.Restore(2, snap)
	if q.fetch != 0 {
		t.Fatalf("fetch pointer %d after recovery, want 0", q.fetch)
	}
	q.slot(0).filled = true
	q.slot(0).value = true
	d2 := condBr(0x40, true)
	pred2, fromDCE2 := s.FetchCondBranch(2, d2, false)
	if !fromDCE2 || !pred2 {
		t.Fatalf("refilled slot not used after recovery (pred=%v fromDCE=%v)", pred2, fromDCE2)
	}
	assertPQOrder(t, q, "refetch")
}

// TestPQResyncInvalidatesCheckpoints: a wrong used prediction triggers a
// resynchronization (queue reset, generation bump); checkpoints taken before
// it are stale and must not move the rebuilt queue's fetch pointer.
func TestPQResyncInvalidatesCheckpoints(t *testing.T) {
	s, mem := pqSystem()
	const base = uint64(0x1000)
	for i := 0; i < 16; i++ {
		mem.Write(base+uint64(i)*4, 4, 900) // every outcome taken
	}
	s.cc.Install(incChain())
	var regs emu.RegFile
	regs.Set(isa.R1, base)
	regs.Set(isa.R3, 0)
	s.BranchResolved(0, condBr(7, true), &regs)
	q := s.pqs.For(7)

	now := uint64(1)
	for ; now < 10_000; now++ {
		s.Tick(now, core.TickInfo{SpareIssueSlots: 4, SpareRS: 92})
		if q.alloc >= 2 && allFilled(q, 2) {
			break
		}
	}

	snap := s.Checkpoint()
	d := condBr(7, true)
	pred, fromDCE := s.FetchCondBranch(now, d, false)
	d.TagePred = true
	d.PredTaken = pred
	d.UsedDCE = fromDCE
	if !fromDCE {
		t.Fatal("queue did not supply the prediction")
	}

	// The used prediction resolves wrong: divergence, resynchronization at
	// the architectural state (index 5).
	d.Res.Taken = !pred
	regs.Set(isa.R3, 5)
	genBefore := q.gen
	s.BranchResolved(now, d, &regs)
	assertPQOrder(t, q, "resync")
	if q.gen == genBefore {
		t.Fatal("resynchronization did not bump the queue generation")
	}

	// Restoring the pre-resync checkpoint must be a no-op on this queue.
	fetchBefore := q.fetch
	s.Restore(now, snap)
	if q.fetch != fetchBefore {
		t.Fatalf("stale checkpoint rewound a resynchronized queue: fetch %d -> %d",
			fetchBefore, q.fetch)
	}
	assertPQOrder(t, q, "stale restore")
}
