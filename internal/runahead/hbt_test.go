package runahead

import "testing"

func TestHBTDetectsHardBranch(t *testing.T) {
	h := NewHBT(64)
	const pc = 0x100
	// A branch mispredicting every time saturates the 5-bit counter.
	for i := 0; i < 40; i++ {
		h.OnRetireBranch(pc, i%2 == 0, true)
	}
	if !h.IsHard(pc) {
		t.Fatal("always-mispredicting branch not detected as hard")
	}
	if !h.ShouldExtract(pc) {
		t.Fatal("hard branch must trigger extraction")
	}
}

func TestHBTDecayForgetsEasyBranches(t *testing.T) {
	h := NewHBT(64)
	const pc = 0x100
	for i := 0; i < 40; i++ {
		h.OnRetireBranch(pc, true, true)
	}
	if !h.IsHard(pc) {
		t.Fatal("precondition: hard")
	}
	// 3000 retired branches without mispredictions: three decay periods of
	// -15 erase a saturated counter (31).
	for i := 0; i < 3000; i++ {
		h.OnRetireBranch(0x200, true, false)
	}
	if h.IsHard(pc) {
		t.Fatal("decay failed to forget a branch that stopped mispredicting")
	}
}

func TestHBTWellPredictedBranchNeverHard(t *testing.T) {
	h := NewHBT(64)
	const pc = 0x300
	// 2% misprediction rate is under the paper's ~1.5% contribution bar
	// once decay is accounted for.
	for i := 0; i < 10000; i++ {
		h.OnRetireBranch(pc, true, i%50 == 0)
	}
	if h.IsHard(pc) {
		t.Fatal("a 2%-mispredicting branch saturated the counter")
	}
}

func TestHBTAffectorGuardLists(t *testing.T) {
	h := NewHBT(64)
	const hard, guard = 0x10, 0x20
	for i := 0; i < 40; i++ {
		h.OnRetireBranch(hard, i%2 == 0, true)
	}
	h.Guard(guard, hard)
	ags := h.AGSet(hard)
	if len(ags) != 1 || ags[0] != guard {
		t.Fatalf("AG set = %v, want [%d]", ags, guard)
	}
	// Self-affectors are allowed (paper §4.4: "including the merge
	// predicted branch").
	h.Affector(hard, hard)
	found := false
	for _, pc := range h.AGSet(hard) {
		if pc == hard {
			found = true
		}
	}
	if !found {
		t.Fatal("self-affector not recorded")
	}
}

func TestHBTBiasedGuardRemoved(t *testing.T) {
	h := NewHBT(64)
	const hard, guard = 0x10, 0x20
	for i := 0; i < 40; i++ {
		h.OnRetireBranch(hard, i%2 == 0, true)
	}
	h.Guard(guard, hard)
	// The guard retires 99% taken: decisively biased (>90%), so it must
	// leave the AG list.
	for i := 0; i < 2000; i++ {
		h.OnRetireBranch(guard, i%100 != 0, false)
	}
	if !h.IsBiased(guard) {
		t.Fatal("strongly biased branch not classified as biased")
	}
	for _, pc := range h.AGSet(hard) {
		if pc == guard {
			t.Fatal("biased guard still in the AG list")
		}
	}
}

func TestHBTUnbiasedGuardRetained(t *testing.T) {
	h := NewHBT(64)
	const hard, guard = 0x10, 0x20
	for i := 0; i < 40; i++ {
		h.OnRetireBranch(hard, i%2 == 0, true)
	}
	h.Guard(guard, hard)
	// 85% taken is below the paper's 90% bias definition: must stay.
	for i := 0; i < 5000; i++ {
		h.OnRetireBranch(guard, i%20 < 17, false)
	}
	if h.IsBiased(guard) {
		t.Fatal("moderately biased branch wrongly classified as biased")
	}
	found := false
	for _, pc := range h.AGSet(hard) {
		if pc == guard {
			found = true
		}
	}
	if !found {
		t.Fatal("unbiased guard dropped from the AG list")
	}
}

func TestHBTCapacityAndReplacement(t *testing.T) {
	h := NewHBT(4)
	// Fill with four branches, one of them hard.
	for i := 0; i < 40; i++ {
		h.OnRetireBranch(1, true, true)
	}
	h.OnRetireBranch(2, true, false)
	h.OnRetireBranch(3, true, false)
	h.OnRetireBranch(4, true, false)
	// A new branch should replace a zero-counter entry, not the hard one.
	h.OnRetireBranch(5, true, true)
	if !h.IsHard(1) {
		t.Fatal("hard entry evicted by allocation")
	}
	if h.find(5) == nil {
		t.Fatal("new branch not allocated over a cold entry")
	}
}

func TestChainCacheLRUAndLookup(t *testing.T) {
	cc := NewChainCache(2)
	mk := func(branch, trig uint64, out TagOutcome) *Chain {
		return &Chain{BranchPC: branch, Tag: Tag{PC: trig, Out: out},
			Uops: []ChainUop{{Op: 0, OrigPC: branch}}}
	}
	a := mk(1, 1, OutWildcard)
	b := mk(2, 1, OutNotTaken)
	cc.Install(a)
	cc.Install(b)
	// Lookup for (1, false) must trigger both (wildcard + NT).
	if got := cc.Lookup(nil, 1, false); len(got) != 2 {
		t.Fatalf("lookup hit %d chains, want 2", len(got))
	}
	// (1, true) triggers only the wildcard.
	if got := cc.Lookup(nil, 1, true); len(got) != 1 || got[0].BranchPC != 1 {
		t.Fatalf("taken lookup = %v", got)
	}
	// Install a third chain: the LRU entry (b, least recently hit) evicts.
	c := mk(3, 9, OutTaken)
	cc.Install(c)
	if cc.Len() != 2 {
		t.Fatalf("len = %d", cc.Len())
	}
	if got := cc.Lookup(nil, 1, true); len(got) != 1 {
		t.Fatal("recently used wildcard was evicted")
	}
}

func TestChainCacheDropsStaleTriggerVariants(t *testing.T) {
	cc := NewChainCache(8)
	wild := &Chain{BranchPC: 5, Tag: Tag{PC: 5, Out: OutWildcard},
		Uops: []ChainUop{{OrigPC: 5}}}
	cc.Install(wild)
	// Learning an affector/guard changes the trigger PC: the stale
	// self-tagged variant must be dropped so it cannot double-allocate
	// prediction queue slots.
	ag := &Chain{BranchPC: 5, Tag: Tag{PC: 9, Out: OutTaken},
		Uops: []ChainUop{{OrigPC: 5}}}
	cc.Install(ag)
	for _, ch := range cc.All() {
		if ch.BranchPC == 5 && ch.Tag.PC == 5 {
			t.Fatal("stale self-tagged chain survived an AG-trigger install")
		}
	}
}

func TestPredictionQueuePointers(t *testing.T) {
	cfg := Mini()
	pqs := NewPQSet(&cfg)
	q := pqs.Ensure(0x40, 0)
	q.reset(0)

	// Allocate three slots, fill two.
	for i := 0; i < 3; i++ {
		*q.slot(q.alloc) = pqSlot{}
		q.alloc++
	}
	q.slot(0).filled = true
	q.slot(0).value = true
	q.slot(1).filled = true
	q.slot(1).value = false

	// Checkpoint, consume two, restore: the fetch pointer must rewind.
	cp := pqs.Checkpoint()
	q.fetch = 2
	pqs.Restore(cp)
	if q.fetch != 0 {
		t.Fatalf("fetch pointer %d after restore, want 0", q.fetch)
	}

	// A reset invalidates outstanding checkpoints (generation bump).
	cp2 := pqs.Checkpoint()
	q.reset(1)
	q.fetch = 5
	pqs.Restore(cp2)
	if q.fetch != 5 {
		t.Fatal("stale checkpoint restored across a reset")
	}
}

func TestPredictionQueueFull(t *testing.T) {
	cfg := Mini()
	cfg.QueueEntries = 4
	pqs := NewPQSet(&cfg)
	q := pqs.Ensure(0x40, 0)
	q.reset(0)
	for i := 0; i < 4; i++ {
		if q.full() {
			t.Fatalf("full at %d/4", i)
		}
		q.alloc++
	}
	if !q.full() {
		t.Fatal("not full at capacity")
	}
	q.retire++
	if q.full() {
		t.Fatal("still full after a retire freed a slot")
	}
}

func TestPQSetEviction(t *testing.T) {
	cfg := Mini()
	cfg.NumQueues = 2
	pqs := NewPQSet(&cfg)
	q1 := pqs.Ensure(1, 10)
	q2 := pqs.Ensure(2, 20)
	if q1 == q2 {
		t.Fatal("distinct branches share a queue")
	}
	// A third branch evicts the least recently used queue (q1).
	q3 := pqs.Ensure(3, 30)
	if q3 != q1 {
		t.Fatal("LRU queue not reused")
	}
	if pqs.For(1) != nil {
		t.Fatal("evicted branch still mapped")
	}
	if pqs.For(2) != q2 {
		t.Fatal("survivor lost its queue")
	}
}

// TestHBTBiasCrossingClearsEveryAGList: a guard serving several hard
// branches crosses the bias threshold once, and that single retirement
// removes it from every AG list (OnRetireBranch reports the count) and
// from every subsequent AGSet.
func TestHBTBiasCrossingClearsEveryAGList(t *testing.T) {
	h := NewHBT(64)
	hards := []uint64{0x10, 0x14, 0x18}
	const guard = 0x20
	for _, hard := range hards {
		for i := 0; i < 40; i++ {
			h.OnRetireBranch(hard, i%2 == 0, true)
		}
		h.Guard(guard, hard)
	}
	for _, hard := range hards {
		if ags := h.AGSet(hard); len(ags) != 1 || ags[0] != guard {
			t.Fatalf("precondition: AGSet(%#x) = %#x, want [guard]", hard, ags)
		}
	}

	crossings, removedTotal := 0, 0
	for i := 0; i < 2000; i++ {
		if n := h.OnRetireBranch(guard, true, false); n > 0 {
			crossings++
			removedTotal += n
		}
	}
	if !h.IsBiased(guard) {
		t.Fatal("always-taken guard not classified as biased")
	}
	if crossings != 1 {
		t.Fatalf("bias-driven removal reported on %d retirements, want exactly the crossing one", crossings)
	}
	if removedTotal != len(hards) {
		t.Fatalf("removed from %d AG lists, want %d", removedTotal, len(hards))
	}
	for _, hard := range hards {
		for _, pc := range h.AGSet(hard) {
			if pc == guard {
				t.Fatalf("biased guard still in AGSet(%#x)", hard)
			}
		}
	}
	// While biased, the merge-point sink must refuse to re-add it.
	h.Guard(guard, hards[0])
	for _, pc := range h.AGSet(hards[0]) {
		if pc == guard {
			t.Fatal("biased guard re-added to an AG list")
		}
	}
}

// TestHBTBiasReanchor: the first observed direction anchors the bias
// counter; when it was an outlier, the counter bottoms out, re-anchors on
// the actual common direction, and still reaches the threshold — so a
// branch whose very first retirement went the rare way is not immune to
// bias-driven AG removal.
func TestHBTBiasReanchor(t *testing.T) {
	h := NewHBT(64)
	const hard, guard = 0x10, 0x20
	for i := 0; i < 40; i++ {
		h.OnRetireBranch(hard, i%2 == 0, true)
	}
	h.Guard(guard, hard)

	// First retirement not-taken (the rare direction), then always taken.
	removed := h.OnRetireBranch(guard, false, false)
	for i := 0; i < 2000; i++ {
		removed += h.OnRetireBranch(guard, true, false)
	}
	if !h.IsBiased(guard) {
		t.Fatal("re-anchored guard never classified as biased")
	}
	if removed != 1 {
		t.Fatalf("bias-driven removals = %d, want 1", removed)
	}
	for _, pc := range h.AGSet(hard) {
		if pc == guard {
			t.Fatal("re-anchored biased guard still in the AG list")
		}
	}
}
