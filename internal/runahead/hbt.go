package runahead

// The Hard Branch Table (paper §4.3, Figure 9) detects hard-to-predict
// branches with 5-bit saturating misprediction counters that decay by 15
// every 1000 retired branches, and tracks affector/guard (AG) relationships
// discovered by the merge point predictor, including a 7-bit bias counter
// per AG branch so that highly biased AG branches are ignored.

const (
	mispCtrMax = 31 // 5-bit
	mispDecay  = 15
	mispPeriod = 1000 // retired branches

	biasCtrMax = 127 // 7-bit
	// Bias counting: +1 on a direction match, -biasMismatch on a mismatch.
	// The counter drifts upward only when the match rate exceeds
	// biasMismatch/(biasMismatch+1) = 90%, the paper's bias definition
	// (fn. 9: "detects a bias of 90% or more").
	biasMismatch  = 9
	biasThreshold = 100
)

type hbtEntry struct {
	pc    uint64
	valid bool

	misp uint8 // saturating misprediction counter

	// Affector/guard state.
	ag  bool   // this branch is an affector/guard of some hard branch
	agc bool   // the AG set of this hard branch changed since last observed
	agl uint64 // bit per HBT entry: the AG branches of this hard branch

	bias     uint8 // bias counter (meaningful for AG branches)
	biasDir  bool  // recorded common direction
	biasInit bool
}

// HBT is the Hard Branch Table. It is fully associative with the paper's
// replacement rule: entries with a zero misprediction counter and no AG role
// may be overwritten; AG entries persist while referenced.
type HBT struct {
	entries []hbtEntry
	byPC    map[uint64]int
	rng     uint64

	retiredBranches uint64

	// agScratch backs AGSet's return slice. The AG list is one machine
	// word, so 64 entries always suffice; callers consume the slice
	// before the next AGSet call. Scratch, not architectural state.
	agScratch [64]uint64
}

// NewHBT returns a table with n entries. The per-entry AG list is one
// machine word ("1 bit per entry in the HBT", paper fn. 8), so AG tracking
// covers the first 64 entries; larger (Big) tables still detect hardness on
// every entry.
func NewHBT(n int) *HBT {
	return &HBT{
		entries: make([]hbtEntry, n),
		byPC:    make(map[uint64]int, n),
		rng:     0x853c49e6748fea9b,
	}
}

func (h *HBT) nextRand() uint64 {
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	return h.rng
}

func (h *HBT) find(pc uint64) *hbtEntry {
	if i, ok := h.byPC[pc]; ok {
		return &h.entries[i]
	}
	return nil
}

// allocate returns an entry for pc, claiming a replaceable slot when absent.
func (h *HBT) allocate(pc uint64) *hbtEntry {
	if e := h.find(pc); e != nil {
		return e
	}
	victim := -1
	for i := range h.entries {
		e := &h.entries[i]
		if !e.valid {
			victim = i
			break
		}
		if e.misp == 0 && !e.ag && !h.referenced(i) {
			victim = i
		}
	}
	if victim < 0 {
		return nil
	}
	h.evict(victim)
	h.entries[victim] = hbtEntry{pc: pc, valid: true}
	h.byPC[pc] = victim
	return &h.entries[victim]
}

// referenced reports whether entry i appears in any hard branch's AG list.
func (h *HBT) referenced(i int) bool {
	if i >= 64 {
		return false
	}
	bit := uint64(1) << uint(i)
	for j := range h.entries {
		if h.entries[j].valid && h.entries[j].agl&bit != 0 {
			return true
		}
	}
	return false
}

func (h *HBT) evict(i int) {
	e := &h.entries[i]
	if !e.valid {
		return
	}
	delete(h.byPC, e.pc)
	// Clear this entry's bit from every AG list.
	if i < 64 {
		bit := uint64(1) << uint(i)
		for j := range h.entries {
			if h.entries[j].agl&bit != 0 {
				h.entries[j].agl &^= bit
				h.entries[j].agc = true
			}
		}
	}
	e.valid = false
}

// OnRetireBranch observes one retired conditional branch. It returns the
// number of AG lists the branch was removed from because its bias counter
// crossed the threshold this retirement (0 in the common case), so
// callers can surface bias-driven AG removal without re-deriving it.
func (h *HBT) OnRetireBranch(pc uint64, taken, mispredicted bool) int {
	h.retiredBranches++
	if h.retiredBranches%mispPeriod == 0 {
		h.decay()
	}
	e := h.find(pc)
	if e == nil {
		// Allocate on retire when space is available.
		e = h.allocate(pc)
		if e == nil {
			return 0
		}
	}
	if mispredicted && e.misp < mispCtrMax {
		e.misp++
	}
	// Bias tracking for AG branches.
	if e.ag {
		if !e.biasInit {
			e.biasDir = taken
			e.biasInit = true
		}
		if taken == e.biasDir {
			if e.bias < biasCtrMax {
				e.bias++
			}
		} else if e.bias > biasMismatch {
			e.bias -= biasMismatch
		} else {
			// The counter bottomed out: the recorded direction is not the
			// common one; re-anchor on the current direction.
			e.bias = 1
			e.biasDir = taken
		}
		if h.IsBiased(pc) {
			return h.removeFromAGLs(pc)
		}
	}
	return 0
}

func (h *HBT) decay() {
	for i := range h.entries {
		e := &h.entries[i]
		if !e.valid {
			continue
		}
		if e.misp > mispDecay {
			e.misp -= mispDecay
		} else {
			e.misp = 0
		}
	}
}

// IsHard reports whether pc's misprediction counter has saturated.
func (h *HBT) IsHard(pc uint64) bool {
	e := h.find(pc)
	return e != nil && e.misp >= mispCtrMax
}

// IsBiased reports whether pc is a highly biased AG branch.
func (h *HBT) IsBiased(pc uint64) bool {
	e := h.find(pc)
	return e != nil && e.bias >= biasThreshold
}

// ShouldExtract implements the paper's extraction trigger: the branch is in
// the HBT and either has a saturated misprediction counter or is randomly
// selected with 1% probability.
func (h *HBT) ShouldExtract(pc uint64) bool {
	e := h.find(pc)
	if e == nil {
		return false
	}
	if e.misp >= mispCtrMax {
		return true
	}
	return h.nextRand()%100 == 0 && e.misp > 0
}

// removeFromAGLs removes a (now biased) branch from every AG list and
// returns the number of lists it was dropped from.
func (h *HBT) removeFromAGLs(pc uint64) int {
	i, ok := h.byPC[pc]
	if !ok || i >= 64 {
		return 0
	}
	removed := 0
	bit := uint64(1) << uint(i)
	for j := range h.entries {
		if h.entries[j].agl&bit != 0 {
			h.entries[j].agl &^= bit
			h.entries[j].agc = true
			removed++
		}
	}
	return removed
}

// addAG records agPC as an affector/guard of hardPC (the mergepoint.Sink
// contract). The AG branch is allocated in the table (with the AG flag, so
// it persists) and added to the hard branch's AG list.
// Self-relations are allowed: a branch whose direction affects its own
// future dataflow (paper §4.4's "including the merge predicted branch")
// is its own affector, which makes its chain tags directional.
func (h *HBT) addAG(agPC, hardPC uint64) {
	hard := h.find(hardPC)
	if hard == nil {
		// Only track AG relations for branches we already consider
		// interesting.
		return
	}
	ag := h.allocate(agPC)
	if ag == nil {
		return
	}
	ag.ag = true
	idx := h.byPC[agPC]
	if idx >= 64 {
		return
	}
	bit := uint64(1) << uint(idx)
	if hard.agl&bit == 0 && !h.IsBiased(agPC) {
		hard.agl |= bit
		hard.agc = true
	}
}

// Guard implements mergepoint.Sink: guardPC controls guardedPC, so guardPC
// is an AG branch of guardedPC.
func (h *HBT) Guard(guardPC, guardedPC uint64) { h.addAG(guardPC, guardedPC) }

// Affector implements mergepoint.Sink.
func (h *HBT) Affector(affectorPC, affecteePC uint64) { h.addAG(affectorPC, affecteePC) }

// AGSet returns the PCs of the unbiased affector/guard branches of hardPC,
// and clears the "changed" flag.
func (h *HBT) AGSet(hardPC uint64) []uint64 {
	e := h.find(hardPC)
	if e == nil || e.agl == 0 {
		return nil
	}
	n := 0
	for i := 0; i < len(h.entries) && i < 64; i++ {
		if e.agl&(1<<uint(i)) != 0 && h.entries[i].valid {
			if !h.IsBiased(h.entries[i].pc) {
				h.agScratch[n] = h.entries[i].pc
				n++
			}
		}
	}
	e.agc = false
	if n == 0 {
		return nil
	}
	return h.agScratch[:n]
}
