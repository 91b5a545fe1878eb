// Package bpred implements the branch direction predictors used by the
// simulator: a faithful TAGE-SC-L (the paper's 64KB baseline and the 80KB
// iso-storage comparison point), an effectively unlimited MTAGE-SC variant,
// and small auxiliary predictors (bimodal, gshare, and the 3-bit per-branch
// counter used by Predictive chain initiation).
//
// Prediction and update are split the way hardware splits them: Predict is
// called at fetch and returns an opaque Info capturing prediction-time
// indices; OnFetch pushes the predicted direction into the speculative
// history; Checkpoint/Restore save and recover the speculative history
// around branches (restored on a pipeline flush); Commit performs the
// retire-time table update using the prediction-time Info.
//
// Every predictor has a CopyFrom method that copies another instance's
// tables and history registers into its own arrays, for a run forked from
// a shared warmup. Both instances must come from the same constructor and
// configuration. CopyFrom only reads its argument, so several forks may
// copy from one warm predictor at once, and it copies no checkpoint or info
// pools: a warm predictor is taken with the pipeline drained, when they
// hold nothing in flight.
package bpred

// Info is opaque per-prediction state returned by Predict and handed back
// to Commit. Predictors that need no such state return nil.
type Info interface{}

// Snapshot is an opaque speculative-history checkpoint.
type Snapshot interface{}

// Predictor is a conditional branch direction predictor.
type Predictor interface {
	// Name identifies the predictor in reports.
	Name() string
	// Predict returns the predicted direction for the conditional branch
	// at pc, plus prediction-time state for Commit.
	Predict(pc uint64) (taken bool, info Info)
	// OnFetch records direction dir into the speculative history. The
	// core calls it with the predicted direction at fetch, and with the
	// corrected direction when re-establishing history after a flush.
	OnFetch(pc uint64, dir bool)
	// Checkpoint captures the speculative history state.
	Checkpoint() Snapshot
	// Restore rewinds the speculative history to a checkpoint.
	Restore(s Snapshot)
	// Release returns a checkpoint to the predictor once no in-flight
	// branch can restore to it (its branch retired or was squashed), so
	// implementations can recycle the allocation. A snapshot must be
	// released at most once and never used afterwards.
	Release(s Snapshot)
	// Commit updates the prediction tables at retirement. taken is the
	// resolved direction, pred the direction Predict returned, and info
	// the value Predict returned alongside it. Commit must not retain
	// info: the core hands it back via ReleaseInfo afterwards.
	Commit(pc uint64, taken, pred bool, info Info)
	// ReleaseInfo returns prediction-time state to the predictor once its
	// branch has retired (after Commit) or been squashed, so
	// implementations can recycle the allocation. An info must be
	// released at most once and never used afterwards.
	ReleaseInfo(info Info)
	// StorageBits reports the predictor's storage budget in bits.
	StorageBits() int
}

// RetireObserver is an optional Predictor extension for predictors that
// learn from the retired instruction stream beyond branch outcomes (LDBP
// tracks load values and compare recipes this way). The core type-asserts
// once at construction and, when implemented, calls ObserveRetire for
// every retired micro-op in program order. value is the result written to
// the destination register, when any (the loaded value for loads).
// Wrong-path micro-ops never retire, so the observer sees exactly the
// architectural execution stream.
type RetireObserver interface {
	ObserveRetire(pc uint64, value uint64)
}

// ctr2 is a 2-bit saturating counter in [0,3]; >=2 means taken.
type ctr2 uint8

func (c ctr2) taken() bool { return c >= 2 }

func (c ctr2) update(taken bool) ctr2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// signedCtr saturates a signed counter within [-lim, lim-1].
func signedCtr(c int8, taken bool, bits uint) int8 {
	lim := int8(1) << (bits - 1)
	if taken {
		if c < lim-1 {
			return c + 1
		}
		return c
	}
	if c > -lim {
		return c - 1
	}
	return c
}

// Bimodal is a PC-indexed table of 2-bit counters.
type Bimodal struct {
	table []ctr2
	mask  uint64
}

// NewBimodal returns a bimodal predictor with 2^logSize entries.
func NewBimodal(logSize uint) *Bimodal {
	n := 1 << logSize
	t := make([]ctr2, n)
	for i := range t {
		t[i] = 2 // weakly taken
	}
	return &Bimodal{table: t, mask: uint64(n - 1)}
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return "bimodal" }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) (bool, Info) {
	return b.table[pc&b.mask].taken(), nil
}

// OnFetch implements Predictor; bimodal keeps no history.
func (b *Bimodal) OnFetch(uint64, bool) {}

// Checkpoint implements Predictor.
func (b *Bimodal) Checkpoint() Snapshot { return nil }

// Restore implements Predictor.
func (b *Bimodal) Restore(Snapshot) {}

// Release implements Predictor; bimodal checkpoints hold no storage.
func (b *Bimodal) Release(Snapshot) {}

// Commit implements Predictor.
func (b *Bimodal) Commit(pc uint64, taken, _ bool, _ Info) {
	i := pc & b.mask
	b.table[i] = b.table[i].update(taken)
}

// ReleaseInfo implements Predictor; bimodal returns no prediction state.
func (b *Bimodal) ReleaseInfo(Info) {}

// StorageBits implements Predictor.
func (b *Bimodal) StorageBits() int { return 2 * len(b.table) }

// CopyFrom copies w's counters into b.
func (b *Bimodal) CopyFrom(w *Bimodal) { copy(b.table, w.table) }

// Gshare XORs a global history register with the PC to index a counter
// table. Included as a classical point of comparison and for tests.
type Gshare struct {
	table    []ctr2
	mask     uint64
	histBits uint
	hist     uint64
}

// NewGshare returns a gshare predictor with 2^logSize entries and histBits
// of global history.
func NewGshare(logSize, histBits uint) *Gshare {
	n := 1 << logSize
	t := make([]ctr2, n)
	for i := range t {
		t[i] = 2
	}
	return &Gshare{table: t, mask: uint64(n - 1), histBits: histBits}
}

// Name implements Predictor.
func (g *Gshare) Name() string { return "gshare" }

func (g *Gshare) index(pc uint64) uint64 {
	return (pc ^ g.hist) & g.mask
}

// Predict implements Predictor.
func (g *Gshare) Predict(pc uint64) (bool, Info) {
	i := g.index(pc)
	return g.table[i].taken(), i
}

// OnFetch implements Predictor.
func (g *Gshare) OnFetch(_ uint64, dir bool) {
	g.hist <<= 1
	if dir {
		g.hist |= 1
	}
	g.hist &= (1 << g.histBits) - 1
}

// Checkpoint implements Predictor.
func (g *Gshare) Checkpoint() Snapshot { return g.hist }

// Restore implements Predictor.
func (g *Gshare) Restore(s Snapshot) { g.hist = s.(uint64) }

// Release implements Predictor; gshare checkpoints are plain values.
func (g *Gshare) Release(Snapshot) {}

// Commit implements Predictor.
func (g *Gshare) Commit(_ uint64, taken, _ bool, info Info) {
	i := info.(uint64)
	g.table[i] = g.table[i].update(taken)
}

// ReleaseInfo implements Predictor; gshare infos are plain index values.
func (g *Gshare) ReleaseInfo(Info) {}

// StorageBits implements Predictor.
func (g *Gshare) StorageBits() int { return 2*len(g.table) + int(g.histBits) }

// CounterTable is the simple per-branch 3-bit counter the paper uses as the
// prediction mechanism for Predictive chain initiation (§4.1): "We use a
// simple per-branch 3-bit counter as the prediction mechanism."
type CounterTable struct {
	table []int8
	mask  uint64
}

// NewCounterTable returns a table with 2^logSize 3-bit counters.
func NewCounterTable(logSize uint) *CounterTable {
	n := 1 << logSize
	return &CounterTable{table: make([]int8, n), mask: uint64(n - 1)}
}

// Predict returns the predicted direction for pc.
func (c *CounterTable) Predict(pc uint64) bool { return c.table[pc&c.mask] >= 0 }

// Update trains the counter for pc with the resolved direction.
func (c *CounterTable) Update(pc uint64, taken bool) {
	i := pc & c.mask
	c.table[i] = signedCtr(c.table[i], taken, 3)
}

// StorageBits reports the table's storage budget in bits.
func (c *CounterTable) StorageBits() int { return 3 * len(c.table) }

// xorshift64 is a small deterministic PRNG for TAGE allocation tie-breaks.
type xorshift64 uint64

func (x *xorshift64) next() uint64 {
	v := uint64(*x)
	if v == 0 {
		v = 0x9e3779b97f4a7c15
	}
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift64(v)
	return v
}

// CopyFrom copies w's counters and history into g.
func (g *Gshare) CopyFrom(w *Gshare) {
	copy(g.table, w.table)
	g.hist = w.hist
}
