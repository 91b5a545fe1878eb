// Package core implements the cycle-level out-of-order core that plays the
// role Scarab plays in the paper: an execution-driven model with fetch,
// decode/rename, dispatch, out-of-order issue, execute and in-order retire;
// a reorder buffer, reservation stations and a load-store queue; checkpointed
// branch recovery; and faithful wrong-path fetch *and* execution (the merge
// point predictor depends on real wrong-path micro-ops being in the ROB at
// flush time).
//
// The front-end executes micro-ops functionally at fetch (the role of PIN):
// values, branch outcomes and memory addresses are known at fetch time,
// while the backend models *when* those values become available. Fetch
// follows predicted branch directions, so the front-end naturally walks
// down the wrong path after a misprediction, with in-flight stores visible
// to younger loads through a speculative store overlay.
package core

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
)

// Config parameterizes the core. DefaultConfig matches the paper's Table 1.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	RetireWidth int

	ROBSize    int
	RSSize     int
	LSQSize    int
	FetchQSize int

	IntALUs  int
	MemPorts int

	// FrontendDepth is the fetch-to-dispatch latency in cycles; together
	// with branch resolution time it sets the misprediction penalty.
	FrontendDepth uint64
	// RedirectPenalty is the additional bubble between a resolving
	// misprediction and the first corrected fetch.
	RedirectPenalty uint64

	MulLatency uint64
	DivLatency uint64
	FPLatency  uint64

	// UopBytes is the footprint of one micro-op in the instruction cache.
	UopBytes uint64
}

// Validate checks the pipeline geometry: a malformed width or zero-sized
// structure deadlocks or trivially serializes the model rather than
// erroring, so reject it up front.
func (c Config) Validate() error {
	pos := func(name string, v int) error {
		if v < 1 {
			return fmt.Errorf("core config: %s = %d must be >= 1", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"FetchWidth", c.FetchWidth},
		{"IssueWidth", c.IssueWidth},
		{"RetireWidth", c.RetireWidth},
		{"ROBSize", c.ROBSize},
		{"RSSize", c.RSSize},
		{"LSQSize", c.LSQSize},
		{"FetchQSize", c.FetchQSize},
		{"IntALUs", c.IntALUs},
		{"MemPorts", c.MemPorts},
	} {
		if err := pos(f.name, f.v); err != nil {
			return err
		}
	}
	if c.FetchQSize+c.ROBSize > maxInFlight {
		return fmt.Errorf("core config: FetchQSize+ROBSize = %d exceeds %d in-flight micro-ops",
			c.FetchQSize+c.ROBSize, maxInFlight)
	}
	if c.ROBSize < c.RetireWidth {
		return fmt.Errorf("core config: ROBSize = %d cannot sustain RetireWidth = %d",
			c.ROBSize, c.RetireWidth)
	}
	if c.FrontendDepth < 1 {
		return fmt.Errorf("core config: FrontendDepth must be >= 1")
	}
	if c.MulLatency < 1 || c.DivLatency < 1 || c.FPLatency < 1 {
		return fmt.Errorf("core config: execution latencies must be >= 1")
	}
	if c.UopBytes < 1 {
		return fmt.Errorf("core config: UopBytes must be >= 1")
	}
	return nil
}

// DefaultConfig returns the Table 1 baseline: 4-wide issue, 256-entry ROB,
// 92-entry reservation stations.
func DefaultConfig() Config {
	return Config{
		FetchWidth:      4,
		IssueWidth:      4,
		RetireWidth:     4,
		ROBSize:         256,
		RSSize:          92,
		LSQSize:         72,
		FetchQSize:      32,
		IntALUs:         4,
		MemPorts:        2,
		FrontendDepth:   6,
		RedirectPenalty: 2,
		MulLatency:      3,
		DivLatency:      20,
		FPLatency:       4,
		UopBytes:        4,
	}
}

// UopState tracks a dynamic micro-op through the pipeline.
type UopState uint8

// Pipeline states, in order.
const (
	StFetched UopState = iota // in the fetch queue
	StInRS                    // dispatched, waiting for operands or a unit
	StIssued                  // executing
	StDone                    // result available at DoneAt
	StRetired
	StSquashed
)

// DynUop is one dynamic micro-op instance. The core recycles DynUops
// through a fixed pool: a *DynUop is valid from fetch until the micro-op
// retires or is squashed, after which the same memory is handed out for a
// younger micro-op. Nothing may hold one past that point unless it also
// records Seq and compares it before use; extension hooks must not keep the
// pointers they are passed. The wakeup structures (consumer lists and the
// ready and timed lists) need no Seq: they hold only reservation-station
// entries, and issue and squash take each one off before it leaves.
type DynUop struct {
	Seq uint64
	U   *isa.Uop
	// Res holds the fetch-time functional results: values, branch outcome,
	// effective address.
	Res emu.StepResult
	// WrongPath marks micro-ops fetched beyond an unresolved mispredicted
	// branch.
	WrongPath bool

	// Branch prediction state (conditional branches only).
	IsCondBr  bool
	PredTaken bool
	// UsedDCE marks predictions supplied by a Branch Runahead prediction
	// queue instead of the baseline predictor.
	UsedDCE  bool
	PredInfo bpred.Info
	bpSnap   bpred.Snapshot
	feSnap   feCheckpoint
	extSnap  interface{}
	// TagePred records what the baseline predictor said, even when it was
	// overridden (needed for throttle-counter training).
	TagePred bool
	// ExtData is extension-private per-uop scratch (Branch Runahead stores
	// the consumed prediction-queue slot reference here).
	ExtData interface{}

	// Scheduling state. prods is inline storage for the (at most three)
	// in-flight producers rename resolves; nprods is the live count.
	// storeDep is the older in-flight store a load forwards from. DynUops
	// are pooled, so a producer may retire and its DynUop be handed out
	// again while this one waits: prodSeq and storeSeq record each
	// target's Seq at link time, and a mismatch means it has retired.
	prods    [3]*DynUop
	prodSeq  [3]uint64
	storeDep *DynUop
	storeSeq uint64
	ReadyAt  uint64 // earliest dispatch cycle (fetch + frontend depth)
	DoneAt   uint64
	// Wakeup state (DESIGN.md §12). Link slot k < linkStore waits on
	// prods[k] and slot linkStore on storeDep. At rename each producer
	// still in the reservation stations gets the slot on its consumer
	// list, with the slot's bit set in linked; waiting counts those
	// links. Producers already issued fold their DoneAt into wakeAt, and
	// so does each linked producer when it issues.
	wakeAt    uint64
	next      [linkSlots]link // the rest of the list slot k sits on
	consumers link            // head of this micro-op's consumer list
	idx       uint16          // pool index, which a link names
	linked    uint8
	waiting   uint8
	nprods    uint8
	State     UopState
	Mispred   bool // resolved direction differed from the prediction
	// wpCounted marks a branch counted in the core's wrong-path tracker;
	// it is released exactly once, at resolve or squash.
	wpCounted bool
}

// link names one link slot of one pooled micro-op, as its pool index
// times linkSlots plus the slot, plus one; the zero link ends a list.
type link uint16

const (
	linkSlots = 4
	linkStore = linkSlots - 1 // the slot a load waits on its forwarding store through
	// maxInFlight bounds the DynUop pool (FetchQSize+ROBSize) so that every
	// link fits a uint16.
	maxInFlight = (1<<16 - 1) / linkSlots
)

// linkOf names link slot k of d.
func linkOf(d *DynUop, k int) link { return link(int(d.idx)*linkSlots + k + 1) }

// slotAt returns the pooled micro-op and the link slot that l names.
func (f *frontend) slotAt(l link) (*DynUop, int) {
	return &f.uops[(l-1)/linkSlots], int(l-1) % linkSlots
}

// producer returns the micro-op link slot k of d waits on.
func (d *DynUop) producer(k int) *DynUop {
	if k == linkStore {
		return d.storeDep
	}
	return d.prods[k]
}

// IsLoad reports whether the micro-op is a load.
func (d *DynUop) IsLoad() bool { return d.U.Op.IsLoad() }

// IsStore reports whether the micro-op is a store.
func (d *DynUop) IsStore() bool { return d.U.Op.IsStore() }

// Done reports whether the result is available at cycle now.
func (d *DynUop) Done(now uint64) bool {
	return (d.State == StDone || d.State == StRetired) && d.DoneAt <= now
}

// Extension is the hook surface Branch Runahead plugs into. A nil extension
// yields the unmodified baseline core. A *DynUop passed to a hook is owned
// by the core: the hook may read it during the call but must not keep it.
type Extension interface {
	// FetchCondBranch may override the baseline prediction for a
	// conditional branch at fetch. It returns the final prediction and
	// whether it came from a prediction queue.
	FetchCondBranch(now uint64, d *DynUop, basePred bool) (pred bool, fromDCE bool)
	// Checkpoint captures extension fetch-side state (prediction queue
	// fetch pointers) before a conditional branch.
	Checkpoint() interface{}
	// Restore rewinds extension fetch-side state during a recovery at
	// cycle now.
	Restore(now uint64, snap interface{})
	// ReleaseCheckpoint hands a checkpoint back once its branch retired
	// or was squashed, so the extension can recycle the allocation. Each
	// checkpoint is released at most once and never used afterwards.
	ReleaseCheckpoint(snap interface{})
	// BranchResolved is called when a conditional branch executes.
	// correctRegs is the architectural register state at the branch (the
	// live-in source for chain synchronization); it is only non-nil for
	// mispredicted correct-path branches, and only valid during the call.
	BranchResolved(now uint64, d *DynUop, correctRegs *emu.RegFile)
	// Flush is called on a pipeline flush with the squashed micro-ops in
	// program order (the forward ROB walk the Wrong Path Buffer performs).
	Flush(now uint64, cause *DynUop, squashed []*DynUop)
	// Retired is called for every retired micro-op in program order.
	Retired(now uint64, d *DynUop)
	// ReleaseUopData hands back the ExtData attached to a micro-op once
	// the core is done with it (retire or squash), so the extension can
	// recycle the allocation. Each value is released at most once, after
	// the Retired/Flush hook that observes it.
	ReleaseUopData(data interface{})
	// Tick advances the extension one cycle (the DCE executes here).
	// info reports the core resources left over this cycle, which the
	// Core-Only DCE variant borrows.
	Tick(now uint64, info TickInfo)
	// Idle reports that the extension has no in-flight work, i.e. a Tick
	// would be a pure no-op. The core's dead-cycle skip consults it before
	// fast-forwarding through empty cycles.
	Idle() bool
}

// TickInfo reports per-cycle core resource slack to the extension.
type TickInfo struct {
	// SpareIssueSlots is the unused portion of the core's issue width.
	SpareIssueSlots int
	// SpareRS is the number of free reservation-station entries.
	SpareRS int
}

// Hierarchy bundles the memory system the core (and the DCE) accesses.
type Hierarchy struct {
	ICache *cache.Cache
	DCache *cache.Cache
	L2     *cache.Cache
	Mem    cache.MemLevel
	// DTLB, when non-nil, translates data addresses before D-cache access;
	// the DCE shares it with the core (paper §4.2).
	DTLB *cache.TLB
}
