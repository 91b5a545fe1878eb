package runahead

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/mergepoint"
	"repro/internal/stats"
	"repro/internal/trace"
)

// System is the complete Branch Runahead extension: it implements
// core.Extension, wiring the Hard Branch Table, the merge point predictor,
// chain extraction, the chain cache, the prediction queues and the DCE into
// the core's fetch/resolve/retire/flush hooks.
type System struct {
	// cfg is construction-time configuration.
	cfg Config

	hbt *HBT
	ceb *CEB
	cc  *ChainCache
	pqs *PQSet
	dce *DCE
	mp  *mergepoint.Predictor
	// mpLayout is the prior-work layout-heuristic merge predictor, run in
	// parallel purely for the paper's 92%-vs-78% accuracy comparison; it
	// feeds nothing.
	mpLayout *mergepoint.LayoutPredictor

	// extractBusyUntil models the multi-cycle chain extraction walk
	// (paper §4.3: "uops in CEB / retire width"; the paper found no
	// sensitivity up to 1000s of cycles).
	extractBusyUntil uint64

	// Chain statistics (Figures 2 and 5).
	chainLenSum   uint64
	chainCount    uint64
	chainAGTagged uint64

	ctr sysCounters

	// tr is the structured event tracer (nil when tracing is off).
	tr *trace.Tracer

	// refPool recycles slot references released by the core via
	// ReleaseUopData; refSlab amortizes the initial allocations. Free
	// lists are never part of the architectural state.
	refPool []*slotRef
	refSlab []slotRef

	// ext is the reusable chain extractor; pure scratch between
	// extractions, so never part of the architectural state.
	ext *extractor
}

// sysCounters counts the prediction-accounting and extraction events.
type sysCounters struct {
	syncSkippedLate, syncSkippedFilled    stats.Counter
	predInactive, predLate, predThrottled stats.Counter
	predCorrect, predIncorrect            stats.Counter
	extractFailed                         stats.Counter
}

// New builds a Branch Runahead system over the given D-cache and committed
// memory (both shared with the core).
func New(cfg Config, dcache *cache.Cache, mem *emu.Memory) *System {
	if err := cfg.Validate(); err != nil {
		panic("runahead: " + err.Error())
	}
	s := &System{
		cfg: cfg,
		hbt: NewHBT(cfg.HBTEntries),
		ceb: NewCEB(cfg.CEBEntries),
		cc:  NewChainCache(cfg.ChainCacheSize),
		ext: newExtractor(),
	}
	s.pqs = NewPQSet(&s.cfg)
	s.dce = NewDCE(&s.cfg, dcache, mem, s.cc, s.pqs)
	s.mp = mergepoint.New(mergepoint.DefaultConfig(), s.hbt)
	s.mpLayout = mergepoint.NewLayoutPredictor(mergepoint.DefaultConfig().MaxMergeDist)
	return s
}

// SetTrace attaches the structured event tracer to the system and its
// subunits (DCE, prediction queues). A nil tracer disables tracing.
func (s *System) SetTrace(tr *trace.Tracer) {
	s.tr = tr
	s.dce.tr = tr
	s.pqs.tr = tr
}

// DCEStats returns the engine's counters.
func (s *System) DCEStats() DCECounters { return s.dce.ctr }

// ShareTLB points the DCE at the core's D-TLB ("The DCE shares the D-Cache
// and D-TLB with the core", §4.2).
func (s *System) ShareTLB(t *cache.TLB) { s.dce.dtlb = t }

// MergeAccuracy reports the merge point predictor's session success rate.
func (s *System) MergeAccuracy() float64 { return s.mp.Accuracy() }

// LayoutMergeAccuracy reports the prior-work layout heuristic's success
// rate on the same flushes (the paper's ~78% comparison point).
func (s *System) LayoutMergeAccuracy() float64 { return s.mpLayout.Accuracy() }

// ChainsInstalled returns the number of extracted chains the chain cache
// installed.
func (s *System) ChainsInstalled() uint64 { return s.chainCount }

// AvgChainLen returns the mean extracted chain length in micro-ops (Fig 2).
func (s *System) AvgChainLen() float64 {
	return stats.Rate(s.chainLenSum, s.chainCount)
}

// AGChainFraction returns the fraction of extracted chains whose trigger is
// an affector/guard branch (Fig 5).
func (s *System) AGChainFraction() float64 {
	return stats.Rate(s.chainAGTagged, s.chainCount)
}

// Chains returns the chain cache contents (examples and debugging).
func (s *System) Chains() []*Chain { return s.cc.All() }

// ---------------------------------------------------------------- fetch --

// FetchCondBranch implements core.Extension: if the branch has an active
// prediction queue with a filled slot, the DCE's outcome overrides the
// baseline prediction.
func (s *System) FetchCondBranch(now uint64, d *core.DynUop, basePred bool) (bool, bool) {
	q := s.pqs.For(d.U.PC)
	if q == nil {
		return basePred, false
	}
	q.lastUse = now
	if !q.active || q.fetch >= q.alloc {
		// No chain has allocated a slot for this prediction: the
		// "inactive" category of Figure 12. On an active queue this also
		// means the engine has fallen behind fetch: any slot it allocates
		// from here on belongs to a branch instance fetch has already
		// passed, so runahead must exit for this branch until the next
		// synchronization realigns it ("the size of each prediction queue
		// also limits how far ahead (or behind) the DCE can be", §4.2).
		ref := s.newSlotRef()
		ref.q, ref.gen, ref.cat = q, q.gen, catInactive
		d.ExtData = ref
		if q.active {
			s.dce.DeactivateFamily(now, d.U.PC)
		}
		if s.tr.Enabled() {
			s.tr.Emit(trace.Event{
				Cycle: now, PC: d.U.PC, Seq: d.Seq, Kind: trace.KindPQConsume,
				Val: trace.CatInactive,
			})
		}
		return basePred, false
	}
	idx := q.fetch
	q.fetch++
	slot := q.slot(idx)
	ref := s.newSlotRef()
	ref.q, ref.idx, ref.gen = q, idx, q.gen
	d.ExtData = ref
	pred, fromDCE := basePred, false
	switch {
	case !slot.filled:
		// Consumed before the DCE finished computing it: "late". The slot
		// stays consumable again after a recovery, by which time it may
		// have been filled.
		slot.consumed = true
		ref.cat = catLate
	case s.cfg.Throttle && q.throttle < 0:
		ref.cat = catThrottled
	default:
		ref.used = true
		ref.cat = catUsed
		pred, fromDCE = slot.value, true
	}
	if s.tr.Enabled() {
		s.tr.Emit(trace.Event{
			Cycle: now, PC: d.U.PC, Seq: d.Seq, Kind: trace.KindPQConsume,
			Arg: idx, Val: traceCat(ref.cat), Flag: ref.used,
		})
	}
	return pred, fromDCE
}

// Checkpoint implements core.Extension.
func (s *System) Checkpoint() interface{} { return s.pqs.Checkpoint() }

// Restore implements core.Extension.
func (s *System) Restore(now uint64, snap interface{}) {
	if cp, ok := snap.(*pqCheckpoint); ok {
		s.pqs.RestoreAt(now, cp)
	}
}

// ReleaseCheckpoint implements core.Extension: dead fetch-pointer
// checkpoints go back to the PQSet's pool.
func (s *System) ReleaseCheckpoint(snap interface{}) {
	if cp, ok := snap.(*pqCheckpoint); ok {
		s.pqs.Release(cp)
	}
}

// newSlotRef pops a zeroed slot reference from the free pool, refilling
// from an amortized slab when the pool is empty.
func (s *System) newSlotRef() *slotRef {
	if last := len(s.refPool) - 1; last >= 0 {
		ref := s.refPool[last]
		s.refPool[last] = nil
		s.refPool = s.refPool[:last]
		*ref = slotRef{}
		return ref
	}
	if len(s.refSlab) == 0 {
		// Amortized slab refill: one allocation per 64 new references;
		// steady state recycles through the pool instead.
		s.refSlab = make([]slotRef, 64) //brlint:allow hot-path-alloc
	}
	ref := &s.refSlab[0]
	s.refSlab = s.refSlab[1:]
	return ref
}

// ReleaseUopData implements core.Extension: the slot reference attached
// to a conditional branch is recycled once the branch retires or is
// squashed.
func (s *System) ReleaseUopData(data interface{}) {
	if ref, ok := data.(*slotRef); ok {
		// Pool growth is bounded by the in-flight branch count and
		// amortizes to zero.
		s.refPool = append(s.refPool, ref) //brlint:allow hot-path-alloc
	}
}

// -------------------------------------------------------------- resolve --

// BranchResolved implements core.Extension: a correct-path misprediction is
// the synchronization point where matching chains copy their live-ins from
// the core's registers and begin continuous execution.
//
// Not every misprediction tears the runahead state down. If fetch consumed
// a slot that the DCE had not yet filled (a "late" prediction mispredicted
// by the fallback TAGE), the recovery restores the fetch pointer and the
// refetched branch will consume the same slot — by then filled ("the
// already consumed slot will be filled in case there is a recovery",
// §4.2). Synchronization is needed only when the DCE was absent for this
// branch (inactive) or demonstrably wrong (divergence).
func (s *System) BranchResolved(now uint64, d *core.DynUop, correctRegs *emu.RegFile) {
	if correctRegs == nil {
		return
	}
	if ref, ok := d.ExtData.(*slotRef); ok && ref.q.gen == ref.gen && ref.q.active {
		switch ref.cat {
		case catLate, catThrottled:
			slot := ref.q.slot(ref.idx)
			if !slot.filled {
				// The DCE is merely behind; recovery re-aligns fetch with
				// the queue. Keep running ahead.
				s.ctr.syncSkippedLate.Inc()
				return
			}
			if slot.value == d.Res.Taken {
				// The DCE had the right answer (consumed late or
				// throttled); the queue stays aligned. Keep running ahead.
				s.ctr.syncSkippedFilled.Inc()
				return
			}
			// The DCE's value was wrong too: divergence.
			s.dce.DeactivateFamily(now, d.U.PC)
		case catUsed:
			// A used DCE prediction mispredicted: divergence. Account it
			// and train the throttle now — the resynchronization below
			// bumps the queue generation, which would silence the
			// retire-time bookkeeping for exactly these events.
			ref.counted = true
			s.ctr.predIncorrect.Inc()
			if s.tr.Enabled() {
				s.tr.Emit(trace.Event{
					Cycle: now, PC: d.U.PC, Seq: d.Seq, Kind: trace.KindPQAccount,
					Val: trace.CatUsed, Flag: false,
				})
			}
			if d.TagePred == d.Res.Taken && ref.q.throttle > -2 {
				ref.q.throttle--
			}
			s.dce.DeactivateFamily(now, d.U.PC)
		}
	}
	if s.tr.Enabled() {
		s.tr.Emit(trace.Event{
			Cycle: now, PC: d.U.PC, Seq: d.Seq, Kind: trace.KindSync, Flag: d.Res.Taken,
		})
	}
	s.dce.Sync(now, d.U.PC, d.Res.Taken, correctRegs)
}

// Flush implements core.Extension: the squashed wrong-path micro-ops feed
// the merge point predictor's Wrong Path Buffer.
func (s *System) Flush(now uint64, cause *core.DynUop, squashed []*core.DynUop) {
	if s.cfg.UseAffectorGuard {
		s.mp.OnFlush(cause, squashed)
		s.mpLayout.OnFlush(cause, squashed)
	}
}

// --------------------------------------------------------------- retire --

// Retired implements core.Extension.
func (s *System) Retired(now uint64, d *core.DynUop) {
	if s.cfg.UseAffectorGuard {
		s.mp.OnRetire(d)
		s.mpLayout.OnRetire(d)
	}
	s.ceb.Push(d.U, d.Res.Taken, d.Res.MemAddr)
	if !d.IsCondBr {
		return
	}

	pc := d.U.PC
	actual := d.Res.Taken
	if removed := s.hbt.OnRetireBranch(pc, actual, d.PredTaken != actual); removed > 0 && s.tr.Enabled() {
		s.tr.Emit(trace.Event{
			Cycle: now, PC: pc, Kind: trace.KindHBTBias, Arg: uint64(removed),
		})
	}

	// Prediction-queue retire-side bookkeeping.
	if ref, ok := d.ExtData.(*slotRef); ok && !ref.counted && ref.q.gen == ref.gen {
		s.accountPrediction(now, ref, actual, d)
	}

	// Chain extraction trigger (paper §4.3). Extraction takes place one
	// chain at a time; a walk in progress blocks new ones.
	if now >= s.extractBusyUntil && s.hbt.ShouldExtract(pc) {
		s.extractBusyUntil = now + uint64(s.ceb.Len())/4 + 1
		s.extract(now, pc)
	}
}

func (s *System) accountPrediction(now uint64, ref *slotRef, actual bool, d *core.DynUop) {
	q := ref.q
	correct := d.PredTaken == actual
	if s.tr.Enabled() {
		s.tr.Emit(trace.Event{
			Cycle: now, PC: d.U.PC, Seq: d.Seq, Kind: trace.KindPQAccount,
			Val: traceCat(ref.cat), Flag: correct && ref.cat == catUsed,
		})
	}
	switch ref.cat {
	case catInactive:
		s.ctr.predInactive.Inc()
		return
	case catLate:
		s.ctr.predLate.Inc()
	case catThrottled:
		s.ctr.predThrottled.Inc()
	case catUsed:
		if correct {
			s.ctr.predCorrect.Inc()
		} else {
			s.ctr.predIncorrect.Inc()
		}
	}
	// Advance the retire pointer past this slot.
	if q.retire <= ref.idx {
		q.retire = ref.idx + 1
	}
	slot := q.slot(ref.idx)
	if !slot.filled {
		return
	}
	dceDir := slot.value
	// Throttle training: DCE vs TAGE (paper §4.2).
	if dceDir == actual && d.TagePred != actual {
		if q.throttle < 1 {
			q.throttle++
		}
	} else if dceDir != actual && d.TagePred == actual {
		if q.throttle > -2 {
			q.throttle--
		}
	}
	// Divergence detection: a wrong DCE outcome deactivates the chains
	// until the next synchronization (paper §4.1).
	if dceDir != actual {
		s.dce.DeactivateFamily(now, q.branchPC)
	}
}

// extract runs chain extraction for the hard branch whose newest instance
// just retired (it is the newest CEB entry).
func (s *System) extract(now uint64, pc uint64) {
	var agSet []uint64
	if s.cfg.UseAffectorGuard {
		agSet = s.hbt.AGSet(pc)
	}
	ch, err := s.ext.extract(s.ceb, &s.cfg, agSet)
	if err != nil {
		s.ctr.extractFailed.Inc()
		if s.tr.Enabled() {
			s.tr.Emit(trace.Event{Cycle: now, PC: pc, Kind: trace.KindExtract})
		}
		return
	}
	if ch.BranchPC != pc {
		s.ctr.extractFailed.Inc()
		if s.tr.Enabled() {
			s.tr.Emit(trace.Event{Cycle: now, PC: pc, Kind: trace.KindExtract})
		}
		return
	}
	installed := s.cc.Install(ch)
	if installed {
		s.chainCount++
		s.chainLenSum += uint64(len(ch.Uops))
		if ch.HasAGTrigger() {
			s.chainAGTagged++
		}
	}
	if s.tr.Enabled() {
		s.tr.Emit(trace.Event{
			Cycle: now, PC: pc, Kind: trace.KindExtract,
			Arg: uint64(len(ch.Uops)), Flag: installed,
		})
	}
}

// ----------------------------------------------------------------- tick --

// Tick implements core.Extension: the DCE executes one cycle.
func (s *System) Tick(now uint64, info core.TickInfo) {
	s.dce.Tick(now, info.SpareIssueSlots, info.SpareRS)
}

// Idle implements core.Extension: it reports that a Tick would be a pure
// no-op, letting the core's dead-cycle skip fast-forward past the system.
func (s *System) Idle() bool { return s.dce.Idle() }

// PredictionBreakdown returns Figure 12's categories for this run.
func (s *System) PredictionBreakdown() map[string]uint64 {
	return map[string]uint64{
		"inactive":  s.ctr.predInactive.Get(),
		"late":      s.ctr.predLate.Get(),
		"throttled": s.ctr.predThrottled.Get(),
		"correct":   s.ctr.predCorrect.Get(),
		"incorrect": s.ctr.predIncorrect.Get(),
	}
}

var _ core.Extension = (*System)(nil)
