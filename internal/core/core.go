package core

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/trace"
)

// BranchStat accumulates per-static-branch outcomes, the raw material of
// the paper's Figure 1 (misprediction rate of the hardest branches).
type BranchStat struct {
	PC         uint64
	Execs      uint64
	Mispred    uint64
	Taken      uint64
	DCEUsed    uint64
	DCECorrect uint64
}

// Core is the cycle-level out-of-order processor.
type Core struct {
	// cfg and the wired units below are construction-time configuration,
	// rebuilt by the machine builder before a fork copies state into it.
	cfg Config
	src InstrSource
	fe  *frontend
	bp  bpred.Predictor
	// bpObs is bp's optional retire observer, resolved once at
	// construction so the retire loop avoids a per-uop type assertion.
	bpObs bpred.RetireObserver //brlint:allow snapshot-coverage
	hier  Hierarchy
	ext   Extension //brlint:allow snapshot-coverage

	now uint64
	seq uint64

	fetchQ []*DynUop
	rob    []*DynUop
	// rsCount is the reservation stations' occupancy: micro-ops dispatched
	// and not yet issued (StInRS).
	rsCount int
	// ready holds the RS entries whose producers have all delivered
	// (waiting == 0, wakeAt <= now), oldest first; issue selects from it.
	// timed holds those whose producers have all issued but whose data
	// arrives later (waiting == 0, wakeAt > now), unordered. nextWake is at
	// most the earliest wakeAt on timed. Both have capacity RSSize.
	ready    []*DynUop
	timed    []*DynUop
	nextWake uint64
	// issued holds the executing micro-ops (StIssued), in issue order;
	// complete takes them out as their results arrive. nextDone is at most
	// the earliest DoneAt on it.
	issued   []*DynUop
	nextDone uint64

	lastWriter [isa.NumRegs]*DynUop
	lsqCount   int

	// mispFetchedUnresolved counts in-flight branches whose predicted
	// direction contradicts their fetch-time functional outcome; fetch is
	// on the wrong path whenever it is positive.
	mispFetchedUnresolved int

	fetchStallUntil uint64
	lineReadyAt     uint64
	curFetchLine    uint64
	haltRetired     bool

	// fetchDisabled suspends fetch while Drain empties the pipeline ahead
	// of a warmup fork; a warm core is taken after a drain has reset it,
	// so CopyFrom never needs it.
	fetchDisabled bool //brlint:allow snapshot-coverage

	// Tracer wiring is re-attached by the machine builder, not CopyFrom.
	tr *trace.Tracer //brlint:allow snapshot-coverage

	// Stats.
	Ctr      CoreCounters
	Branches map[uint64]*BranchStat

	// dec is the decode cache: per-static-uop register lists, latency and
	// the branch bit, precomputed at construction and read-only afterwards.
	dec []decInfo //brlint:allow snapshot-coverage
	// robBuf/fetchQBuf are the fixed backing arrays of the front-popping
	// rob and fetchQ windows; pure storage, rebuilt by the constructor.
	robBuf    []*DynUop //brlint:allow snapshot-coverage
	fetchQBuf []*DynUop //brlint:allow snapshot-coverage
	// doneBuf/squashBuf/syncRegs are per-event scratch, dead between uses.
	// syncRegs carries the corrected registers to BranchResolved without a
	// heap copy per recovery.
	doneBuf   []*DynUop   //brlint:allow snapshot-coverage
	squashBuf []*DynUop   //brlint:allow snapshot-coverage
	syncRegs  emu.RegFile //brlint:allow snapshot-coverage
	// bsSlab is the BranchStat bump allocator: fresh zeroed chunks handed
	// out by reslice, never recycled (entries live in Branches, which
	// CopyFrom copies).
	bsSlab []BranchStat //brlint:allow snapshot-coverage
}

// decInfo caches one static micro-op's decoded scheduling facts so the
// per-cycle loops (rename, recovery, execute, fetch steering) never
// re-derive them from the isa encoding.
type decInfo struct {
	srcs     [3]isa.Reg
	dsts     [2]isa.Reg
	nsrc     uint8
	ndst     uint8
	isCondBr bool
	lat      uint64
}

func buildDecode(cfg *Config, src InstrSource) []decInfo {
	dec := make([]decInfo, src.NumUops())
	var srcBuf [4]isa.Reg
	for pc := range dec {
		u := src.UopAt(uint64(pc))
		de := &dec[pc]
		de.nsrc = uint8(copy(de.srcs[:], srcBuf[:u.SrcRegN(&srcBuf)]))
		de.ndst = uint8(u.DstRegN(&de.dsts))
		de.isCondBr = u.Op.IsCondBranch()
		de.lat = opLatency(cfg, u.Op)
	}
	return dec
}

// pushQueue appends d to a front-popping queue backed by buf. Pops slide
// the slice base forward, so a full-looking window may just be sitting at
// the end of its backing array: compact it back to the base instead of
// letting append allocate. buf is twice the architectural occupancy bound,
// so compaction runs at most once per bound pushes — amortized O(1).
func pushQueue[T any](buf, q []T, v T) []T {
	if len(q) == cap(q) {
		q = buf[:copy(buf, q)]
	}
	q = q[:len(q)+1]
	q[len(q)-1] = v
	return q
}

// CoreCounters counts the core's per-cycle events.
type CoreCounters struct {
	Cycles, Retired, RetiredCondBranches, Mispredicts stats.Counter
	DCEPredictionsUsed, Recoveries, Flushes           stats.Counter
	Issued, IssuedLoads, StoreForwards                stats.Counter
	DispatchStallBackend, DispatchStallLSQ            stats.Counter
	FetchStallICache, Fetched, FetchedWrongPath       stats.Counter
}

// New wires a core over a program executed functionally at fetch time (the
// execution-driven front-end). It is shorthand for NewWithSource over
// emu.NewSource(p).
func New(cfg Config, p *program.Program, bp bpred.Predictor, hier Hierarchy, ext Extension) *Core {
	if err := cfg.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	return NewWithSource(cfg, emu.NewSource(p), bp, hier, ext)
}

// NewWithSource wires a core over any instruction source — the seam that
// lets the same machine run execution-driven (emu.Source) or trace-driven
// (btrace.Source) — plus a branch predictor, a memory hierarchy and an
// optional extension.
func NewWithSource(cfg Config, src InstrSource, bp bpred.Predictor, hier Hierarchy, ext Extension) *Core {
	if err := cfg.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	c := &Core{
		cfg:      cfg,
		src:      src,
		fe:       newFrontend(src, cfg.FetchQSize+cfg.ROBSize),
		bp:       bp,
		hier:     hier,
		ext:      ext,
		Branches: make(map[uint64]*BranchStat),
	}
	if obs, ok := bp.(bpred.RetireObserver); ok {
		c.bpObs = obs
	}
	c.curFetchLine = ^uint64(0)
	c.dec = buildDecode(&cfg, src)
	c.robBuf = make([]*DynUop, 2*cfg.ROBSize)
	c.fetchQBuf = make([]*DynUop, 2*cfg.FetchQSize)
	c.rob = c.robBuf[:0]
	c.fetchQ = c.fetchQBuf[:0]
	c.ready = make([]*DynUop, 0, cfg.RSSize)
	c.timed = make([]*DynUop, 0, cfg.RSSize)
	c.issued = make([]*DynUop, 0, cfg.ROBSize)
	c.doneBuf = make([]*DynUop, 0, cfg.ROBSize)
	c.squashBuf = make([]*DynUop, cfg.ROBSize)
	return c
}

// Memory exposes the committed architectural memory (the DCE reads it).
func (c *Core) Memory() *emu.Memory { return c.fe.mem }

// SetExtension attaches an extension after construction (the Branch
// Runahead system needs the core's committed memory, which exists only
// once the core does). Must be called before the first cycle, or at a
// drained barrier (empty pipeline, no in-flight extension state) — the
// warmup-fork path attaches the runahead system at the warmup/measure
// boundary that way.
func (c *Core) SetExtension(ext Extension) { c.ext = ext }

// Now returns the current cycle.
func (c *Core) Now() uint64 { return c.now }

// Halted reports whether the program's halt instruction has retired.
func (c *Core) Halted() bool { return c.haltRetired }

// Run executes until maxRetired micro-ops have retired, the program halts,
// the instruction source fails, or a safety cycle bound trips. It returns
// the retired count.
func (c *Core) Run(maxRetired uint64) (uint64, error) {
	cycleCap := c.now + maxRetired*200 + 1_000_000
	for c.Ctr.Retired.Get() < maxRetired && !c.haltRetired {
		if err := c.fe.srcErr; err != nil {
			return c.Ctr.Retired.Get(), fmt.Errorf("core: instruction source failed at cycle %d, retired %d: %w",
				c.now, c.Ctr.Retired.Get(), err)
		}
		if c.now > cycleCap {
			return c.Ctr.Retired.Get(), fmt.Errorf("core: cycle cap exceeded (deadlock?) at cycle %d, retired %d",
				c.now, c.Ctr.Retired.Get())
		}
		c.skipDeadCycles()
		c.Cycle()
	}
	return c.Ctr.Retired.Get(), nil
}

// skipDeadCycles fast-forwards through cycles that provably do nothing:
// the pipeline is empty, the extension is idle (its Tick is a no-op), and
// fetch is stalled until a known future cycle — the redirect penalty after
// a recovery, or an in-flight instruction-line fill. Each skipped cycle
// would only have advanced the clock and, when the icache fill is the
// binding stall, bumped the fetch-stall counter; the skip applies exactly
// those effects, so it is result-invariant (pinned by the skip-equivalence
// test, which steps Cycle without it).
func (c *Core) skipDeadCycles() {
	if len(c.rob) != 0 || c.rsCount != 0 || len(c.fetchQ) != 0 || c.fetchDisabled {
		return
	}
	if c.ext != nil && !c.ext.Idle() {
		return
	}
	if c.now < c.fetchStallUntil {
		// Redirect bubble: fetch returns before touching the icache, so the
		// skipped cycles increment nothing but the clock.
		delta := c.fetchStallUntil - c.now
		c.now += delta
		c.Ctr.Cycles.Add(delta)
		return
	}
	if c.fe.invalid || c.fe.halted {
		return
	}
	// Fetch is waiting on the current instruction line's fill; until
	// lineReadyAt each cycle counts one icache fetch stall. A PC on a new
	// line is not skippable — its icache access must issue at its own cycle.
	line := (c.fe.pc * c.cfg.UopBytes) / uint64(c.hier.ICache.LineBytes())
	if line == c.curFetchLine && c.lineReadyAt > c.now {
		delta := c.lineReadyAt - c.now
		c.now += delta
		c.Ctr.Cycles.Add(delta)
		c.Ctr.FetchStallICache.Add(delta)
	}
}

// Drain suspends fetch and cycles the machine until every in-flight
// micro-op has retired or been squashed: the barrier ahead of a warmup
// fork (CopyFrom).
// After a successful drain the ROB, reservation stations, fetch queue,
// issued list, LSQ, store overlay and wrong-path tracker are all empty,
// every DynUop is back in the pool, the rename table is clear, and so is
// the wakeup state: the ready and timed lists are empty and no micro-op
// heads a consumer list. Fetch resumes on the next Cycle.
func (c *Core) Drain() error {
	c.fetchDisabled = true
	defer func() { c.fetchDisabled = false }()
	cycleCap := c.now + 1_000_000
	for len(c.rob) > 0 || len(c.fetchQ) > 0 || c.rsCount > 0 {
		if c.now > cycleCap {
			return fmt.Errorf("core: drain did not converge by cycle %d (deadlock?)", c.now)
		}
		c.Cycle()
	}
	if c.lsqCount != 0 || c.mispFetchedUnresolved != 0 || len(c.fe.stores) != 0 ||
		len(c.issued) != 0 || !c.fe.poolFull() || c.lastWriter != [isa.NumRegs]*DynUop{} {
		return fmt.Errorf("core: drained pipeline left residue (lsq=%d wrongPath=%d stores=%d issued=%d pooled=%d/%d)",
			c.lsqCount, c.mispFetchedUnresolved, len(c.fe.stores), len(c.issued), len(c.fe.free), len(c.fe.uops))
	}
	lists := 0
	for i := range c.fe.uops {
		if c.fe.uops[i].consumers != 0 {
			lists++
		}
	}
	if len(c.ready) != 0 || len(c.timed) != 0 || lists != 0 {
		return fmt.Errorf("core: drained pipeline left wakeup residue (ready=%d timed=%d consumer lists=%d)",
			len(c.ready), len(c.timed), lists)
	}
	return nil
}

// CopyFrom copies the state of w, a drained core, into c, a core built with
// w's configuration, program and wiring: the clock, sequence numbers,
// fetch-steering state, front-end registers and PC, per-branch statistics,
// counters and the source's stream position. c's pipeline is left empty, as
// w's is. The committed memory, the predictor and the hierarchy are copied
// by their own CopyFrom. w is only read, so several forks may copy from one
// warm core at once. CopyFrom panics if w's pipeline is live.
func (c *Core) CopyFrom(w *Core) {
	if len(w.rob) != 0 || len(w.fetchQ) != 0 || w.rsCount != 0 {
		panic("core: CopyFrom requires a drained pipeline")
	}
	c.now = w.now
	c.seq = w.seq
	c.fetchStallUntil = w.fetchStallUntil
	c.lineReadyAt = w.lineReadyAt
	c.curFetchLine = w.curFetchLine
	c.haltRetired = w.haltRetired
	c.fe.regs = w.fe.regs
	c.fe.pc = w.fe.pc
	c.fe.invalid = w.fe.invalid
	c.fe.halted = w.fe.halted
	c.fe.srcErr = nil
	c.fe.stores = c.fe.stores[:0]
	c.fetchQ = c.fetchQ[:0]
	c.rob = c.rob[:0]
	c.rsCount = 0
	c.ready = c.ready[:0]
	c.timed = c.timed[:0]
	c.nextWake = 0
	c.issued = c.issued[:0]
	c.nextDone = 0
	c.fe.refillPool()
	c.lastWriter = [isa.NumRegs]*DynUop{}
	c.lsqCount = 0
	c.mispFetchedUnresolved = 0
	branches := make([]BranchStat, len(w.Branches))
	c.Branches = make(map[uint64]*BranchStat, len(w.Branches))
	i := 0
	// Keyed map construction is insensitive to iteration order.
	for pc, bs := range w.Branches { //brlint:allow determinism
		branches[i] = *bs
		c.Branches[pc] = &branches[i]
		i++
	}
	c.Ctr = w.Ctr
	c.src.SetPos(w.src.Pos())
}

// Cycle advances the machine one clock. This is the simulator's innermost
// loop: everything reachable from here is statically barred from allocating
// by brlint's hot-path-alloc rule.
//
//brlint:hotpath
func (c *Core) Cycle() {
	c.retire()
	c.complete()
	issued := c.issue()
	c.dispatch()
	c.fetch()
	if c.ext != nil {
		c.ext.Tick(c.now, TickInfo{
			SpareIssueSlots: c.cfg.IssueWidth - issued,
			SpareRS:         c.cfg.RSSize - c.rsCount,
		})
	}
	c.now++
	c.Ctr.Cycles.Inc()
}

// ---------------------------------------------------------------- retire --

//brlint:hotpath
func (c *Core) retire() {
	for n := 0; n < c.cfg.RetireWidth && len(c.rob) > 0; n++ {
		d := c.rob[0]
		if !d.Done(c.now) {
			return
		}
		c.rob = c.rob[1:]
		d.State = StRetired
		c.traceUop(trace.StageRetire, d)
		c.Ctr.Retired.Inc()
		if c.bpObs != nil {
			c.bpObs.ObserveRetire(d.U.PC, d.Res.Value)
		}
		if d.U.Op.IsMem() {
			c.lsqCount--
		}
		if d.IsStore() {
			c.fe.retireStore(d)
			// Commit the store's data into the cache hierarchy.
			c.hier.DCache.Access(c.now, d.Res.MemAddr, true)
		}
		if d.IsCondBr {
			c.retireBranch(d)
		}
		if c.ext != nil {
			c.ext.Retired(c.now, d)
		}
		if d.IsCondBr {
			c.releaseSnaps(d)
		}
		// d's result now lives in architectural state: drop it from the
		// rename table and recycle it. Younger micro-ops that still point
		// at it see a Seq mismatch once it is handed out again.
		de := &c.dec[d.U.PC]
		for _, r := range de.dsts[:de.ndst] {
			if c.lastWriter[r] == d {
				c.lastWriter[r] = nil
			}
		}
		halt := d.U.Op == isa.OpHalt
		c.fe.releaseDynUop(d)
		if halt {
			c.haltRetired = true
			return
		}
	}
}

func (c *Core) retireBranch(d *DynUop) {
	c.Ctr.RetiredCondBranches.Inc()
	bs := c.Branches[d.U.PC]
	if bs == nil {
		if len(c.bsSlab) == 0 {
			// Amortized slab refill: one allocation per 64 new static
			// branches instead of one per branch.
			c.bsSlab = make([]BranchStat, 64) //brlint:allow hot-path-alloc
		}
		bs = &c.bsSlab[0]
		c.bsSlab = c.bsSlab[1:]
		bs.PC = d.U.PC
		c.Branches[d.U.PC] = bs
	}
	bs.Execs++
	if d.Res.Taken {
		bs.Taken++
	}
	if d.PredTaken != d.Res.Taken {
		c.Ctr.Mispredicts.Inc()
		bs.Mispred++
	}
	if c.tr.Enabled() {
		c.tr.Emit(trace.Event{
			Cycle: c.now, PC: d.U.PC, Seq: d.Seq, Kind: trace.KindBranchRetire,
			Flag: d.Res.Taken, Arg: trace.Bit(d.PredTaken != d.Res.Taken),
		})
	}
	if d.UsedDCE {
		bs.DCEUsed++
		c.Ctr.DCEPredictionsUsed.Inc()
		if d.PredTaken == d.Res.Taken {
			bs.DCECorrect++
		}
	}
	c.bp.Commit(d.U.PC, d.Res.Taken, d.TagePred, d.PredInfo)
}

// -------------------------------------------------------------- complete --

func (c *Core) complete() {
	if c.now < c.nextDone {
		return
	}
	// Take the micro-ops whose execution finishes by now out of the issued
	// list, which is in issue order, not program order.
	done, nd := c.doneBuf[:0], 0
	live, nl := c.issued[:0], 0
	next := ^uint64(0)
	for _, d := range c.issued {
		if d.DoneAt <= c.now {
			done = done[:nd+1]
			done[nd] = d
			nd++
		} else {
			live = live[:nl+1]
			live[nl] = d
			nl++
			next = min(next, d.DoneAt)
		}
	}
	c.issued = live
	c.nextDone = next
	// Insertion-sort the few finished ones into program (Seq) order, so
	// completion traces and branch recoveries happen oldest first.
	for i := 1; i < nd; i++ {
		for j := i; j > 0 && done[j].Seq < done[j-1].Seq; j-- {
			done[j], done[j-1] = done[j-1], done[j]
		}
	}
	for _, d := range done {
		d.State = StDone
		c.traceUop(trace.StageComplete, d)
	}
	for _, d := range done {
		// An older branch's recovery earlier in this loop may have
		// squashed d; its DynUop is pooled but not handed out again before
		// fetch, so the state still reads StSquashed.
		if d.IsCondBr && d.State != StSquashed {
			c.resolveBranch(d)
		}
	}
}

// releaseSnaps returns d's predictor and extension checkpoints to their
// free lists, exactly once (fields are nilled so a later squash of an
// already-released branch is harmless). Called when d can no longer be
// recovered to: at retire or when d itself is squashed.
func (c *Core) releaseSnaps(d *DynUop) {
	if d.bpSnap != nil {
		c.bp.Release(d.bpSnap)
		d.bpSnap = nil
	}
	if d.PredInfo != nil {
		c.bp.ReleaseInfo(d.PredInfo)
		d.PredInfo = nil
	}
	if d.extSnap != nil {
		if c.ext != nil {
			c.ext.ReleaseCheckpoint(d.extSnap)
		}
		d.extSnap = nil
	}
	if d.ExtData != nil {
		if c.ext != nil {
			c.ext.ReleaseUopData(d.ExtData)
		}
		d.ExtData = nil
	}
}

// releaseWP removes d from the wrong-path tracker, exactly once.
func (c *Core) releaseWP(d *DynUop) {
	if d.wpCounted {
		d.wpCounted = false
		c.mispFetchedUnresolved--
	}
}

func (c *Core) resolveBranch(d *DynUop) {
	mispred := d.PredTaken != d.Res.Taken
	d.Mispred = mispred
	if c.tr.Enabled() {
		c.tr.Emit(trace.Event{
			Cycle: c.now, PC: d.U.PC, Seq: d.Seq, Kind: trace.KindBranchResolve,
			Flag: d.Res.Taken, Arg: trace.Bit(mispred),
		})
	}
	// This branch no longer steers fetch down a wrong path.
	c.releaseWP(d)
	var correctRegs *emu.RegFile
	if mispred {
		c.recoverAt(d)
		if !d.WrongPath {
			c.syncRegs = c.fe.regs
			correctRegs = &c.syncRegs
			c.Ctr.Recoveries.Inc()
		}
	}
	if c.ext != nil {
		c.ext.BranchResolved(c.now, d, correctRegs)
	}
}

// recoverAt flushes everything younger than d and redirects fetch down d's
// resolved direction.
func (c *Core) recoverAt(d *DynUop) {
	// Squash younger ROB entries, preserving program order for the
	// extension's ROB walk (Wrong Path Buffer fill).
	cut := len(c.rob)
	for i, e := range c.rob {
		if e.Seq > d.Seq {
			cut = i
			break
		}
	}
	squashed := c.squashBuf[:copy(c.squashBuf, c.rob[cut:])]
	c.rob = c.rob[:cut]
	if c.ext != nil {
		// The forward ROB walk that fills the Wrong Path Buffer: squashed
		// micro-ops in program order, starting just after the branch.
		c.ext.Flush(c.now, d, squashed)
	}
	c.traceUop(trace.StageFlush, d)
	// Take squashed reservation-station entries off their producers'
	// consumer lists, youngest first. Lists are youngest first and the
	// squashed micro-ops are the youngest in flight, so each link is at
	// its list's head when its turn comes.
	for i := len(squashed) - 1; i >= 0; i-- {
		if e := squashed[i]; e.State == StInRS {
			c.rsCount--
			c.unlink(e)
		}
	}
	// Squashed micro-ops go back to the pool. Each keeps its Seq, links and
	// StSquashed state until it is handed out again at fetch.
	for _, e := range squashed {
		if e.U.Op.IsMem() {
			c.lsqCount--
		}
		c.releaseWP(e)
		c.releaseSnaps(e)
		e.State = StSquashed
		c.traceUop(trace.StageSquash, e)
		c.fe.releaseDynUop(e)
	}
	// Squash the entire fetch queue (it is younger than any ROB entry).
	for _, e := range c.fetchQ {
		c.releaseWP(e)
		c.releaseSnaps(e)
		e.State = StSquashed
		c.fe.releaseDynUop(e)
	}
	c.fetchQ = c.fetchQ[:0]
	// Drop squashed entries from the wakeup and issued lists (in place,
	// order kept).
	c.ready = dropSquashed(c.ready)
	c.timed = dropSquashed(c.timed)
	c.issued = dropSquashed(c.issued)
	// Rebuild the register rename table from the surviving ROB.
	c.lastWriter = [isa.NumRegs]*DynUop{}
	for _, e := range c.rob {
		de := &c.dec[e.U.PC]
		for _, r := range de.dsts[:de.ndst] {
			c.lastWriter[r] = e
		}
	}
	// Restore front-end, predictor history and extension fetch state, then
	// redirect fetch down the resolved direction.
	target := d.Res.FallThrou
	if d.Res.Taken {
		target = d.Res.Target
	}
	c.fe.recover(d.feSnap, target, d.Seq)
	c.bp.Restore(d.bpSnap)
	c.bp.OnFetch(d.U.PC, d.Res.Taken)
	if c.ext != nil {
		c.ext.Restore(c.now, d.extSnap)
	}
	c.fetchStallUntil = c.now + c.cfg.RedirectPenalty
	c.curFetchLine = ^uint64(0)
	c.Ctr.Flushes.Inc()
	if c.tr.Enabled() {
		c.tr.Emit(trace.Event{Cycle: c.now, PC: d.U.PC, Seq: d.Seq, Kind: trace.KindRecovery})
	}
}

// unlink takes squashed reservation-station entry e off its producers'
// consumer lists, slots in the reverse of rename's link order, so that
// each link is at its list's head even when two slots share a producer.
func (c *Core) unlink(e *DynUop) {
	for k := linkStore; k >= 0; k-- {
		if e.linked&(1<<k) == 0 {
			continue
		}
		p := e.producer(k)
		if p.consumers != linkOf(e, k) {
			panic("core: squashed consumer is not at the head of its producer's list")
		}
		p.consumers = e.next[k]
	}
	e.linked = 0
}

// dropSquashed filters squashed micro-ops out of q in place, keeping order.
func dropSquashed(q []*DynUop) []*DynUop {
	live, nl := q[:0], 0
	for _, e := range q {
		if e.State != StSquashed {
			live = live[:nl+1]
			live[nl] = e
			nl++
		}
	}
	return live
}

// ----------------------------------------------------------------- issue --

func opLatency(cfg *Config, op isa.Op) uint64 {
	switch op {
	case isa.OpMul:
		return cfg.MulLatency
	case isa.OpDiv:
		return cfg.DivLatency
	case isa.OpFAdd, isa.OpFMul:
		return cfg.FPLatency
	default:
		return 1
	}
}

// issue selects up to IssueWidth micro-ops from the ready list, oldest
// first, within the ALU and memory-port limits.
func (c *Core) issue() int {
	if c.now >= c.nextWake {
		c.wakeTimed()
	}
	issued, aluUsed, memUsed, keep := 0, 0, 0, 0
	for i, d := range c.ready {
		if issued >= c.cfg.IssueWidth {
			keep += copy(c.ready[keep:], c.ready[i:])
			break
		}
		if d.U.Op.IsMem() {
			if memUsed >= c.cfg.MemPorts {
				c.ready[keep] = d
				keep++
				continue
			}
			memUsed++
		} else {
			if aluUsed >= c.cfg.IntALUs {
				c.ready[keep] = d
				keep++
				continue
			}
			aluUsed++
		}
		c.execute(d)
		issued++
	}
	c.ready = c.ready[:keep]
	c.rsCount -= issued
	return issued
}

// wakeTimed moves the timed entries whose data has arrived onto the ready
// list at their Seq positions, and recomputes nextWake from the rest.
func (c *Core) wakeTimed() {
	next, keep := ^uint64(0), 0
	for _, d := range c.timed {
		if d.wakeAt > c.now {
			c.timed[keep] = d
			keep++
			next = min(next, d.wakeAt)
			continue
		}
		n := len(c.ready)
		c.ready = c.ready[:n+1]
		for ; n > 0 && c.ready[n-1].Seq > d.Seq; n-- {
			c.ready[n] = c.ready[n-1]
		}
		c.ready[n] = d
	}
	c.timed = c.timed[:keep]
	c.nextWake = next
}

// arm queues d, whose producers have all issued, on the timed list.
func (c *Core) arm(d *DynUop) {
	c.timed = c.timed[:len(c.timed)+1]
	c.timed[len(c.timed)-1] = d
	c.nextWake = min(c.nextWake, d.wakeAt)
}

func (c *Core) execute(d *DynUop) {
	d.State = StIssued
	c.issued = c.issued[:len(c.issued)+1]
	c.issued[len(c.issued)-1] = d
	c.traceUop(trace.StageIssue, d)
	c.Ctr.Issued.Inc()
	// Every DoneAt set below is at least now+1: ALU latencies and the
	// D-cache hit latency are at least 1, and stores and forwarded loads
	// take 1. complete marks d StDone at the start of cycle DoneAt, before
	// that cycle's issue, so d's result is visible to issue exactly at
	// DoneAt, and that is the wakeAt its consumers take.
	switch {
	case d.IsLoad():
		c.Ctr.IssuedLoads.Inc()
		if d.storeDep != nil {
			// Store-to-load forwarding from the in-flight producer.
			d.DoneAt = c.now + 1
			c.Ctr.StoreForwards.Inc()
		} else {
			start := c.now
			if c.hier.DTLB != nil {
				start = c.hier.DTLB.Translate(c.now, d.Res.MemAddr)
			}
			d.DoneAt = c.hier.DCache.Access(start, d.Res.MemAddr, false)
		}
	case d.IsStore():
		// Address generation; data commits at retire.
		d.DoneAt = c.now + 1
	default:
		d.DoneAt = c.now + c.dec[d.U.PC].lat
	}
	c.nextDone = min(c.nextDone, d.DoneAt)
	// Wake the consumers: d's result time is now known. DoneAt > now, so
	// a consumer whose last producer this was waits on the timed list.
	for l := d.consumers; l != 0; {
		e, k := c.fe.slotAt(l)
		l = e.next[k]
		e.linked &^= 1 << k
		e.wakeAt = max(e.wakeAt, d.DoneAt)
		if e.waiting--; e.waiting == 0 {
			c.arm(e)
		}
	}
	d.consumers = 0
}

// -------------------------------------------------------------- dispatch --

func (c *Core) dispatch() {
	n := 0
	for n < c.cfg.FetchWidth && len(c.fetchQ) > 0 {
		d := c.fetchQ[0]
		if d.ReadyAt > c.now {
			return
		}
		if len(c.rob) >= c.cfg.ROBSize || c.rsCount >= c.cfg.RSSize {
			c.Ctr.DispatchStallBackend.Inc()
			return
		}
		if d.U.Op.IsMem() && c.lsqCount >= c.cfg.LSQSize {
			c.Ctr.DispatchStallLSQ.Inc()
			return
		}
		c.fetchQ = c.fetchQ[1:]
		c.rename(d)
		c.rob = pushQueue(c.robBuf, c.rob, d)
		c.rsCount++
		d.State = StInRS
		if d.waiting == 0 {
			if d.wakeAt <= c.now {
				// d is the youngest RS entry, so appending keeps Seq order.
				c.ready = c.ready[:len(c.ready)+1]
				c.ready[len(c.ready)-1] = d
			} else {
				c.arm(d)
			}
		}
		c.traceUop(trace.StageDispatch, d)
		if d.U.Op.IsMem() {
			c.lsqCount++
		}
		n++
	}
}

// rename resolves d's register sources to producing micro-ops via the
// decode cache, and makes d wait on them and on the store it forwards from.
func (c *Core) rename(d *DynUop) {
	de := &c.dec[d.U.PC]
	for _, r := range de.srcs[:de.nsrc] {
		// The rename table holds only in-flight micro-ops: retire clears
		// a writer's entries and recovery rebuilds the table from the ROB.
		if w := c.lastWriter[r]; w != nil {
			d.prods[d.nprods] = w
			d.prodSeq[d.nprods] = w.Seq
			c.await(d, int(d.nprods), w)
			d.nprods++
		}
	}
	// The store was in flight at d's fetch; a Seq mismatch means it has
	// since retired, and its result is available.
	if s := d.storeDep; s != nil && s.Seq == d.storeSeq {
		c.await(d, linkStore, s)
	}
	for _, r := range de.dsts[:de.ndst] {
		c.lastWriter[r] = d
	}
}

// await makes d wait on producer p through link slot k: on p's consumer
// list while p is in the reservation stations, else until p's DoneAt.
// Consumers rename in program order, so pushing at the head keeps every
// list youngest first.
func (c *Core) await(d *DynUop, k int, p *DynUop) {
	if p.State == StInRS {
		d.next[k] = p.consumers
		p.consumers = linkOf(d, k)
		d.linked |= 1 << k
		d.waiting++
		return
	}
	d.wakeAt = max(d.wakeAt, p.DoneAt)
}

// ----------------------------------------------------------------- fetch --

//brlint:hotpath
func (c *Core) fetch() {
	if c.fetchDisabled {
		return
	}
	if c.now < c.fetchStallUntil || len(c.fetchQ) >= c.cfg.FetchQSize {
		return
	}
	for n := 0; n < c.cfg.FetchWidth && len(c.fetchQ) < c.cfg.FetchQSize; n++ {
		if c.fe.invalid || c.fe.halted {
			return
		}
		// Instruction cache: one access per new line, plus a next-line
		// prefetch so sequential fetch does not stall on every cold line.
		lineBytes := uint64(c.hier.ICache.LineBytes())
		line := (c.fe.pc * c.cfg.UopBytes) / lineBytes
		if line != c.curFetchLine {
			c.curFetchLine = line
			c.lineReadyAt = c.hier.ICache.Access(c.now, c.fe.pc*c.cfg.UopBytes, false)
			c.hier.ICache.AccessSecondary(c.now, (line+1)*lineBytes)
		}
		if c.lineReadyAt > c.now {
			c.Ctr.FetchStallICache.Inc()
			return
		}

		pc := c.fe.pc
		c.seq++
		wrongPath := c.mispFetchedUnresolved > 0
		var d *DynUop
		if pc < uint64(len(c.dec)) && c.dec[pc].isCondBr {
			d = c.fetchCondBranch(pc)
		} else {
			d = c.fe.fetchUop(c.seq, wrongPath)
		}
		if d == nil {
			return
		}
		d.WrongPath = wrongPath
		d.ReadyAt = c.now + c.cfg.FrontendDepth
		c.fetchQ = pushQueue(c.fetchQBuf, c.fetchQ, d)
		c.traceUop(trace.StageFetch, d)
		c.Ctr.Fetched.Inc()
		if d.WrongPath {
			c.Ctr.FetchedWrongPath.Inc()
		}
		if d.U.Op == isa.OpHalt && !d.WrongPath {
			return
		}
		// A taken control transfer ends the fetch group.
		if d.U.Op.IsBranch() && d.PredOrActualTaken() {
			c.curFetchLine = ^uint64(0)
			return
		}
	}
}

// PredOrActualTaken reports the direction fetch followed for this branch:
// the prediction for conditional branches, the actual target for jumps.
func (d *DynUop) PredOrActualTaken() bool {
	if d.IsCondBr {
		return d.PredTaken
	}
	return d.Res.Taken
}

func (c *Core) fetchCondBranch(pc uint64) *DynUop {
	// Order matters: the prediction and all checkpoints must be taken
	// against pre-branch state, and the extension checkpoint before the
	// extension consumes a prediction-queue slot.
	bpSnap := c.bp.Checkpoint()
	var extSnap interface{}
	if c.ext != nil {
		extSnap = c.ext.Checkpoint()
	}
	wrongPath := c.mispFetchedUnresolved > 0

	basePred, info := c.bp.Predict(pc)
	d := c.fe.fetchUop(c.seq, wrongPath)
	if d == nil {
		// No micro-op was produced, so nothing will ever retire or squash
		// these checkpoints: hand them straight back.
		c.bp.Release(bpSnap)
		c.bp.ReleaseInfo(info)
		if c.ext != nil && extSnap != nil {
			c.ext.ReleaseCheckpoint(extSnap)
		}
		return nil
	}
	d.IsCondBr = true
	d.WrongPath = wrongPath
	d.TagePred = basePred
	d.PredInfo = info
	d.bpSnap = bpSnap
	d.extSnap = extSnap
	d.feSnap = c.fe.checkpoint()

	pred := basePred
	if c.ext != nil {
		var fromDCE bool
		pred, fromDCE = c.ext.FetchCondBranch(c.now, d, basePred)
		d.UsedDCE = fromDCE
	}
	d.PredTaken = pred
	c.bp.OnFetch(pc, pred)
	if c.tr.Enabled() {
		c.tr.Emit(trace.Event{
			Cycle: c.now, PC: pc, Seq: d.Seq, Kind: trace.KindBranchFetch,
			Flag: pred, Arg: trace.Bit(d.UsedDCE),
		})
	}

	// Steer fetch down the predicted direction (the functional step already
	// advanced down the resolved direction; registers are unaffected).
	if pred {
		c.fe.redirect(d.Res.Target)
	} else {
		c.fe.redirect(d.Res.FallThrou)
	}
	if pred != d.Res.Taken {
		d.wpCounted = true
		c.mispFetchedUnresolved++
	}

	// Memory dependence for younger loads is recorded in fetchUop; for the
	// branch itself there is none.
	return d
}
