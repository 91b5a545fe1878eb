package runahead

import (
	"math"
	"slices"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/trace"
)

// envVal is one architectural-register binding in a chain instance's
// inherited environment: either a concrete value or a reference into a
// producer instance's local register file (the dynamic half of global
// rename, Figure 8).
type envVal struct {
	known    bool
	val      uint64
	src      *Instance
	srcLocal int
}

// pendingLiveIn is an unresolved live-in awaiting a producer-instance local
// register.
type pendingLiveIn struct {
	local    int
	src      *Instance
	srcLocal int
}

// Instance is one dynamic execution of a dependence chain: a local register
// file plus a local reservation station (paper §4.2).
//
// Instances are pooled (DCE.newInstance, DCE.drop). Five kinds of holder
// keep an *Instance: the all list, the run list, a deferred initiation's
// parent, an envVal.src and a pendingLiveIn.src. Each counts itself in
// refs, and an instance returns to the free list when the count reaches
// zero. Every reference points from a younger instance to an older one, so
// the references form no cycle. Nothing may keep an *Instance without a
// counted reference: a recycled instance is another chain's.
type Instance struct {
	id    uint64
	chain *Chain
	refs  int

	// words and flags are the slabs vals/doneAt and ready/issued/executed/
	// outcomes are carved from; they keep their capacity across reuse.
	words []uint64
	flags []bool

	vals     []uint64
	ready    []bool
	issued   []bool
	executed []bool
	doneAt   []uint64
	outcomes []bool // per-uop branch outcome (only the final entry is used)

	env     [isa.NumRegs]envVal
	pending []pendingLiveIn

	q       *Queue
	slotIdx uint64
	slotGen uint64

	completed bool
	killed    bool
	outcome   bool

	// Scheduling acceleration: wake marks instances that may have issuable
	// micro-ops; inflight lists issued-but-unfinished micro-op indices;
	// unissued counts micro-ops not yet issued.
	wake     bool
	inflight []int
	unissued int

	// Predictive initiation bookkeeping. specDepth counts unresolved
	// speculative initiations in this instance's ancestry; it bounds how
	// deep the engine speculates through unresolved trigger outcomes.
	specPredicted bool
	predOut       bool
	specDepth     int
	// initiated tracks successor chains already launched from this
	// instance, preventing double initiation between the early and
	// completion trigger points. A linear list, not a map: an instance has
	// a handful of successor chains at most.
	initiated []*Chain
}

// hasInitiated reports whether ch was already launched from this instance.
func (in *Instance) hasInitiated(ch *Chain) bool {
	for _, c := range in.initiated {
		if c == ch {
			return true
		}
	}
	return false
}

func (in *Instance) done() bool { return in.completed || in.killed }

// val reads local register l, or 0 for an unused operand (l < 0).
func (in *Instance) val(l int) uint64 {
	if l < 0 {
		return 0
	}
	return in.vals[l]
}

// deferredInit retries an initiation that failed for lack of window or
// prediction-queue space.
type deferredInit struct {
	parent *Instance
	chain  *Chain
}

// DCE is the Dependence Chain Engine: the dedicated unit that executes
// dependence chains, sharing the D-cache with the core (core priority) and
// pushing computed branch outcomes into the prediction queues.
type DCE struct {
	cfg    *Config
	dcache *cache.Cache
	// dtlb is shared with the core (may be nil); wiring, not state.
	dtlb     *cache.TLB //brlint:allow snapshot-coverage
	mem      *emu.Memory
	cc       *ChainCache
	pqs      *PQSet
	initPred *bpred.CounterTable

	// all holds instances whose completion trigger is still pending, in
	// initiation order; triggers fire strictly in this order so prediction
	// queue slots stay in program order even when chains complete out of
	// order. It is a window onto allBuf: pops advance its start, and
	// pushAll slides it back to the front of the array when it reaches the
	// end.
	all    []*Instance
	allBuf []*Instance
	// run holds the initiated instances not yet dropped from the scan set
	// for scheduling, in initiation order; compactRun drops done ones.
	run       []*Instance
	activeRun int // count of initiated-but-not-done instances (the window)
	nextID    uint64
	deferred  []deferredInit
	// deferredSpare is the detached backing retryDeferred swaps with
	// deferred each Tick, so the retry loop reuses two arrays forever
	// instead of reallocating per cycle. Pure scratch between Ticks.
	deferredSpare []deferredInit //brlint:allow snapshot-coverage
	// spareIssue/spareRS are per-Tick scratch (Core-Only: the cycle's
	// borrowed issue slots), rewritten before each use.
	spareIssue int //brlint:allow snapshot-coverage
	spareRS    int //brlint:allow snapshot-coverage

	// The instance pool: free holds released instances, live counts those
	// handed out and not yet released, and releaseQ is drop's worklist.
	// LoadState starts the pool over.
	free     []*Instance
	live     int
	releaseQ []*Instance //brlint:allow snapshot-coverage

	// chainBuf collects chain-cache lookups. Initiation nests (a launch
	// fires its early triggers, which launch more), so each user appends
	// at the end, iterates its own sub-slice and truncates back. famBuf is
	// Sync's sorted family list. Both are scratch.
	chainBuf []*Chain //brlint:allow snapshot-coverage
	famBuf   []uint64 //brlint:allow snapshot-coverage

	// Scan skips: a Tick phase runs only when its flag says it can change
	// something. runDirty: an instance completed or was killed since the
	// last compactRun. pendingDirty: since the last resolvePending pass a
	// local became ready, an instance was killed or a pending live-in was
	// created (a pass that resolves something re-arms it). nextDone: the
	// earliest doneAt still in flight. awake: some instance may issue.
	// All are derived from the instances; quiesce and LoadState clear them.
	runDirty     bool
	pendingDirty bool
	nextDone     uint64
	awake        bool

	C *stats.Counters
	// Dense handles for the engine's per-event counters; the values live
	// in C, which the codec serializes.
	ctr dceCounters //brlint:allow snapshot-coverage

	// tr is the structured event tracer (nil when tracing is off);
	// wiring is re-attached by the machine builder, not the codec.
	tr *trace.Tracer //brlint:allow snapshot-coverage
}

// dceCounters are pre-registered handles; uopsIssued and loadsIssued fire
// once per DCE micro-op, the hottest counters in the engine.
type dceCounters struct {
	syncs, syncMiss, divergences         stats.Counter
	initWindowFull, initQueueFull        stats.Counter
	instances, predictiveFlushes         stats.Counter
	completions, uopsIssued, loadsIssued stats.Counter
}

// NewDCE wires the engine.
func NewDCE(cfg *Config, dcache *cache.Cache, mem *emu.Memory, cc *ChainCache, pqs *PQSet) *DCE {
	if err := cfg.Validate(); err != nil {
		panic("runahead: " + err.Error())
	}
	e := &DCE{
		cfg:      cfg,
		dcache:   dcache,
		mem:      mem,
		cc:       cc,
		pqs:      pqs,
		initPred: bpred.NewCounterTable(10),
		C:        stats.NewCounters(),
	}
	e.ctr = dceCounters{
		syncs:             e.C.Handle("syncs"),
		syncMiss:          e.C.Handle("sync_miss"),
		divergences:       e.C.Handle("divergences"),
		initWindowFull:    e.C.Handle("init_window_full"),
		initQueueFull:     e.C.Handle("init_queue_full"),
		instances:         e.C.Handle("instances"),
		predictiveFlushes: e.C.Handle("predictive_flushes"),
		completions:       e.C.Handle("completions"),
		uopsIssued:        e.C.Handle("uops_issued"),
		loadsIssued:       e.C.Handle("loads_issued"),
	}
	return e
}

// windowFree reports whether another instance fits.
func (e *DCE) windowFree() bool {
	if e.activeRun >= e.cfg.Window {
		return false
	}
	if e.cfg.SharedWithCore {
		// Core-Only borrows core reservation stations: one chain occupies
		// up to MaxChainLen entries.
		if e.spareRS < (e.activeRun+1)*e.cfg.MaxChainLen {
			return false
		}
	}
	return true
}

// Sync enters (or re-enters) runahead mode from a core misprediction of
// (pc, taken): matching chains are initiated with live-ins copied from the
// core's architectural registers, and their prediction queues are
// synchronized with fetch (paper §4.1). The mispredicting branch's own
// family is resynchronized too ("the mispredicting chain is synchronized
// ... and chain execution resumes"), even when its chains are triggered by
// other branches.
func (e *DCE) Sync(now uint64, pc uint64, taken bool, regs *emu.RegFile) {
	mark := len(e.chainBuf)
	e.chainBuf = e.cc.Lookup(e.chainBuf, pc, taken)
	matching := e.chainBuf[mark:]
	if len(matching) == 0 {
		e.ctr.syncMiss.Inc()
		return
	}
	e.ctr.syncs.Inc()

	// Deactivate stale instances of the affected chain families, including
	// the mispredicting branch's own. The family PCs are kept sorted:
	// Ensure below may evict a queue, so its order must be deterministic.
	fams := e.famBuf[:0]
	if e.cc.HasBranch(pc) {
		fams = insertSorted(fams, pc)
	}
	for _, ch := range matching {
		fams = insertSorted(fams, ch.BranchPC)
	}
	e.famBuf = fams
	for _, in := range e.all {
		if !in.done() && slices.Contains(fams, in.chain.BranchPC) {
			e.kill(now, in)
		}
	}
	k := 0
	for _, d := range e.deferred {
		if slices.Contains(fams, d.chain.BranchPC) {
			e.drop(d.parent)
			continue
		}
		e.deferred[k] = d
		k++
	}
	e.deferred = e.deferred[:k]

	// Synchronize the prediction queues with fetch.
	for _, fam := range fams {
		if q := e.pqs.Ensure(fam, now); q != nil {
			q.reset(now)
		}
	}

	// Initiate the matching chains with concrete live-ins from the core.
	var env [isa.NumRegs]envVal
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		env[r] = envVal{known: true, val: regs.Get(r)}
	}
	for _, ch := range matching {
		e.initiate(now, ch, &env)
	}
	e.truncChains(mark)
}

// truncChains pops chainBuf back to a caller's mark.
func (e *DCE) truncChains(mark int) {
	clear(e.chainBuf[mark:])
	e.chainBuf = e.chainBuf[:mark]
}

// insertSorted adds v to the ascending set s.
func insertSorted(s []uint64, v uint64) []uint64 {
	i, found := slices.BinarySearch(s, v)
	if found {
		return s
	}
	s = grow1(s)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// DeactivateFamily kills the active instances computing branch pc and marks
// its queue inactive (divergence detected at retire; resynchronization
// happens at the next core misprediction).
func (e *DCE) DeactivateFamily(now uint64, pc uint64) {
	for _, in := range e.all {
		if !in.done() && in.chain.BranchPC == pc {
			e.kill(now, in)
		}
	}
	if q := e.pqs.For(pc); q != nil {
		q.active = false
	}
	e.ctr.divergences.Inc()
}

func (e *DCE) kill(now uint64, in *Instance) {
	if in.done() {
		return
	}
	in.killed = true
	e.activeRun--
	e.runDirty = true
	e.pendingDirty = true
	if e.tr.Enabled() {
		e.tr.Emit(trace.Event{
			Cycle: now, PC: in.chain.BranchPC, Seq: in.id, Kind: trace.KindChainKill,
		})
	}
}

// initiate launches one dynamic chain instance. env supplies the inherited
// architectural environment (concrete at synchronization; partially
// references into parent for continuous execution). Returns nil when the
// window or the prediction queue is full.
func (e *DCE) initiate(now uint64, ch *Chain, env *[isa.NumRegs]envVal) *Instance {
	q := e.admit(now, ch)
	if q == nil {
		return nil
	}
	return e.launch(now, ch, env, q)
}

// initiateFrom is initiate for a child inheriting parent's environment; the
// environment is built only after the admission checks pass, so a deferred
// initiation retried against a full window costs two comparisons, not a
// whole-register-file copy.
func (e *DCE) initiateFrom(now uint64, ch *Chain, parent *Instance) *Instance {
	q := e.admit(now, ch)
	if q == nil {
		return nil
	}
	env := childEnv(parent)
	return e.launch(now, ch, &env, q)
}

// admit performs initiation's capacity checks — instance window and
// prediction queue — counting each refusal exactly as initiate always has.
func (e *DCE) admit(now uint64, ch *Chain) *Queue {
	if !e.windowFree() {
		e.ctr.initWindowFull.Inc()
		return nil
	}
	q := e.pqs.Ensure(ch.BranchPC, now)
	if q == nil || q.full() {
		e.ctr.initQueueFull.Inc()
		return nil
	}
	return q
}

// launch builds the admitted instance.
func (e *DCE) launch(now uint64, ch *Chain, env *[isa.NumRegs]envVal, q *Queue) *Instance {
	slot := q.alloc
	*q.slot(slot) = pqSlot{}
	q.alloc++

	n := len(ch.Uops)
	nl := ch.NumLocals
	in := e.newInstance(nl+n, nl+3*n)
	// The per-local and per-uop word and bool arrays are carved from the
	// instance's two slabs (full-cap slices so no region can grow into its
	// neighbour).
	words, flags := in.words, in.flags
	in.id = e.nextID
	in.chain = ch
	in.vals, in.doneAt = words[:nl:nl], words[nl:]
	in.ready = flags[:nl:nl]
	in.issued = flags[nl : nl+n : nl+n]
	in.executed = flags[nl+n : nl+2*n : nl+2*n]
	in.outcomes = flags[nl+2*n:]
	in.env = *env
	in.q, in.slotIdx, in.slotGen = q, slot, q.gen
	in.wake = true
	in.unissued = n
	e.nextID++

	// Resolve live-ins from the environment.
	for _, li := range ch.LiveIns {
		ev := &in.env[li.Arch]
		switch {
		case ev.known:
			in.vals[li.Local] = ev.val
			in.ready[li.Local] = true
		case ev.src != nil:
			if ev.src.ready[ev.srcLocal] {
				v := ev.src.vals[ev.srcLocal]
				in.vals[li.Local] = v
				in.ready[li.Local] = true
				// Concretize for our own successors too.
				*ev = envVal{known: true, val: v}
			} else {
				ev.src.refs++
				in.pending = push(in.pending, pendingLiveIn{
					local: li.Local, src: ev.src, srcLocal: ev.srcLocal})
				e.pendingDirty = true
			}
		default:
			// Unbound register: treat as zero (cannot happen after a sync,
			// which binds every register).
			in.vals[li.Local] = 0
			in.ready[li.Local] = true
		}
	}
	// The environment's remaining producer references are counted once
	// it is final.
	for r := range in.env {
		if src := in.env[r].src; src != nil {
			src.refs++
		}
	}

	in.refs = 2 // all and run
	e.pushAll(in)
	e.run = push(e.run, in)
	e.activeRun++
	e.awake = true
	e.ctr.instances.Inc()
	if e.tr.Enabled() {
		e.tr.Emit(trace.Event{
			Cycle: now, PC: ch.BranchPC, Seq: in.id, Kind: trace.KindChainInit, Arg: slot,
		})
	}
	e.onInitiated(now, in)
	return in
}

// newInstance hands out a zeroed instance whose slabs hold nwords words
// and nflags flags, taking it from the free list when one is there. The
// instance keeps the capacity of its slabs and lists.
func (e *DCE) newInstance(nwords, nflags int) *Instance {
	var in *Instance
	if last := len(e.free) - 1; last >= 0 {
		in = e.free[last]
		e.free[last] = nil
		e.free = e.free[:last]
	} else {
		// Pool growth: the pool grows to the run's peak number of live
		// instances and then recycles. Done instances wait for their
		// in-order triggers and environments keep ancestors alive, so
		// that peak is not bounded by Window.
		in = new(Instance) //brlint:allow hot-path-alloc
	}
	*in = Instance{
		words:     zeroed(in.words, nwords),
		flags:     zeroed(in.flags, nflags),
		pending:   in.pending[:0],
		inflight:  in.inflight[:0],
		initiated: in.initiated[:0],
	}
	e.live++
	return in
}

// zeroed returns s resized to n zero elements, reusing its capacity.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		// Pool growth: an instance's slab grows until it fits the
		// longest chain the instance has run.
		return make([]T, n) //brlint:allow hot-path-alloc
	}
	s = s[:n]
	clear(s)
	return s
}

// drop removes one counted reference to in. At zero the instance goes back
// on the free list and drops the references it holds itself, through a
// worklist rather than recursion because ancestor chains are long.
func (e *DCE) drop(in *Instance) {
	if in.refs--; in.refs > 0 {
		return
	}
	work := push(e.releaseQ[:0], in)
	for len(work) > 0 {
		x := work[len(work)-1]
		work = work[:len(work)-1]
		for r := range x.env {
			if src := x.env[r].src; src != nil {
				if src.refs--; src.refs == 0 {
					work = push(work, src)
				}
			}
		}
		for _, p := range x.pending {
			if p.src.refs--; p.src.refs == 0 {
				work = push(work, p.src)
			}
		}
		e.free = push(e.free, x)
		e.live--
	}
	e.releaseQ = work
}

// pushAll appends in to the trigger list. When the list has drifted to the
// end of allBuf it slides back to the front, and allBuf doubles only when
// the list fills at least half of it, so steady state neither allocates nor
// keeps popped instances in the array.
func (e *DCE) pushAll(in *Instance) {
	if len(e.all) == cap(e.all) {
		if 2*len(e.all) >= len(e.allBuf) {
			// Pool growth: the array grows to twice the run's peak
			// trigger-list length.
			e.allBuf = make([]*Instance, 2*len(e.allBuf)+64) //brlint:allow hot-path-alloc
		}
		n := copy(e.allBuf, e.all)
		clear(e.allBuf[n:])
		e.all = e.allBuf[:n]
	}
	e.all = e.all[:len(e.all)+1]
	e.all[len(e.all)-1] = in
}

// popAll removes the head of the trigger list.
func (e *DCE) popAll() {
	in := e.all[0]
	e.all[0] = nil
	e.all = e.all[1:]
	e.drop(in)
}

// childEnv builds the environment a successor inherits: the parent's
// environment overlaid with the parent's live-outs (global rename).
func childEnv(parent *Instance) [isa.NumRegs]envVal {
	env := parent.env
	for _, lo := range parent.chain.LiveOuts {
		if parent.ready[lo.Local] {
			env[lo.Arch] = envVal{known: true, val: parent.vals[lo.Local]}
		} else {
			env[lo.Arch] = envVal{src: parent, srcLocal: lo.Local}
		}
	}
	return env
}

// onInitiated fires the early (initiation-time) triggers of the configured
// policy.
// maxSpecDepth bounds how many unresolved speculative trigger outcomes an
// initiation chain may stack. Beyond a few coin flips the probability that
// a deeper instance survives is negligible, while the flush cost of being
// wrong grows with the window.
const maxSpecDepth = 12

func (e *DCE) onInitiated(now uint64, in *Instance) {
	if e.cfg.InitMode == NonSpeculative {
		return
	}
	pc := in.chain.BranchPC
	// Independent-early: wildcard successors don't care about the outcome;
	// they inherit the parent's speculation depth.
	mark := len(e.chainBuf)
	e.chainBuf = e.cc.Wildcards(e.chainBuf, pc)
	for _, ch := range e.chainBuf[mark:] {
		e.tryInitiateChild(now, in, ch, in.specDepth)
	}
	e.truncChains(mark)
	if e.cfg.InitMode == Predictive && in.specDepth < maxSpecDepth {
		// Predict the outcome with the per-branch 3-bit counter and
		// speculatively initiate directional successors. The speculation
		// (and its flush-on-mispredict) only exists when directional
		// successor chains actually got initiated on it.
		predOut := e.initPred.Predict(pc)
		e.chainBuf = e.cc.NonWildcards(e.chainBuf, pc, predOut)
		if specs := e.chainBuf[mark:]; len(specs) > 0 {
			in.specPredicted = true
			in.predOut = predOut
			for _, ch := range specs {
				e.tryInitiateChild(now, in, ch, in.specDepth+1)
			}
		}
		e.truncChains(mark)
	}
}

func (e *DCE) tryInitiateChild(now uint64, parent *Instance, ch *Chain, specDepth int) {
	if parent.hasInitiated(ch) {
		return
	}
	if child := e.initiateFrom(now, ch, parent); child != nil {
		child.specDepth = specDepth
		parent.initiated = push(parent.initiated, ch)
	} else if len(e.deferred) < 64 {
		parent.refs++
		e.deferred = push(e.deferred, deferredInit{parent: parent, chain: ch})
		parent.initiated = push(parent.initiated, ch) // the deferral owns the retry
	}
}

// fireCompletionTriggers runs when in's (in-order) trigger slot comes up.
func (e *DCE) fireCompletionTriggers(now uint64, in *Instance) {
	pc := in.chain.BranchPC
	e.initPred.Update(pc, in.outcome)

	if e.cfg.InitMode == Predictive && in.specPredicted && in.predOut != in.outcome {
		// Speculative initiations went down the wrong direction: flush
		// everything younger and initiate the correct chains (paper §4.1).
		e.flushYoungerThan(now, in)
		e.ctr.predictiveFlushes.Inc()
	}
	mark := len(e.chainBuf)
	e.chainBuf = e.cc.Lookup(e.chainBuf, pc, in.outcome)
	for _, ch := range e.chainBuf[mark:] {
		// Completion-confirmed initiations carry no new speculation.
		e.tryInitiateChild(now, in, ch, in.specDepth)
	}
	e.truncChains(mark)
}

// flushYoungerThan kills every instance initiated after in and rewinds the
// affected prediction queues' allocation pointers. Instances are ordered by
// id in e.all, so the walk starts from the tail and stops at in. Completed
// younger instances were built on the wrong speculation too: their slots
// rewind and their completion triggers are suppressed.
func (e *DCE) flushYoungerThan(now uint64, in *Instance) {
	for k := len(e.all) - 1; k >= 0; k-- {
		o := e.all[k]
		if o.id <= in.id {
			break
		}
		if o.killed {
			continue
		}
		if o.completed {
			o.killed = true // suppress the pending completion trigger
			e.pendingDirty = true
		} else {
			e.kill(now, o)
		}
		// Rewind the queue to the oldest flushed slot. Lowering alloc one
		// slot at a time and clamping fetch after each step ends where
		// clamping both once to the minimum would.
		if q := o.q; q != nil && q.gen == o.slotGen {
			if q.alloc > o.slotIdx {
				q.alloc = o.slotIdx
			}
			if q.fetch > q.alloc {
				// Fetch already consumed rewound slots; the queue is out
				// of sync until the next synchronization.
				q.fetch = q.alloc
			}
		}
	}
	// Deferred initiations from flushed parents are dead.
	k := 0
	for _, d := range e.deferred {
		if d.parent.killed {
			e.drop(d.parent)
			continue
		}
		e.deferred[k] = d
		k++
	}
	e.deferred = e.deferred[:k]
}

// Idle reports that the engine has no in-flight work: no resident chain
// instances, nothing runnable and no deferred initializations, so every
// phase of Tick would fall straight through.
func (e *DCE) Idle() bool {
	return len(e.all) == 0 && len(e.run) == 0 && len(e.deferred) == 0
}

// Tick advances the engine one cycle. spareIssue/spareRS report the core's
// per-cycle slack (used by the Core-Only configuration).
//
//brlint:hotpath
func (e *DCE) Tick(now uint64, spareIssue, spareRS int) {
	e.spareIssue = spareIssue
	e.spareRS = spareRS

	e.compactRun()
	e.resolvePending(now)
	e.completeExecution(now)
	e.processTriggers(now)
	e.retryDeferred(now)
	e.issue(now)
	e.compact()
}

// compactRun drops done instances from the scheduling scan set. It runs
// only when one has completed or been killed since the last compaction.
func (e *DCE) compactRun() {
	if !e.runDirty {
		return
	}
	e.runDirty = false
	k := 0
	for _, in := range e.run {
		if in.done() {
			e.drop(in)
			continue
		}
		e.run[k] = in
		k++
	}
	clear(e.run[k:])
	e.run = e.run[:k]
}

// resolvePending copies producer locals into waiting live-ins. A pass runs
// only when pendingDirty says one can find something: otherwise every
// pending live-in is still waiting on a live, unready local.
func (e *DCE) resolvePending(now uint64) {
	if !e.pendingDirty {
		return
	}
	e.pendingDirty = false
	for _, in := range e.run {
		if in.done() || len(in.pending) == 0 {
			continue
		}
		k := 0
		for _, p := range in.pending {
			switch {
			case p.src.killed:
				e.kill(now, in)
			case p.src.ready[p.srcLocal]:
				in.vals[p.local] = p.src.vals[p.srcLocal]
				in.ready[p.local] = true
				in.wake = true
				e.awake = true
				e.pendingDirty = true // the new local may be another's source
			default:
				in.pending[k] = p
				k++
				continue
			}
			e.drop(p.src)
		}
		clear(in.pending[k:])
		in.pending = in.pending[:k]
	}
}

// completeExecution publishes results whose latency has elapsed and
// completes instances whose branch resolved. It runs only once now reaches
// nextDone, the earliest doneAt still in flight.
func (e *DCE) completeExecution(now uint64) {
	if now < e.nextDone {
		return
	}
	next := uint64(math.MaxUint64)
	for _, in := range e.run {
		if in.done() || len(in.inflight) == 0 {
			continue
		}
		k := 0
		for _, i := range in.inflight {
			if in.doneAt[i] > now {
				in.inflight[k] = i
				k++
				next = min(next, in.doneAt[i])
				continue
			}
			in.executed[i] = true
			in.wake = true
			e.awake = true
			u := &in.chain.Uops[i]
			if u.Dst >= 0 {
				in.ready[u.Dst] = true
				e.pendingDirty = true
			}
			if i == len(in.chain.Uops)-1 {
				// The chain's branch: the outcome is ready.
				in.outcome = in.outcomes[i]
				in.completed = true
				e.activeRun--
				e.runDirty = true
				e.ctr.completions.Inc()
				if e.tr.Enabled() {
					e.tr.Emit(trace.Event{
						Cycle: now, PC: in.chain.BranchPC, Seq: in.id,
						Kind: trace.KindChainComplete, Flag: in.outcome,
					})
				}
				// Push into the prediction queue.
				if in.q.gen == in.slotGen {
					s := in.q.slot(in.slotIdx)
					s.filled = true
					s.value = in.outcome
					if e.tr.Enabled() {
						e.tr.Emit(trace.Event{
							Cycle: now, PC: in.q.branchPC, Seq: in.id,
							Kind: trace.KindPQFill, Arg: in.slotIdx, Flag: in.outcome,
						})
					}
				}
			}
		}
		in.inflight = in.inflight[:k]
	}
	e.nextDone = next
}

// processTriggers fires completion triggers strictly in initiation order,
// concretizing environments so ancestor instances can be released.
func (e *DCE) processTriggers(now uint64) {
	for len(e.all) > 0 {
		in := e.all[0]
		if !in.done() {
			return
		}
		// All our env references point at ancestors whose triggers have
		// already fired (they are complete): concretize and drop them.
		for r := range in.env {
			ev := &in.env[r]
			if src := ev.src; !ev.known && src != nil && src.ready[ev.srcLocal] {
				*ev = envVal{known: true, val: src.vals[ev.srcLocal]}
				e.drop(src)
			}
		}
		if in.completed && !in.killed {
			e.fireCompletionTriggers(now, in)
		}
		e.popAll()
	}
}

// retryDeferred re-attempts initiations that previously hit a full window
// or queue.
func (e *DCE) retryDeferred(now uint64) {
	if len(e.deferred) == 0 {
		return
	}
	// Detach the list first: a successful initiation can defer new child
	// initiations, which must land on a fresh list rather than be lost to
	// aliasing. The detached backing becomes next Tick's spare, so the two
	// arrays ping-pong with no per-cycle allocation.
	pending := e.deferred
	e.deferred = e.deferredSpare[:0]
	for _, d := range pending {
		switch {
		case d.parent.killed:
		case e.initiateFrom(now, d.chain, d.parent) == nil:
			e.deferred = push(e.deferred, d) // keeps its parent reference
			continue
		}
		e.drop(d.parent)
	}
	clear(pending)
	e.deferredSpare = pending[:0]
}

// issue schedules ready chain micro-ops onto the DCE's functional units
// (or the core's spare slots for Core-Only). ALU micro-ops consume the
// DCE's own issue bandwidth; loads consume load ports backed by the shared
// D-cache (Figure 7: ALU0/ALU1 plus the D-cache path). It runs only while
// some instance is awake; a pass that ends on exhausted bandwidth leaves
// the engine awake.
func (e *DCE) issue(now uint64) {
	if !e.awake {
		return
	}
	budget := e.cfg.IssueWidth
	if e.cfg.SharedWithCore {
		budget = e.spareIssue
	}
	loads := e.cfg.LoadPorts
	if budget <= 0 && loads <= 0 {
		return
	}
	awake := false
	for _, in := range e.run {
		if budget <= 0 && loads <= 0 {
			return
		}
		if in.done() || !in.wake || in.unissued == 0 {
			continue
		}
		stalled := true // no ready-but-unissued micro-op left behind
		for i := range in.chain.Uops {
			if in.issued[i] {
				continue
			}
			u := &in.chain.Uops[i]
			if e.cfg.InOrderChainExec && i > 0 && !in.issued[i-1] {
				break
			}
			if !e.srcsReady(in, u) {
				if e.cfg.InOrderChainExec {
					break
				}
				continue
			}
			if u.Op == isa.OpLd {
				if loads <= 0 {
					stalled = false // retry when a port frees
					continue
				}
				loads--
			} else {
				if budget <= 0 {
					stalled = false
					continue
				}
				budget--
			}
			e.executeUop(now, in, i, u)
		}
		// Sleep until an execution or live-in arrival wakes us.
		if stalled {
			in.wake = false
		} else {
			awake = true
		}
	}
	e.awake = awake
}

func (e *DCE) srcsReady(in *Instance, u *ChainUop) bool {
	if u.Src1 >= 0 && !in.ready[u.Src1] {
		return false
	}
	if u.Src2 >= 0 && !in.ready[u.Src2] {
		return false
	}
	return true
}

// executeUop computes a chain micro-op's value functionally (against
// committed memory) and models its latency.
func (e *DCE) executeUop(now uint64, in *Instance, i int, u *ChainUop) {
	in.issued[i] = true
	in.inflight = push(in.inflight, i)
	in.unissued--
	e.ctr.uopsIssued.Inc()
	switch u.Op {
	case isa.OpLd:
		addr := in.val(u.Src1) + uint64(u.Imm)
		if u.Scale > 0 {
			addr += in.val(u.Src2) * uint64(u.Scale)
		}
		v := e.mem.Read(addr, u.MemSize)
		if u.Signed {
			v = emu.SignExtend(v, u.MemSize)
		}
		in.vals[u.Dst] = v
		start := now
		if e.dtlb != nil {
			start = e.dtlb.Translate(now, addr)
		}
		in.doneAt[i] = e.dcache.AccessSecondary(start, addr)
		e.ctr.loadsIssued.Inc()
	case isa.OpCmp:
		b := in.val(u.Src2)
		if u.UseImm {
			b = uint64(u.Imm)
		}
		in.vals[u.Dst] = isa.CompareFlags(in.val(u.Src1), b).Pack()
		in.doneAt[i] = now + 1
	case isa.OpTest:
		b := in.val(u.Src2)
		if u.UseImm {
			b = uint64(u.Imm)
		}
		in.vals[u.Dst] = isa.TestFlags(in.val(u.Src1), b).Pack()
		in.doneAt[i] = now + 1
	case isa.OpBr:
		in.outcomes[i] = u.Cond.Eval(isa.UnpackFlags(in.val(u.Src1)))
		in.doneAt[i] = now + 1
	default:
		b := in.val(u.Src2)
		if u.UseImm {
			b = uint64(u.Imm)
		}
		in.vals[u.Dst] = isa.ALUResult(u.Op, in.val(u.Src1), b, u.Imm)
		lat := uint64(1)
		if u.Op == isa.OpMul {
			lat = 3
		}
		in.doneAt[i] = now + lat
	}
	e.nextDone = min(e.nextDone, in.doneAt[i])
}

// compact drops killed instances from the head of the trigger list (done
// instances elsewhere are dropped by processTriggers).
func (e *DCE) compact() {
	for len(e.all) > 0 && e.all[0].killed {
		e.popAll()
	}
}

// ActiveInstances returns the current window occupancy.
func (e *DCE) ActiveInstances() int { return e.activeRun }
