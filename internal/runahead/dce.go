package runahead

import (
	"cmp"
	"math/bits"
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
// register. While it waits it is linked into its producer's waiter list
// (prev/next), so that the producer can queue owner for resolution when one
// of its locals becomes ready or it is killed. A resolved entry stays in
// place with src nil.
type pendingLiveIn struct {
	local      int
	src        *Instance
	srcLocal   int
	owner      *Instance
	prev, next *pendingLiveIn
}

// Instance is one dynamic execution of a dependence chain: a local register
// file plus a local reservation station (paper §4.2).
//
// Instances are pooled (DCE.newInstance, DCE.drop). Four kinds of holder
// keep an *Instance: the all list, a deferred initiation's parent, an
// envVal.src and a pendingLiveIn.src. Each counts itself in refs, and an
// instance returns to the free list when the count reaches zero. Every
// reference points from a younger instance to an older one, so the
// references form no cycle. Nothing else may keep an *Instance across a
// call, because a recycled instance is another chain's, with two
// exceptions: the DCE's event queues stamp each reference with the id and
// read it only while the id still matches, and a pending live-in leaves its
// producer's waiter list when it is resolved or its consumer is released.
type Instance struct {
	// env is the inherited architectural environment. launch writes all of
	// it, so newInstance resets only instState and leaves env as it was.
	env [isa.NumRegs]envVal
	instState
}

// instState is the part of an Instance that newInstance resets.
type instState struct {
	id    uint64
	chain *Chain
	refs  int

	// vals is the local register file. flags is the slab ready/issued/
	// outcomes are carved from. Both keep their capacity across reuse.
	vals  []uint64
	flags []bool

	ready    []bool
	issued   []bool
	outcomes []bool // per-uop branch outcome (only the final entry is used)

	// envSrcs has bit r set while env[r] refers to a producer (src != nil),
	// so the walks over those references skip the concrete entries.
	envSrcs uint64
	pending []pendingLiveIn
	// waiters and waitersTail bound the list of pending live-ins waiting
	// on this instance's locals, in the order their consumers launched,
	// which is id order. Their consumers are then queued for resolution in
	// id order, which appends to resolveQ.
	waiters, waitersTail *pendingLiveIn

	q       *Queue
	slotIdx uint64
	slotGen uint64

	completed bool
	killed    bool
	outcome   bool

	// Scheduling: readyUops holds the unissued micro-ops whose sources are
	// ready (under InOrderChainExec, only the next one in order); unissued
	// counts micro-ops not yet issued.
	readyUops uopSet
	unissued  int

	// Predictive initiation bookkeeping: whether this instance's outcome
	// was predicted to initiate directional successors, and the prediction.
	specPredicted bool
	predOut       bool
	// initiated tracks successor chains already launched from this
	// instance, preventing double initiation between the early and
	// completion trigger points. It records each chain's installation
	// serial: no two installations share one, and a chain refreshed in the
	// chain cache since counts as a new chain. A linear list, not a map: an
	// instance has a handful of successor chains at most.
	initiated []uint64
}

// hasInitiated reports whether ch, as last installed, was already launched
// from this instance.
func (in *Instance) hasInitiated(ch *Chain) bool {
	return slices.Contains(in.initiated, ch.serial)
}

func (in *Instance) done() bool { return in.completed || in.killed }

// val reads local register l, or 0 for an unused operand (l < 0).
func (in *Instance) val(l int) uint64 {
	if l < 0 {
		return 0
	}
	return in.vals[l]
}

// addWaiter appends p, a pending live-in waiting on one of in's locals, to
// in's waiter list.
func (in *Instance) addWaiter(p *pendingLiveIn) {
	p.prev, p.next = in.waitersTail, nil
	if in.waitersTail != nil {
		in.waitersTail.next = p
	} else {
		in.waiters = p
	}
	in.waitersTail = p
}

// removeWaiter unlinks p from in's waiter list.
func (in *Instance) removeWaiter(p *pendingLiveIn) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		in.waiters = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		in.waitersTail = p.prev
	}
	p.prev, p.next = nil, nil
}

// uopSet is a set of a chain's micro-op indices.
type uopSet [(MaxChainLenLimit + 63) / 64]uint64

func (s *uopSet) add(i int)    { s[i>>6] |= 1 << (i & 63) }
func (s *uopSet) remove(i int) { s[i>>6] &^= 1 << (i & 63) }

func (s *uopSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// next returns the smallest member >= i, or -1.
func (s *uopSet) next(i int) int {
	for w := i >> 6; w < len(s); w++ {
		m := s[w]
		if w == i>>6 {
			m &= ^uint64(0) << (i & 63)
		}
		if m != 0 {
			return w<<6 | bits.TrailingZeros64(m)
		}
	}
	return -1
}

// instRef is an uncounted reference to an instance, valid only while
// in.id still equals id: a released instance may be handed to another
// chain before the reference is read.
type instRef struct {
	in *Instance
	id uint64
}

// live reports whether r still names the instance it was taken from.
func (r instRef) live() bool { return r.in.id == r.id }

// insertRef adds in to the id-ordered list refs unless it is there already.
func insertRef(refs []instRef, in *Instance) []instRef {
	if n := len(refs); n == 0 || refs[n-1].id < in.id {
		return push(refs, instRef{in, in.id})
	}
	i, found := slices.BinarySearchFunc(refs, in.id, cmpRefID)
	if found {
		return refs
	}
	refs = grow1(refs)
	copy(refs[i+1:], refs[i:])
	refs[i] = instRef{in, in.id}
	return refs
}

func cmpRefID(r instRef, id uint64) int { return cmp.Compare(r.id, id) }

// event is an entry of the completion heap: an instRef, a micro-op index
// and the key the heap orders by.
type event struct {
	key uint64
	instRef
	uop int
}

// eventHeap is a binary min-heap of events by key.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	s := push(*h, ev)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].key <= s[i].key {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{}
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].key < s[c].key {
			c++
		}
		if s[i].key <= s[c].key {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// deferredInit retries an initiation that failed for lack of window or
// prediction-queue space. q is the queue that refused it, if one did; a
// retry reuses it while it is still assigned to the chain's branch.
type deferredInit struct {
	parent *Instance
	chain  *Chain
	q      *Queue
}

// DCE is the Dependence Chain Engine: the dedicated unit that executes
// dependence chains, sharing the D-cache with the core (core priority) and
// pushing computed branch outcomes into the prediction queues.
type DCE struct {
	cfg    *Config
	dcache *cache.Cache
	// dtlb is shared with the core (may be nil); wiring, not state.
	dtlb     *cache.TLB
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
	all       []*Instance
	allBuf    []*Instance
	activeRun int // count of initiated-but-not-done instances (the window)
	nextID    uint64
	deferred  []deferredInit
	// deferredSpare is the detached backing retryDeferred swaps with
	// deferred each Tick, so the retry loop reuses two arrays forever
	// instead of reallocating per cycle. Pure scratch between Ticks.
	deferredSpare []deferredInit
	// deferredStale: an instance was killed since the deferred list was
	// last cleared of dead parents.
	deferredStale bool
	// spareIssue/spareRS are per-Tick scratch (Core-Only: the cycle's
	// borrowed issue slots), rewritten before each use.
	spareIssue int
	spareRS    int

	// The instance pool: free holds released instances, live counts those
	// handed out and not yet released, and releaseQ is drop's worklist.
	free     []*Instance
	live     int
	releaseQ []*Instance

	// chainBuf collects chain-cache lookups. Initiation nests (a launch
	// fires its early triggers, which launch more), so each user appends
	// at the end, iterates its own sub-slice and truncates back. famBuf is
	// Sync's sorted family list. Both are scratch.
	chainBuf []*Chain
	famBuf   []uint64

	// The events a Tick acts on, so that no phase scans the instances.
	// resolveQ lists, in id order, the consumers whose pending live-ins a
	// producer event may resolve: a local became ready or the producer was
	// killed. issueQ lists the instances with a ready micro-op in id order.
	// doneQ is a heap of the issued micro-ops keyed by the cycle their
	// result is ready. All hold uncounted instRefs; an entry whose instance
	// is done or was recycled is skipped and dropped. doneBuf is
	// completeExecution's scratch.
	resolveQ []instRef
	issueQ   []instRef
	doneQ    eventHeap
	doneBuf  []event

	C *stats.Counters
	// Dense handles for the engine's per-event counters; the values live in C.
	ctr dceCounters

	// tr is the structured event tracer (nil when tracing is off).
	tr *trace.Tracer
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
	clear(e.deferred[k:])
	e.deferred = e.deferred[:k]

	// Synchronize the prediction queues with fetch.
	for _, fam := range fams {
		if q := e.pqs.Ensure(fam, now); q != nil {
			q.reset(now)
		}
	}

	// Initiate the matching chains with concrete live-ins from the core.
	for _, ch := range matching {
		if q, ok := e.admit(now, ch, nil); ok {
			e.launch(now, ch, q, nil, regs)
		}
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
	e.markKilled(in)
	e.activeRun--
	if e.tr.Enabled() {
		e.tr.Emit(trace.Event{
			Cycle: now, PC: in.chain.BranchPC, Seq: in.id, Kind: trace.KindChainKill,
		})
	}
}

// markKilled sets in's killed flag and queues the consumers waiting on it,
// which resolution then kills in turn.
func (e *DCE) markKilled(in *Instance) {
	in.killed = true
	e.deferredStale = true
	for p := in.waiters; p != nil; p = p.next {
		if !p.owner.done() {
			e.queueResolve(p.owner)
		}
	}
}

// queueResolve queues consumer in for the next resolvePending pass.
func (e *DCE) queueResolve(in *Instance) {
	e.resolveQ = insertRef(e.resolveQ, in)
}

// admit performs initiation's capacity checks — instance window and
// prediction queue — counting each refusal. hint is a queue that refused
// this chain before, or nil. admit returns the chain's queue, when it got
// as far as looking one up, and whether the initiation may launch; after a
// queue refusal that queue is the next retry's hint.
func (e *DCE) admit(now uint64, ch *Chain, hint *Queue) (*Queue, bool) {
	if !e.windowFree() {
		e.ctr.initWindowFull.Inc()
		return nil, false
	}
	q := e.pqs.ensureVia(hint, ch.BranchPC, now)
	if q == nil || q.full() {
		e.ctr.initQueueFull.Inc()
		return q, false
	}
	return q, true
}

// launch builds an admitted instance of ch on queue q. Its environment is
// built in place: a successor's is parent's overlaid with parent's
// live-outs (global rename, Figure 8); a synchronized chain's, with parent
// nil, holds the core's registers regs.
func (e *DCE) launch(now uint64, ch *Chain, q *Queue, parent *Instance, regs *emu.RegFile) {
	slot := q.alloc
	*q.slot(slot) = pqSlot{}
	q.alloc++

	n := len(ch.Uops)
	nl := ch.NumLocals
	in := e.newInstance(nl, nl+2*n)
	// The per-local and per-uop flag arrays are carved from the instance's
	// slab (full-cap slices so no region can grow into its neighbour).
	flags := in.flags
	in.id = e.nextID
	in.chain = ch
	in.ready = flags[:nl:nl]
	in.issued = flags[nl : nl+n : nl+n]
	in.outcomes = flags[nl+n:]
	in.q, in.slotIdx, in.slotGen = q, slot, q.gen
	in.unissued = n
	e.nextID++

	if parent != nil {
		in.env, in.envSrcs = parent.env, parent.envSrcs
		for _, lo := range parent.chain.LiveOuts {
			if parent.ready[lo.Local] {
				in.env[lo.Arch] = envVal{known: true, val: parent.vals[lo.Local]}
				in.envSrcs &^= 1 << lo.Arch
			} else {
				in.env[lo.Arch] = envVal{src: parent, srcLocal: lo.Local}
				in.envSrcs |= 1 << lo.Arch
			}
		}
	} else {
		for r := range in.env {
			in.env[r] = envVal{known: true, val: regs.Get(isa.Reg(r))}
		}
	}

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
				in.envSrcs &^= 1 << li.Arch
			} else {
				ev.src.refs++
				in.pending = push(in.pending, pendingLiveIn{
					local: li.Local, src: ev.src, srcLocal: ev.srcLocal, owner: in})
			}
		default:
			// Unbound register: treat as zero (cannot happen after a sync,
			// which binds every register).
			in.vals[li.Local] = 0
			in.ready[li.Local] = true
		}
	}
	// Now that neither list changes, count the environment's remaining
	// producer references and link each pending live-in to its producer. A
	// producer that was already killed raises no further event, so its
	// consumer is queued at once.
	for m := in.envSrcs; m != 0; m &= m - 1 {
		in.env[bits.TrailingZeros64(m)].src.refs++
	}
	for i := range in.pending {
		p := &in.pending[i]
		p.src.addWaiter(p)
		if p.src.killed {
			e.queueResolve(in)
		}
	}

	in.refs = 1 // all
	e.pushAll(in)
	e.activeRun++
	if e.cfg.InOrderChainExec {
		e.wakeUop(in, 0)
	} else {
		for i := range ch.Uops {
			e.wakeUop(in, i)
		}
	}
	e.ctr.instances.Inc()
	if e.tr.Enabled() {
		e.tr.Emit(trace.Event{
			Cycle: now, PC: ch.BranchPC, Seq: in.id, Kind: trace.KindChainInit, Arg: slot,
		})
	}
	e.onInitiated(now, in)
}

// newInstance hands out an instance with a zeroed instState holding nvals
// local registers and nflags flags, taking it from the free list when one
// is there. The instance keeps the capacity of its slices, and its stale
// env, which launch overwrites.
func (e *DCE) newInstance(nvals, nflags int) *Instance {
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
	in.instState = instState{
		vals:      zeroed(in.vals, nvals),
		flags:     zeroed(in.flags, nflags),
		pending:   in.pending[:0],
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
// worklist rather than recursion because ancestor chains are long. Its
// unresolved live-ins leave their producers' waiter lists first.
func (e *DCE) drop(in *Instance) {
	if in.refs--; in.refs > 0 {
		return
	}
	work := push(e.releaseQ[:0], in)
	for len(work) > 0 {
		x := work[len(work)-1]
		work = work[:len(work)-1]
		for m := x.envSrcs; m != 0; m &= m - 1 {
			src := x.env[bits.TrailingZeros64(m)].src
			if src.refs--; src.refs == 0 {
				work = push(work, src)
			}
		}
		for i := range x.pending {
			p := &x.pending[i]
			if p.src == nil {
				continue
			}
			p.src.removeWaiter(p)
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

// onInitiated fires the early (initiation-time) triggers of the configured
// policy.
func (e *DCE) onInitiated(now uint64, in *Instance) {
	if e.cfg.InitMode == NonSpeculative {
		return
	}
	pc := in.chain.BranchPC
	// Independent-early: wildcard successors don't care about the outcome.
	mark := len(e.chainBuf)
	e.chainBuf = e.cc.Wildcards(e.chainBuf, pc)
	for _, ch := range e.chainBuf[mark:] {
		e.tryInitiateChild(now, in, ch)
	}
	e.truncChains(mark)
	if e.cfg.InitMode == Predictive {
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
				e.tryInitiateChild(now, in, ch)
			}
		}
		e.truncChains(mark)
	}
}

func (e *DCE) tryInitiateChild(now uint64, parent *Instance, ch *Chain) {
	if parent.hasInitiated(ch) {
		return
	}
	if q, ok := e.admit(now, ch, nil); ok {
		e.launch(now, ch, q, parent, nil)
		parent.initiated = push(parent.initiated, ch.serial)
	} else if len(e.deferred) < 64 {
		parent.refs++
		e.deferred = push(e.deferred, deferredInit{parent: parent, chain: ch, q: q})
		parent.initiated = push(parent.initiated, ch.serial) // the deferral owns the retry
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
		e.tryInitiateChild(now, in, ch)
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
			e.markKilled(o) // suppress the pending completion trigger
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
	e.dropDeadDeferred()
}

// dropDeadDeferred drops the deferred initiations whose parent was killed.
func (e *DCE) dropDeadDeferred() {
	k := 0
	for _, d := range e.deferred {
		if d.parent.killed {
			e.drop(d.parent)
			continue
		}
		e.deferred[k] = d
		k++
	}
	clear(e.deferred[k:])
	e.deferred = e.deferred[:k]
	e.deferredStale = false
}

// Idle reports that the engine has no in-flight work: no resident chain
// instances, nothing runnable and no deferred initializations, so every
// phase of Tick would fall straight through.
func (e *DCE) Idle() bool {
	return len(e.all) == 0 && len(e.deferred) == 0
}

// Tick advances the engine one cycle. spareIssue/spareRS report the core's
// per-cycle slack (used by the Core-Only configuration).
//
//brlint:hotpath
func (e *DCE) Tick(now uint64, spareIssue, spareRS int) {
	e.spareIssue = spareIssue
	e.spareRS = spareRS

	e.resolvePending(now)
	e.completeExecution(now)
	e.processTriggers(now)
	e.retryDeferred(now)
	e.issue(now)
}

// resolvePending copies producer locals into the pending live-ins of the
// queued consumers, in id order. Resolving one consumer can queue younger
// ones (a new local, or a kill); they land after it in resolveQ and are
// resolved later in the same pass.
func (e *DCE) resolvePending(now uint64) {
	for k := 0; k < len(e.resolveQ); k++ {
		r := e.resolveQ[k]
		in := r.in
		if !r.live() || in.done() {
			continue // recycled or done
		}
		for j := range in.pending {
			p := &in.pending[j]
			src := p.src
			switch {
			case src == nil:
				continue
			case src.killed:
				e.kill(now, in)
			case src.ready[p.srcLocal]:
				in.vals[p.local] = src.vals[p.srcLocal]
				e.publish(in, p.local, 0) // the new local may be another's source
			default:
				continue
			}
			src.removeWaiter(p)
			p.src = nil
			e.drop(src)
		}
	}
	clear(e.resolveQ)
	e.resolveQ = e.resolveQ[:0]
}

// publish marks local l of in ready. It wakes in's micro-ops that read l,
// all of which sit at index from or later, and queues the consumers waiting
// on l.
func (e *DCE) publish(in *Instance, l, from int) {
	in.ready[l] = true
	if !in.done() {
		if e.cfg.InOrderChainExec {
			e.wakeUop(in, len(in.chain.Uops)-in.unissued)
		} else {
			for i := from; i < len(in.chain.Uops); i++ {
				if u := &in.chain.Uops[i]; u.Src1 == l || u.Src2 == l {
					e.wakeUop(in, i)
				}
			}
		}
	}
	for p := in.waiters; p != nil; p = p.next {
		if p.srcLocal == l && !p.owner.done() {
			e.queueResolve(p.owner)
		}
	}
}

// wakeUop adds micro-op i to in's ready set when it can issue, and lists in
// for issue when that set was empty.
func (e *DCE) wakeUop(in *Instance, i int) {
	if !e.uopReady(in, i) {
		return
	}
	if in.readyUops.empty() {
		e.issueQ = insertRef(e.issueQ, in)
	}
	in.readyUops.add(i)
}

// uopReady reports whether in's micro-op i exists, is unissued and has its
// sources ready.
func (e *DCE) uopReady(in *Instance, i int) bool {
	return i < len(in.chain.Uops) && !in.issued[i] && e.srcsReady(in, &in.chain.Uops[i])
}

// completeExecution publishes the results whose latency has elapsed and
// completes instances whose branch resolved. It takes the due micro-ops off
// doneQ and handles them in instance id order, so completions are traced in
// that order. An instance done before the pass publishes nothing; one whose
// branch completes in it still publishes its other due results.
func (e *DCE) completeExecution(now uint64) {
	if len(e.doneQ) == 0 || e.doneQ[0].key > now {
		return
	}
	due := e.doneBuf[:0]
	for len(e.doneQ) > 0 && e.doneQ[0].key <= now {
		due = push(due, e.doneQ.pop())
	}
	slices.SortFunc(due, func(a, b event) int { return cmp.Compare(a.id, b.id) })
	skip := false
	for k, ev := range due {
		in := ev.in
		if k == 0 || ev.id != due[k-1].id {
			// First due result of this instance: skip them all when it was
			// already done, or recycled.
			skip = !ev.live() || in.done()
		}
		if skip {
			continue
		}
		i := ev.uop
		u := &in.chain.Uops[i]
		if u.Dst >= 0 {
			e.publish(in, u.Dst, i+1)
		}
		if i == len(in.chain.Uops)-1 {
			// The chain's branch: the outcome is ready.
			in.outcome = in.outcomes[i]
			in.completed = true
			e.activeRun--
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
	clear(due)
	e.doneBuf = due[:0]
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
		for m := in.envSrcs; m != 0; m &= m - 1 {
			r := bits.TrailingZeros64(m)
			ev := &in.env[r]
			if src := ev.src; src.ready[ev.srcLocal] {
				*ev = envVal{known: true, val: src.vals[ev.srcLocal]}
				in.envSrcs &^= 1 << r
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
// or queue, through the admission check a first initiation takes. Dead
// parents are dropped first, and only when a kill may have left one in the
// list. A window full at the start of the pass stays full through it, so
// then every entry is refused at once.
func (e *DCE) retryDeferred(now uint64) {
	if len(e.deferred) == 0 {
		return
	}
	if e.deferredStale {
		e.dropDeadDeferred()
	}
	if !e.windowFree() {
		e.ctr.initWindowFull.Add(uint64(len(e.deferred)))
		return
	}
	// Refused entries stay in place until the first launch. A launch can
	// defer new child initiations, which must land after the entries kept
	// so far, in a list built apart from the one being walked; so the first
	// launch moves the entries before it to the spare array, and the old
	// backing becomes next pass's spare. The two arrays ping-pong and grow
	// only to the longest list. A launch kills nothing, so no parent dies
	// during the walk.
	old := e.deferred
	inPlace := true
	for i := range old {
		d := &old[i]
		q, ok := e.admit(now, d.chain, d.q)
		if !ok {
			if q != nil {
				d.q = q
			}
			if !inPlace {
				e.deferred = push(e.deferred, *d) // keeps its parent reference
			}
			continue
		}
		if inPlace {
			e.deferred = append(e.deferredSpare[:0], old[:i]...) //brlint:allow hot-path-alloc
			inPlace = false
		}
		e.launch(now, d.chain, q, d.parent, nil)
		e.drop(d.parent)
	}
	if !inPlace {
		clear(old)
		e.deferredSpare = old[:0]
	}
}

// issue schedules ready chain micro-ops onto the DCE's functional units
// (or the core's spare slots for Core-Only). ALU micro-ops consume the
// DCE's own issue bandwidth; loads consume load ports backed by the shared
// D-cache (Figure 7: ALU0/ALU1 plus the D-cache path). It walks issueQ in
// id order and each instance's ready micro-ops in index order. An instance
// leaves the list when it has none left, and a pass that runs out of
// bandwidth leaves the rest of the list for the next cycle.
func (e *DCE) issue(now uint64) {
	if len(e.issueQ) == 0 {
		return
	}
	budget := e.cfg.IssueWidth
	if e.cfg.SharedWithCore {
		budget = e.spareIssue
	}
	loads := e.cfg.LoadPorts
	k, j := 0, 0
	for ; j < len(e.issueQ); j++ {
		if budget <= 0 && loads <= 0 {
			break
		}
		r := e.issueQ[j]
		in := r.in
		if !r.live() || in.done() {
			continue
		}
		for i := in.readyUops.next(0); i >= 0; i = in.readyUops.next(i + 1) {
			u := &in.chain.Uops[i]
			if u.Op == isa.OpLd {
				if loads <= 0 {
					continue // retry when a port frees
				}
				loads--
			} else {
				if budget <= 0 {
					continue
				}
				budget--
			}
			in.readyUops.remove(i)
			e.executeUop(now, in, i, u)
			if e.cfg.InOrderChainExec && e.uopReady(in, i+1) {
				in.readyUops.add(i + 1) // in stays listed: its set is not empty
			}
		}
		if !in.readyUops.empty() {
			e.issueQ[k] = r
			k++
		}
	}
	n := k + copy(e.issueQ[k:], e.issueQ[j:])
	clear(e.issueQ[n:])
	e.issueQ = e.issueQ[:n]
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
// committed memory) and models its latency, queueing its completion.
func (e *DCE) executeUop(now uint64, in *Instance, i int, u *ChainUop) {
	in.issued[i] = true
	in.unissued--
	var doneAt uint64
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
		doneAt = e.dcache.AccessSecondary(start, addr)
		e.ctr.loadsIssued.Inc()
	case isa.OpCmp:
		b := in.val(u.Src2)
		if u.UseImm {
			b = uint64(u.Imm)
		}
		in.vals[u.Dst] = isa.CompareFlags(in.val(u.Src1), b).Pack()
		doneAt = now + 1
	case isa.OpTest:
		b := in.val(u.Src2)
		if u.UseImm {
			b = uint64(u.Imm)
		}
		in.vals[u.Dst] = isa.TestFlags(in.val(u.Src1), b).Pack()
		doneAt = now + 1
	case isa.OpBr:
		in.outcomes[i] = u.Cond.Eval(isa.UnpackFlags(in.val(u.Src1)))
		doneAt = now + 1
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
		doneAt = now + lat
	}
	e.doneQ.push(event{key: doneAt, instRef: instRef{in, in.id}, uop: i})
}

// ActiveInstances returns the current window occupancy.
func (e *DCE) ActiveInstances() int { return e.activeRun }
