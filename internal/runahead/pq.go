package runahead

import "repro/internal/trace"

// The prediction queues (paper §4.2) synchronize DCE-computed branch
// outcomes with instruction fetch. Each targeted branch owns one queue.
// Slots are allocated at chain initiation (so they appear in program
// order), filled at chain completion, consumed at fetch and reclaimed at
// retire — three pointers, with the fetch pointer checkpointed per branch
// and restored on recovery. A 2-bit throttle counter per queue suppresses
// the DCE when it persistently loses to TAGE.

type pqSlot struct {
	filled   bool
	value    bool
	consumed bool // consumed by fetch before being filled ("late")
}

// Queue is one per-branch prediction queue.
type Queue struct {
	// assigned distinguishes a queue bound to a branch from a free one;
	// branchPC alone cannot, because PC 0 is a legal branch address.
	assigned bool
	branchPC uint64
	slots    []pqSlot
	// Monotonic pointers; slot i lives at slots[i % len].
	alloc  uint64
	fetch  uint64
	retire uint64
	// gen invalidates stale fetch-pointer checkpoints across resets.
	gen      uint64
	throttle int8
	active   bool
	lastUse  uint64
}

func (q *Queue) slot(i uint64) *pqSlot { return &q.slots[i%uint64(len(q.slots))] }

// full reports whether no more slots can be allocated.
func (q *Queue) full() bool { return q.alloc-q.retire >= uint64(len(q.slots)) }

// reset synchronizes the queue with fetch (runahead entry): all pointers
// rewind and in-flight checkpoints become stale.
func (q *Queue) reset(now uint64) {
	q.alloc, q.fetch, q.retire = 0, 0, 0
	q.gen++
	q.active = true
	q.lastUse = now
	for i := range q.slots {
		q.slots[i] = pqSlot{}
	}
}

// PQSet manages the fixed set of prediction queues.
type PQSet struct {
	cfg    *Config
	queues []*Queue
	byPC   map[uint64]*Queue

	// cpPool recycles released fetch-pointer checkpoints; Checkpoint is
	// called once per conditional-branch fetch, so pooling keeps that
	// path allocation-free in steady state. A free list is never part of
	// the architectural state.
	cpPool []*pqCheckpoint

	// tr is the structured event tracer (nil when tracing is off).
	tr *trace.Tracer
}

// NewPQSet builds the queue set.
func NewPQSet(cfg *Config) *PQSet {
	if err := cfg.Validate(); err != nil {
		panic("runahead: " + err.Error())
	}
	s := &PQSet{cfg: cfg, byPC: make(map[uint64]*Queue, cfg.NumQueues)}
	s.queues = make([]*Queue, cfg.NumQueues)
	for i := range s.queues {
		s.queues[i] = &Queue{slots: make([]pqSlot, cfg.QueueEntries)}
	}
	// Prefill the checkpoint pool to a typical in-flight branch count so
	// the Checkpoint cold path rarely runs at all.
	s.cpPool = make([]*pqCheckpoint, 0, 64)
	for i := 0; i < 32; i++ {
		s.cpPool = append(s.cpPool, &pqCheckpoint{
			fetch: make([]uint64, len(s.queues)),
			gen:   make([]uint64, len(s.queues)),
		})
	}
	return s
}

// For returns the queue assigned to pc, if any.
func (s *PQSet) For(pc uint64) *Queue {
	return s.byPC[pc]
}

// Ensure returns pc's queue, assigning one (evicting the least recently
// used inactive queue, then the overall LRU) when needed.
func (s *PQSet) Ensure(pc uint64, now uint64) *Queue {
	if q := s.byPC[pc]; q != nil {
		q.lastUse = now
		return q
	}
	var victim *Queue
	for _, q := range s.queues {
		if !q.assigned {
			victim = q
			break
		}
	}
	if victim == nil {
		// Prefer inactive queues; break ties by least recent use.
		for _, q := range s.queues {
			switch {
			case victim == nil:
				victim = q
			case !q.active && victim.active:
				victim = q
			case q.active == victim.active && q.lastUse < victim.lastUse:
				victim = q
			}
		}
	}
	if victim == nil {
		return nil
	}
	if victim.assigned {
		delete(s.byPC, victim.branchPC)
	}
	victim.assigned = true
	victim.branchPC = pc
	victim.reset(now)
	victim.active = false // becomes active at the first synchronization
	victim.throttle = 0
	s.byPC[pc] = victim
	return victim
}

// ensureVia is Ensure for a caller that found pc's queue before: while
// hint is still assigned to pc it is the queue Ensure would return, so only
// Ensure's hit path (the lastUse stamp) runs and the map is not read.
func (s *PQSet) ensureVia(hint *Queue, pc uint64, now uint64) *Queue {
	if hint != nil && hint.assigned && hint.branchPC == pc {
		hint.lastUse = now
		return hint
	}
	return s.Ensure(pc, now)
}

// pqCheckpoint snapshots every queue's fetch pointer (taken at each
// conditional branch fetch; restored on recovery). Generations guard
// against queues that were reset or reassigned in between.
type pqCheckpoint struct {
	fetch []uint64
	gen   []uint64
}

// Checkpoint captures all fetch pointers, reusing a released checkpoint
// when one is pooled.
func (s *PQSet) Checkpoint() *pqCheckpoint {
	var cp *pqCheckpoint
	if last := len(s.cpPool) - 1; last >= 0 {
		cp = s.cpPool[last]
		s.cpPool[last] = nil
		s.cpPool = s.cpPool[:last]
	} else {
		// Cold-path pool fill: runs once per pooled checkpoint beyond the
		// prefill, then the object is recycled forever.
		cp = &pqCheckpoint{ //brlint:allow hot-path-alloc
			fetch: make([]uint64, len(s.queues)), //brlint:allow hot-path-alloc
			gen:   make([]uint64, len(s.queues)), //brlint:allow hot-path-alloc
		}
	}
	for i, q := range s.queues {
		cp.fetch[i] = q.fetch
		cp.gen[i] = q.gen
	}
	return cp
}

// Release returns a checkpoint to the pool once no in-flight branch can
// restore to it. A checkpoint must be released at most once.
func (s *PQSet) Release(cp *pqCheckpoint) {
	if cp == nil {
		return
	}
	// Pool growth is bounded by the in-flight branch count and amortizes
	// to zero.
	s.cpPool = append(s.cpPool, cp) //brlint:allow hot-path-alloc
}

// RestoreAt rewinds fetch pointers to a checkpoint, reinserting previously
// consumed predictions into their original queue positions. now is the
// recovery cycle: every queue whose fetch pointer actually rewinds emits a
// pq_restore event.
func (s *PQSet) RestoreAt(now uint64, cp *pqCheckpoint) {
	if cp == nil {
		return
	}
	for i, q := range s.queues {
		if q.gen != cp.gen[i] {
			continue
		}
		if s.tr.Enabled() && q.fetch != cp.fetch[i] {
			s.tr.Emit(trace.Event{
				Cycle: now, PC: q.branchPC, Kind: trace.KindPQRestore,
				Arg: cp.fetch[i], Val: q.fetch,
			})
		}
		q.fetch = cp.fetch[i]
	}
}

// slotRef identifies a consumed slot; stored on the DynUop that consumed it
// so retire-side bookkeeping can find it.
type slotRef struct {
	q    *Queue
	idx  uint64
	gen  uint64
	used bool // the DCE value was actually used as the prediction
	cat  predCategory
	// counted marks refs already accounted at resolve time (a used-wrong
	// prediction resynchronizes the queue, so retire-time bookkeeping
	// would otherwise miss it).
	counted bool
}

// predCategory classifies a targeted-branch prediction for Figure 12.
type predCategory uint8

const (
	catInactive predCategory = iota
	catLate
	catThrottled
	catUsed
)

// traceCat maps a predCategory onto the trace package's category codes
// (kept separate so internal/trace stays dependency-free).
func traceCat(c predCategory) uint64 {
	switch c {
	case catInactive:
		return trace.CatInactive
	case catLate:
		return trace.CatLate
	case catThrottled:
		return trace.CatThrottled
	default:
		return trace.CatUsed
	}
}

func (c predCategory) String() string {
	switch c {
	case catInactive:
		return "inactive"
	case catLate:
		return "late"
	case catThrottled:
		return "throttled"
	default:
		return "used"
	}
}
