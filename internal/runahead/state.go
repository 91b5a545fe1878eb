package runahead

import (
	"fmt"

	"repro/internal/brstate"
	"repro/internal/isa"
	"repro/internal/program"
)

// Snapshot support for the Branch Runahead stack. Snapshots are only taken
// at quiesce barriers (see System.Quiesce): the DCE's dynamic instances form
// a pointer graph (environment references into producer instances) that is
// deliberately discarded — deterministically, in every run that crosses the
// barrier — rather than serialized. What persists across a snapshot is the
// learned state: the HBT, the chain cache, the CEB history, the prediction
// queues' persistent bindings, the initiation predictor and all counters.

// StateVersion values for the runahead section envelopes.
const (
	HBTStateVersion        = 1
	CEBStateVersion        = 1
	ChainCacheStateVersion = 1
	PQSetStateVersion      = 1
	DCEStateVersion        = 1
	SystemStateVersion     = 1
)

// Quiesce discards all speculative in-flight engine state at a snapshot
// barrier: live chain instances are killed, deferred initiations dropped and
// every assigned prediction queue is reset and deactivated (it reactivates
// at the next synchronization, exactly as after a divergence). The barrier
// runs in every simulation that crosses it — whether or not a snapshot is
// written — so a resumed run and a straight-through run see identical state.
// Every chain instance goes back to the pool; one that does not is an
// error, as a non-full micro-op pool is for core.Drain.
func (s *System) Quiesce(now uint64) error {
	return s.dce.quiesce(now)
}

func (e *DCE) quiesce(now uint64) error {
	for _, in := range e.all {
		if !in.done() {
			e.kill(now, in)
		}
	}
	for len(e.all) > 0 {
		e.popAll()
	}
	for _, in := range e.run {
		e.drop(in)
	}
	clear(e.run)
	e.run = e.run[:0]
	for _, d := range e.deferred {
		e.drop(d.parent)
	}
	clear(e.deferred)
	e.deferred = e.deferred[:0]
	e.activeRun = 0
	e.resetScans()
	for _, q := range e.pqs.queues {
		if q.assigned {
			q.reset(now)
			q.active = false
		}
	}
	if e.live != 0 {
		return fmt.Errorf("runahead: quiesced DCE still holds %d chain instances", e.live)
	}
	return nil
}

// resetScans clears the scan-skip flags of an engine with no instances.
func (e *DCE) resetScans() {
	e.runDirty, e.pendingDirty, e.awake = false, false, false
	e.nextDone = 0
}

// SaveState implements brstate.Saver.
func (h *HBT) SaveState(w *brstate.Writer) {
	w.Len(len(h.entries))
	for i := range h.entries {
		e := &h.entries[i]
		w.U64(e.pc)
		w.Bool(e.valid)
		w.U8(e.misp)
		w.Bool(e.ag)
		w.Bool(e.agc)
		w.U64(e.agl)
		w.U8(e.bias)
		w.Bool(e.biasDir)
		w.Bool(e.biasInit)
	}
	w.U64(h.rng)
	w.U64(h.retiredBranches)
}

// LoadState implements brstate.Loader; the PC index is rebuilt from the
// entry array.
func (h *HBT) LoadState(r *brstate.Reader) error {
	if !r.Len(len(h.entries)) {
		return r.Err()
	}
	h.byPC = make(map[uint64]int, len(h.entries))
	for i := range h.entries {
		e := &h.entries[i]
		e.pc = r.U64()
		e.valid = r.Bool()
		e.misp = r.U8()
		e.ag = r.Bool()
		e.agc = r.Bool()
		e.agl = r.U64()
		e.bias = r.U8()
		e.biasDir = r.Bool()
		e.biasInit = r.Bool()
		if e.valid {
			h.byPC[e.pc] = i
		}
	}
	h.rng = r.U64()
	h.retiredBranches = r.U64()
	return r.Err()
}

// SaveState writes the buffer contents. Micro-op pointers are encoded as
// program PCs (PCs index the program's micro-op array) and rehydrated
// through the program at load.
func (c *CEB) SaveState(w *brstate.Writer) {
	w.Len(len(c.buf))
	w.Int(c.head)
	w.Int(c.count)
	for i := range c.buf {
		e := &c.buf[i]
		if e.u == nil {
			w.Bool(false)
			continue
		}
		w.Bool(true)
		w.U64(e.u.PC)
		w.Bool(e.taken)
		w.U64(e.memAddr)
	}
}

// LoadState mirrors SaveState, resolving PCs through prog.
func (c *CEB) LoadState(r *brstate.Reader, prog *program.Program) error {
	if !r.Len(len(c.buf)) {
		return r.Err()
	}
	c.head = r.Int()
	c.count = r.Int()
	for i := range c.buf {
		if !r.Bool() {
			c.buf[i] = cebEntry{}
			continue
		}
		pc := r.U64()
		taken := r.Bool()
		memAddr := r.U64()
		if r.Err() != nil {
			return r.Err()
		}
		u := prog.At(pc)
		if u == nil {
			return fmt.Errorf("runahead: CEB snapshot PC %d outside program %q", pc, prog.Name)
		}
		c.buf[i] = cebEntry{u: u, taken: taken, memAddr: memAddr}
	}
	return r.Err()
}

func saveBinding(w *brstate.Writer, b LiveBinding) {
	w.U8(uint8(b.Arch))
	w.Int(b.Local)
}

func loadBinding(r *brstate.Reader) LiveBinding {
	return LiveBinding{Arch: isa.Reg(r.U8()), Local: r.Int()}
}

func saveChain(w *brstate.Writer, ch *Chain) {
	w.U64(ch.BranchPC)
	w.U64(ch.Tag.PC)
	w.U8(uint8(ch.Tag.Out))
	w.Len(len(ch.Uops))
	for i := range ch.Uops {
		u := &ch.Uops[i]
		w.U8(uint8(u.Op))
		w.Int(u.Dst)
		w.Int(u.Src1)
		w.Int(u.Src2)
		w.I64(u.Imm)
		w.Bool(u.UseImm)
		w.U8(u.Scale)
		w.U8(u.MemSize)
		w.Bool(u.Signed)
		w.U8(uint8(u.Cond))
		w.U64(u.OrigPC)
	}
	w.Len(len(ch.LiveIns))
	for _, b := range ch.LiveIns {
		saveBinding(w, b)
	}
	w.Len(len(ch.LiveOuts))
	for _, b := range ch.LiveOuts {
		saveBinding(w, b)
	}
	w.Int(ch.NumLocals)
	w.Int(ch.Loads)
}

func loadChain(r *brstate.Reader) *Chain {
	ch := &Chain{
		BranchPC: r.U64(),
		Tag:      Tag{PC: r.U64(), Out: TagOutcome(r.U8())},
	}
	n := r.LenAny()
	for i := 0; i < n && r.Err() == nil; i++ {
		ch.Uops = append(ch.Uops, ChainUop{
			Op:      isa.Op(r.U8()),
			Dst:     r.Int(),
			Src1:    r.Int(),
			Src2:    r.Int(),
			Imm:     r.I64(),
			UseImm:  r.Bool(),
			Scale:   r.U8(),
			MemSize: r.U8(),
			Signed:  r.Bool(),
			Cond:    isa.Cond(r.U8()),
			OrigPC:  r.U64(),
		})
	}
	n = r.LenAny()
	for i := 0; i < n && r.Err() == nil; i++ {
		ch.LiveIns = append(ch.LiveIns, loadBinding(r))
	}
	n = r.LenAny()
	for i := 0; i < n && r.Err() == nil; i++ {
		ch.LiveOuts = append(ch.LiveOuts, loadBinding(r))
	}
	ch.NumLocals = r.Int()
	ch.Loads = r.Int()
	return ch
}

// SaveState implements brstate.Saver.
func (c *ChainCache) SaveState(w *brstate.Writer) {
	w.Len(len(c.chains))
	for _, e := range c.chains {
		saveChain(w, e.chain)
		w.U64(e.lru)
	}
	w.U64(c.clock)
}

// LoadState implements brstate.Loader, replacing the cached chains.
func (c *ChainCache) LoadState(r *brstate.Reader) error {
	n := r.LenAny()
	if n > c.cap {
		return fmt.Errorf("runahead: snapshot holds %d chains, cache capacity is %d", n, c.cap)
	}
	c.chains = c.chains[:0]
	for i := 0; i < n && r.Err() == nil; i++ {
		ch := loadChain(r)
		lru := r.U64()
		if r.Err() == nil {
			c.chains = append(c.chains, &ccEntry{chain: ch, lru: lru})
		}
	}
	c.clock = r.U64()
	return r.Err()
}

// SaveState implements brstate.Saver: every queue's persistent binding and
// slot contents. The checkpoint pool is scratch (all checkpoints are
// released once the core drains) and is not serialized.
func (s *PQSet) SaveState(w *brstate.Writer) {
	w.Len(len(s.queues))
	for _, q := range s.queues {
		w.Bool(q.assigned)
		w.U64(q.branchPC)
		w.Len(len(q.slots))
		for _, sl := range q.slots {
			w.Bool(sl.filled)
			w.Bool(sl.value)
			w.Bool(sl.consumed)
		}
		w.U64(q.alloc)
		w.U64(q.fetch)
		w.U64(q.retire)
		w.U64(q.gen)
		w.I8(int8(q.throttle))
		w.Bool(q.active)
		w.U64(q.lastUse)
	}
}

// LoadState implements brstate.Loader; the PC index is rebuilt from the
// assigned queues.
func (s *PQSet) LoadState(r *brstate.Reader) error {
	if !r.Len(len(s.queues)) {
		return r.Err()
	}
	s.byPC = make(map[uint64]*Queue, len(s.queues))
	for _, q := range s.queues {
		q.assigned = r.Bool()
		q.branchPC = r.U64()
		if !r.Len(len(q.slots)) {
			return r.Err()
		}
		for i := range q.slots {
			q.slots[i].filled = r.Bool()
			q.slots[i].value = r.Bool()
			q.slots[i].consumed = r.Bool()
		}
		q.alloc = r.U64()
		q.fetch = r.U64()
		q.retire = r.U64()
		q.gen = r.U64()
		q.throttle = r.I8()
		q.active = r.Bool()
		q.lastUse = r.U64()
		if q.assigned && r.Err() == nil {
			s.byPC[q.branchPC] = q
		}
	}
	return r.Err()
}

// SaveState implements brstate.Saver for the engine's persistent state: the
// initiation predictor, the instance ID counter and the event counters. It
// requires a quiesced engine (no live instances) — see System.Quiesce.
func (e *DCE) SaveState(w *brstate.Writer) {
	if e.activeRun != 0 || len(e.all) != 0 || len(e.run) != 0 || len(e.deferred) != 0 || e.live != 0 {
		panic("runahead: DCE.SaveState requires a quiesced engine")
	}
	e.initPred.SaveState(w)
	w.U64(e.nextID)
	e.C.SaveState(w)
}

// LoadState implements brstate.Loader.
func (e *DCE) LoadState(r *brstate.Reader) error {
	if err := e.initPred.LoadState(r); err != nil {
		return err
	}
	e.nextID = r.U64()
	// The pool starts over: instances still out are abandoned, not
	// recycled.
	e.all, e.allBuf = nil, nil
	e.run = e.run[:0]
	e.deferred = e.deferred[:0]
	e.free, e.live = nil, 0
	e.activeRun = 0
	e.resetScans()
	if err := r.Err(); err != nil {
		return err
	}
	return e.C.LoadState(r)
}

// SaveState implements brstate.Saver for the whole extension. The system
// must be quiesced (System.Quiesce) first.
func (s *System) SaveState(w *brstate.Writer) {
	s.hbt.SaveState(w)
	s.ceb.SaveState(w)
	s.cc.SaveState(w)
	s.pqs.SaveState(w)
	s.dce.SaveState(w)
	s.mp.SaveState(w)
	s.mpLayout.SaveState(w)
	w.U64(s.extractBusyUntil)
	w.U64(s.chainLenSum)
	w.U64(s.chainCount)
	w.U64(s.chainAGTagged)
	s.C.SaveState(w)
}

// LoadState restores a snapshot written by SaveState. It deviates from
// brstate.Loader by taking the program, which rehydrates the CEB's micro-op
// references.
func (s *System) LoadState(r *brstate.Reader, prog *program.Program) error {
	if err := s.hbt.LoadState(r); err != nil {
		return err
	}
	if err := s.ceb.LoadState(r, prog); err != nil {
		return err
	}
	if err := s.cc.LoadState(r); err != nil {
		return err
	}
	if err := s.pqs.LoadState(r); err != nil {
		return err
	}
	if err := s.dce.LoadState(r); err != nil {
		return err
	}
	if err := s.mp.LoadState(r); err != nil {
		return err
	}
	if err := s.mpLayout.LoadState(r); err != nil {
		return err
	}
	s.extractBusyUntil = r.U64()
	s.chainLenSum = r.U64()
	s.chainCount = r.U64()
	s.chainAGTagged = r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	return s.C.LoadState(r)
}
