package core

import (
	"repro/internal/emu"
	"repro/internal/isa"
)

// storeRec is one in-flight store visible to younger fetch-time loads.
type storeRec struct {
	d    *DynUop
	addr uint64
	size uint8
	val  uint64
}

// feCheckpoint snapshots the front-end functional state before a branch.
// The store overlay is not copied: recovery trims it by sequence number.
type feCheckpoint struct {
	regs    emu.RegFile
	pos     uint64 // source stream position (trace-driven sources)
	invalid bool
	halted  bool
}

// frontend is the fetch engine: it obtains each micro-op and its
// architectural effects from an InstrSource at fetch time, following
// predicted branch directions (and so walking real wrong paths), with
// in-flight stores forwarded to younger loads through the overlay. Whether
// the effects come from functional execution or trace replay is the
// source's business.
type frontend struct {
	src  InstrSource
	mem  *emu.Memory // committed architectural memory (src.Memory())
	regs emu.RegFile
	pc   uint64

	stores []storeRec
	// storeBuf is the fixed backing array of the front-popping stores
	// overlay; pure storage, rebuilt by the constructor.
	storeBuf []storeRec

	// uops is the DynUop pool and free its free stack. Every fetched
	// micro-op sits in the fetch queue or the ROB until it retires or is
	// squashed, so FetchQSize+ROBSize micro-ops are the most that can be in
	// flight and the stack never runs dry. Pure storage, rebuilt full.
	uops []DynUop
	free []*DynUop

	// invalid is set when fetch has run off the program (possible only on
	// the wrong path); fetch stalls until a recovery redirects it.
	invalid bool
	// halted is set when OpHalt is fetched on the correct path.
	halted bool
	// srcErr is the sticky fatal source error (trace exhausted/diverged).
	// Fetch stalls permanently; Core.Run surfaces it to the caller.
	srcErr error
}

// newFrontend builds a fetch engine over src; inFlight is the
// architectural bound on in-flight micro-ops (every un-retired micro-op
// sits in the fetch queue or the ROB), which sizes both the DynUop pool and
// the store overlay.
func newFrontend(src InstrSource, inFlight int) *frontend {
	f := &frontend{src: src, mem: src.Memory(), pc: src.Entry()}
	f.storeBuf = make([]storeRec, 2*inFlight)
	f.stores = f.storeBuf[:0]
	f.uops = make([]DynUop, inFlight)
	for i := range f.uops {
		f.uops[i].idx = uint16(i)
	}
	f.free = make([]*DynUop, 0, inFlight)
	f.refillPool()
	return f
}

// refillPool returns every DynUop to the free stack; only valid when none
// is in flight (construction, a warmup fork).
func (f *frontend) refillPool() {
	f.free = f.free[:len(f.uops)]
	for i := range f.uops {
		f.free[i] = &f.uops[i]
	}
}

// poolFull reports whether every DynUop is back on the free stack.
func (f *frontend) poolFull() bool { return len(f.free) == len(f.uops) }

// newDynUop pops a DynUop off the free stack and zeroes it, all but its
// pool index. Zeroing here, not at release, keeps a released micro-op's
// Seq, State and links readable until it is handed out again.
func (f *frontend) newDynUop() *DynUop {
	n := len(f.free) - 1
	if n < 0 {
		panic("core: DynUop pool exhausted (more micro-ops in flight than FetchQSize+ROBSize)")
	}
	d := f.free[n]
	f.free = f.free[:n]
	*d = DynUop{idx: d.idx}
	return d
}

// releaseDynUop pushes a retired or squashed DynUop back on the free stack.
func (f *frontend) releaseDynUop(d *DynUop) {
	n := len(f.free)
	f.free = f.free[:n+1]
	f.free[n] = d
}

// Load implements emu.MemView: committed memory patched with in-flight
// stores, youngest-writer-wins per byte.
func (f *frontend) Load(addr uint64, size uint8, signed bool) uint64 {
	var v uint64
	for i := uint8(0); i < size; i++ {
		a := addr + uint64(i)
		b := f.mem.ByteAt(a)
		for j := len(f.stores) - 1; j >= 0; j-- {
			s := &f.stores[j]
			if a >= s.addr && a < s.addr+uint64(s.size) {
				b = byte(s.val >> (8 * (a - s.addr)))
				break
			}
		}
		v |= uint64(b) << (8 * i)
	}
	if signed {
		v = emu.SignExtend(v, size)
	}
	return v
}

// Store implements emu.MemView; the store record is appended by fetchUop
// (which knows the DynUop), so this is a no-op hook.
func (f *frontend) Store(uint64, uint8, uint64) {}

// checkpoint captures the register state, source position and stall flags.
func (f *frontend) checkpoint() feCheckpoint {
	return feCheckpoint{regs: f.regs, pos: f.src.Pos(), invalid: f.invalid, halted: f.halted}
}

// recover restores the checkpointed state, rewinds the source, trims
// wrong-path stores and redirects fetch to pc. The trimmed stores' DynUops
// are already back in the pool, but keep their Seq until handed out again.
func (f *frontend) recover(cp feCheckpoint, pc uint64, causeSeq uint64) {
	f.regs = cp.regs
	f.src.SetPos(cp.pos)
	f.invalid = false
	f.halted = cp.halted
	f.pc = pc
	n := len(f.stores)
	for n > 0 && f.stores[n-1].d.Seq > causeSeq {
		n--
	}
	f.stores = f.stores[:n]
}

// retireStore commits the oldest overlay store to architectural memory.
func (f *frontend) retireStore(d *DynUop) {
	if len(f.stores) == 0 || f.stores[0].d != d {
		// The overlay is strictly ordered; a mismatch means the pipeline
		// retired a store the front-end never recorded.
		panic("core: store overlay out of sync at retire")
	}
	s := f.stores[0]
	f.stores = f.stores[1:]
	f.mem.Write(s.addr, s.size, s.val)
}

// fetchUop obtains the micro-op at the current fetch PC from the source and
// returns its effects. It returns nil when fetch is stalled (off-program PC,
// halt seen, or a fatal source error).
func (f *frontend) fetchUop(seq uint64, wrongPath bool) *DynUop {
	if f.invalid || f.halted {
		return nil
	}
	u, res, err := f.src.FetchExec(f.pc, &f.regs, f, wrongPath)
	if err != nil {
		f.srcErr = err
		f.invalid = true
		return nil
	}
	if u == nil {
		f.invalid = true
		return nil
	}
	d := f.newDynUop()
	d.Seq = seq
	d.U = u
	d.Res = res
	f.pc = res.NextPC
	switch u.Op {
	case isa.OpSt:
		f.stores = pushQueue(f.storeBuf, f.stores,
			storeRec{d: d, addr: d.Res.MemAddr, size: d.Res.MemSize, val: d.Res.StoreVal})
	case isa.OpLd:
		// Record the youngest older in-flight store this load overlaps:
		// the backend forwards from it rather than accessing the cache.
		for j := len(f.stores) - 1; j >= 0; j-- {
			sr := &f.stores[j]
			if d.Res.MemAddr < sr.addr+uint64(sr.size) && sr.addr < d.Res.MemAddr+uint64(d.Res.MemSize) {
				d.storeDep, d.storeSeq = sr.d, sr.d.Seq
				break
			}
		}
	case isa.OpHalt:
		f.halted = true
	}
	return d
}

// redirect forces the next fetch PC (used to steer down a predicted path).
func (f *frontend) redirect(pc uint64) { f.pc = pc }
