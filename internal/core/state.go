package core

import (
	"sort"

	"repro/internal/brstate"
	"repro/internal/emu"
	"repro/internal/isa"
)

// StateVersion is the core snapshot payload version.
const StateVersion = 1

// SaveState implements brstate.Saver for a drained core (see Drain): the
// clock, sequence numbers, fetch-steering state, the front-end architectural
// registers and the per-branch statistics. The committed memory image, the
// branch predictor and the cache hierarchy are owned sections of the
// warmup snapshot, saved by their own components.
func (c *Core) SaveState(w *brstate.Writer) {
	if len(c.rob) != 0 || len(c.fetchQ) != 0 || c.rsCount != 0 {
		panic("core: SaveState requires a drained pipeline")
	}
	w.U64(c.now)
	w.U64(c.seq)
	w.U64(c.fetchStallUntil)
	w.U64(c.lineReadyAt)
	w.U64(c.curFetchLine)
	w.Bool(c.haltRetired)
	emu.SaveRegFile(w, &c.fe.regs)
	w.U64(c.fe.pc)
	w.Bool(c.fe.invalid)
	w.Bool(c.fe.halted)
	pcs := make([]uint64, 0, len(c.Branches))
	// Key gathering is order-insensitive; the sort below restores determinism.
	for pc := range c.Branches { //brlint:allow determinism
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	w.Len(len(pcs))
	for _, pc := range pcs {
		bs := c.Branches[pc]
		w.U64(bs.PC)
		w.U64(bs.Execs)
		w.U64(bs.Mispred)
		w.U64(bs.Taken)
		w.U64(bs.DCEUsed)
		w.U64(bs.DCECorrect)
	}
	c.C.SaveState(w)
	// Source state beyond the architectural registers/PC/memory above. The
	// execution-driven source writes nothing here, so pre-seam snapshots
	// stay byte-identical and loadable; the trace source persists its
	// stream position.
	c.src.SaveExtra(w)
}

// LoadState implements brstate.Loader, restoring into a freshly-constructed
// core (same config, program and wiring). All pipeline structures are left
// empty, matching the drained state the snapshot was taken in.
func (c *Core) LoadState(r *brstate.Reader) error {
	c.now = r.U64()
	c.seq = r.U64()
	c.fetchStallUntil = r.U64()
	c.lineReadyAt = r.U64()
	c.curFetchLine = r.U64()
	c.haltRetired = r.Bool()
	emu.LoadRegFile(r, &c.fe.regs)
	c.fe.pc = r.U64()
	c.fe.invalid = r.Bool()
	c.fe.halted = r.Bool()
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
	n := r.LenBounded(48) // 6 u64 fields per entry
	c.Branches = make(map[uint64]*BranchStat, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		bs := &BranchStat{
			PC:         r.U64(),
			Execs:      r.U64(),
			Mispred:    r.U64(),
			Taken:      r.U64(),
			DCEUsed:    r.U64(),
			DCECorrect: r.U64(),
		}
		if r.Err() == nil {
			c.Branches[bs.PC] = bs
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if err := c.C.LoadState(r); err != nil {
		return err
	}
	return c.src.LoadExtra(r)
}
