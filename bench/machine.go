package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bpred"
	"repro/internal/btrace"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/runahead"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// layer is one timed layer of the simulated machine.
type layer int

const (
	lCore   layer = iota // Core.Run minus everything below
	lEmu                 // emu.Source.FetchExec
	lBtrace              // btrace.Source.FetchExec
	lBpred               // every bpred.Predictor call
	lTick                // runahead System.Tick (the DCE)
	lHook                // every other core.Extension call
	lL2                  // L2 Access (from L1s, TLB walks and the DCE)
	lDRAM                // DRAM Access (L2 misses, writebacks, prefetches)
	nLayers
)

// layerClock attributes host time to layers with a call stack: the layer
// on top of the stack owns the time between two consecutive boundary
// crossings, so every interval is charged to exactly one layer and the
// self times add up to the outermost spans.
type layerClock struct {
	stack []layer
	mark  time.Time
	self  [nLayers]time.Duration
	calls [nLayers]uint64
	span  time.Duration // total of the outermost (Core.Run) spans
	start time.Time
}

func newLayerClock() *layerClock {
	return &layerClock{stack: make([]layer, 0, 8)}
}

func (c *layerClock) enter(l layer) {
	now := time.Now()
	if n := len(c.stack); n > 0 {
		c.self[c.stack[n-1]] += now.Sub(c.mark)
	} else {
		c.start = now
	}
	// Layers nest at most four deep (core, runahead, L2, DRAM), within the
	// stack's initial capacity.
	c.stack = append(c.stack, l) //brlint:allow hot-path-alloc
	c.calls[l]++
	c.mark = now
}

func (c *layerClock) exit() {
	now := time.Now()
	n := len(c.stack) - 1
	c.self[c.stack[n]] += now.Sub(c.mark)
	c.stack = c.stack[:n]
	c.mark = now
	if n == 0 {
		c.span += now.Sub(c.start)
	}
}

// timedSource times the instruction source's fetch; the other methods are
// off the per-uop path and pass through.
type timedSource struct {
	core.InstrSource
	clk *layerClock
	l   layer
}

func (s timedSource) FetchExec(pc uint64, regs *emu.RegFile, view emu.MemView, wrongPath bool) (*isa.Uop, emu.StepResult, error) {
	s.clk.enter(s.l)
	u, res, err := s.InstrSource.FetchExec(pc, regs, view, wrongPath)
	s.clk.exit()
	return u, res, err
}

// timedPredictor times every predictor call the core makes.
type timedPredictor struct {
	bpred.Predictor
	clk *layerClock
}

func (p timedPredictor) Predict(pc uint64) (bool, bpred.Info) {
	p.clk.enter(lBpred)
	taken, info := p.Predictor.Predict(pc)
	p.clk.exit()
	return taken, info
}

func (p timedPredictor) OnFetch(pc uint64, dir bool) {
	p.clk.enter(lBpred)
	p.Predictor.OnFetch(pc, dir)
	p.clk.exit()
}

func (p timedPredictor) Checkpoint() bpred.Snapshot {
	p.clk.enter(lBpred)
	s := p.Predictor.Checkpoint()
	p.clk.exit()
	return s
}

func (p timedPredictor) Restore(s bpred.Snapshot) {
	p.clk.enter(lBpred)
	p.Predictor.Restore(s)
	p.clk.exit()
}

func (p timedPredictor) Release(s bpred.Snapshot) {
	p.clk.enter(lBpred)
	p.Predictor.Release(s)
	p.clk.exit()
}

func (p timedPredictor) Commit(pc uint64, taken, pred bool, info bpred.Info) {
	p.clk.enter(lBpred)
	p.Predictor.Commit(pc, taken, pred, info)
	p.clk.exit()
}

func (p timedPredictor) ReleaseInfo(info bpred.Info) {
	p.clk.enter(lBpred)
	p.Predictor.ReleaseInfo(info)
	p.clk.exit()
}

// timedExtension times every hook the core calls on the Branch Runahead
// system, with the per-cycle Tick apart from the event hooks.
type timedExtension struct {
	ext core.Extension
	clk *layerClock
}

func (e timedExtension) FetchCondBranch(now uint64, d *core.DynUop, basePred bool) (bool, bool) {
	e.clk.enter(lHook)
	pred, fromDCE := e.ext.FetchCondBranch(now, d, basePred)
	e.clk.exit()
	return pred, fromDCE
}

func (e timedExtension) Checkpoint() interface{} {
	e.clk.enter(lHook)
	s := e.ext.Checkpoint()
	e.clk.exit()
	return s
}

func (e timedExtension) Restore(now uint64, snap interface{}) {
	e.clk.enter(lHook)
	e.ext.Restore(now, snap)
	e.clk.exit()
}

func (e timedExtension) ReleaseCheckpoint(snap interface{}) {
	e.clk.enter(lHook)
	e.ext.ReleaseCheckpoint(snap)
	e.clk.exit()
}

func (e timedExtension) BranchResolved(now uint64, d *core.DynUop, correctRegs *emu.RegFile) {
	e.clk.enter(lHook)
	e.ext.BranchResolved(now, d, correctRegs)
	e.clk.exit()
}

func (e timedExtension) Flush(now uint64, cause *core.DynUop, squashed []*core.DynUop) {
	e.clk.enter(lHook)
	e.ext.Flush(now, cause, squashed)
	e.clk.exit()
}

func (e timedExtension) Retired(now uint64, d *core.DynUop) {
	e.clk.enter(lHook)
	e.ext.Retired(now, d)
	e.clk.exit()
}

func (e timedExtension) ReleaseUopData(data interface{}) {
	e.clk.enter(lHook)
	e.ext.ReleaseUopData(data)
	e.clk.exit()
}

func (e timedExtension) Tick(now uint64, info core.TickInfo) {
	e.clk.enter(lTick)
	e.ext.Tick(now, info)
	e.clk.exit()
}

func (e timedExtension) Idle() bool {
	e.clk.enter(lHook)
	idle := e.ext.Idle()
	e.clk.exit()
	return idle
}

// timedLevel times a memory level's Access.
type timedLevel struct {
	next cache.MemLevel
	clk  *layerClock
	l    layer
}

func (m timedLevel) Access(now uint64, addr uint64, write bool) uint64 {
	m.clk.enter(m.l)
	done := m.next.Access(now, addr, write)
	m.clk.exit()
	return done
}

// machineCounters are the machine's whole-run (warmup and measured) event
// counts the per-layer metrics divide by.
type machineCounters struct {
	retired, fetched       uint64
	l1dAccesses, l1dMisses uint64
	l2Accesses, l2Misses   uint64
}

func (m *machineCounters) add(o machineCounters) {
	m.retired += o.retired
	m.fetched += o.fetched
	m.l1dAccesses += o.l1dAccesses
	m.l1dMisses += o.l1dMisses
	m.l2Accesses += o.l2Accesses
	m.l2Misses += o.l2Misses
}

// clockedRun is one kernel through the wrapped machine.
type clockedRun struct {
	res *sim.Result
	ctr machineCounters
}

// runClocked composes the machine sim.Run builds for mode from the public
// constructors, with a timing wrapper at every layer boundary, and runs one
// kernel through warmup and measurement exactly as sim.Run's default mode
// does. The hierarchy mirrors sim.NewHierarchy, with L2 and DRAM reached
// through timed cache.MemLevel wrappers.
func runClocked(w *workloads.Workload, mode simMode, b budget, clk *layerClock) (clockedRun, error) {
	mem := timedLevel{dram.New(dram.DefaultConfig()), clk, lDRAM}
	l2 := cache.New(cache.Config{Name: "l2", SizeBytes: 2 << 20, LineBytes: 64,
		Ways: 12, HitLatency: 18, MSHRs: 48}, mem)
	l2t := timedLevel{l2, clk, lL2}
	dc := cache.New(cache.Config{Name: "l1d", SizeBytes: 32 << 10, LineBytes: 64,
		Ways: 8, HitLatency: 3, Ports: 2, MSHRs: 16}, l2t)
	ic := cache.New(cache.Config{Name: "l1i", SizeBytes: 32 << 10, LineBytes: 64,
		Ways: 8, HitLatency: 1, Ports: 1}, l2t)
	dc.AttachPrefetcher(cache.NewStreamPrefetcher(64, 16, 64, mem), l2)
	dtlb := cache.NewTLB(cache.DefaultTLBConfig(), l2t)
	hier := core.Hierarchy{ICache: ic, DCache: dc, L2: l2, Mem: mem, DTLB: dtlb}

	src := timedSource{emu.NewSource(w.Prog), clk, lEmu}
	if mode == replayBase {
		src = timedSource{btrace.NewSource(w.Trace), clk, lBtrace}
	}
	c := core.NewWithSource(core.DefaultConfig(), src, timedPredictor{bpred.NewTAGESCL64(), clk}, hier, nil)
	if mode == execBR {
		sys := runahead.New(runahead.Mini(), dc, c.Memory())
		sys.ShareTLB(dtlb)
		c.SetExtension(timedExtension{sys, clk})
	}

	clk.enter(lCore)
	_, err := c.Run(b.warmup)
	cyc0, ret0 := c.Ctr.Cycles.Get(), c.Ctr.Retired.Get()
	br0, mis0 := c.Ctr.RetiredCondBranches.Get(), c.Ctr.Mispredicts.Get()
	b0 := snapshotBranches(c)
	if err == nil {
		_, err = c.Run(ret0 + b.measured)
	}
	clk.exit()
	if err != nil {
		return clockedRun{}, fmt.Errorf("%s: %w", w.Name, err)
	}

	res := &sim.Result{
		Cycles:    c.Ctr.Cycles.Get() - cyc0,
		Instrs:    c.Ctr.Retired.Get() - ret0,
		Branches:  c.Ctr.RetiredCondBranches.Get() - br0,
		Mispred:   c.Ctr.Mispredicts.Get() - mis0,
		PerBranch: make(map[uint64]sim.BranchResult, len(c.Branches)),
	}
	for pc, bs := range c.Branches {
		prev := b0[pc]
		res.PerBranch[pc] = sim.BranchResult{PC: pc, Execs: bs.Execs - prev.Execs, Mispred: bs.Mispred - prev.Mispred}
	}
	return clockedRun{res: res, ctr: machineCounters{
		retired:     c.Ctr.Retired.Get(),
		fetched:     c.Ctr.Fetched.Get(),
		l1dAccesses: accesses(dc),
		l1dMisses:   dc.Ctr.Misses.Get(),
		l2Accesses:  accesses(l2),
		l2Misses:    l2.Ctr.Misses.Get(),
	}}, nil
}

func snapshotBranches(c *core.Core) map[uint64]sim.BranchResult {
	out := make(map[uint64]sim.BranchResult, len(c.Branches))
	for pc, bs := range c.Branches {
		out[pc] = sim.BranchResult{PC: pc, Execs: bs.Execs, Mispred: bs.Mispred}
	}
	return out
}

func accesses(c *cache.Cache) uint64 {
	return c.Ctr.Hits.Get() + c.Ctr.Misses.Get() + c.Ctr.PendingHits.Get()
}

// report records the per-layer host-time shares and call rates of the
// wrapped machine, and checks that the self times add up to the Core.Run
// spans they were carved from.
func (c *layerClock) report(r *run, m machineCounters) {
	span := c.span.Seconds()
	frac := func(ls ...layer) float64 {
		t := time.Duration(0)
		for _, l := range ls {
			t += c.self[l]
		}
		return t.Seconds() / span
	}
	perK := func(ls ...layer) float64 {
		n := uint64(0)
		for _, l := range ls {
			n += c.calls[l]
		}
		return 1000 * ratio(n, m.retired)
	}
	r.set("core.self_frac", "frac", frac(lCore))
	r.set("core.fetched_per_retired", "ratio", ratio(m.fetched, m.retired))
	r.set("emu.self_frac", "frac", frac(lEmu))
	r.set("emu.fetch_per_kinstr", "1/kinstr", perK(lEmu))
	r.set("btrace.self_frac", "frac", frac(lBtrace))
	r.set("btrace.fetch_per_kinstr", "1/kinstr", perK(lBtrace))
	r.set("bpred.self_frac", "frac", frac(lBpred))
	r.set("bpred.calls_per_kinstr", "1/kinstr", perK(lBpred))
	r.set("runahead.self_frac", "frac", frac(lTick, lHook))
	r.set("runahead.tick_self_frac", "frac", frac(lTick))
	r.set("runahead.tick_per_kinstr", "1/kinstr", perK(lTick))
	r.set("runahead.hook_per_kinstr", "1/kinstr", perK(lHook))
	r.set("cache.l2_self_frac", "frac", frac(lL2))
	r.set("cache.l2_calls_per_kinstr", "1/kinstr", perK(lL2))
	r.set("cache.l1d_miss_frac", "frac", ratio(m.l1dMisses, m.l1dAccesses))
	r.set("cache.l2_miss_frac", "frac", ratio(m.l2Misses, m.l2Accesses))
	r.set("dram.self_frac", "frac", frac(lDRAM))
	r.set("dram.calls_per_kinstr", "1/kinstr", perK(lDRAM))
	all := frac(lCore, lEmu, lBtrace, lBpred, lTick, lHook, lL2, lDRAM)
	r.check(math.Abs(all-1) <= 0.01, "layer self times sum to %.4f of the Core.Run spans, want 1±0.01", all)
}

// The wrappers must satisfy the seams they sit on.
var (
	_ core.InstrSource = timedSource{}
	_ bpred.Predictor  = timedPredictor{}
	_ core.Extension   = timedExtension{}
	_ cache.MemLevel   = timedLevel{}
)
