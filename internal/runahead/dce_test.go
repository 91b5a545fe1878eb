package runahead

import (
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
)

// dceFixture builds a DCE over a trivial memory system.
func dceFixture(cfg Config) (*DCE, *ChainCache, *PQSet, *emu.Memory, *Config) {
	c := cfg
	mem := emu.NewMemory()
	dc := cache.New(cache.Config{Name: "d", SizeBytes: 4096, LineBytes: 64,
		Ways: 4, HitLatency: 3, Ports: 2}, constMem{latency: 50})
	cc := NewChainCache(c.ChainCacheSize)
	pqs := NewPQSet(&c)
	dce := NewDCE(&c, dc, mem, cc, pqs)
	return dce, cc, pqs, mem, &c
}

type constMem struct{ latency uint64 }

func (m constMem) Access(now uint64, _ uint64, _ bool) uint64 { return now + m.latency }

// incChain builds the canonical self-loop chain: r3 += 1; ld r2 = [r1 +
// r3*4]; cmp r2, #500; br.ge — computing "value at the next index >= 500".
func incChain() *Chain {
	return &Chain{
		BranchPC: 7,
		Tag:      Tag{PC: 7, Out: OutWildcard},
		Uops: []ChainUop{
			{Op: isa.OpAdd, Dst: 0, Src1: 1, Src2: -1, Imm: 1, UseImm: true, OrigPC: 5},
			{Op: isa.OpLd, Dst: 2, Src1: 3, Src2: 0, Scale: 4, MemSize: 4, OrigPC: 6},
			{Op: isa.OpCmp, Dst: 4, Src1: 2, Src2: -1, Imm: 500, UseImm: true, OrigPC: 6},
			{Op: isa.OpBr, Dst: -1, Src1: 4, Src2: -1, Cond: isa.CondGE, OrigPC: 7},
		},
		LiveIns:   []LiveBinding{{Arch: isa.R3, Local: 1}, {Arch: isa.R1, Local: 3}},
		LiveOuts:  []LiveBinding{{Arch: isa.R3, Local: 0}},
		NumLocals: 5,
	}
}

// TestDCEExecutesChainCorrectly drives one sync and checks the computed
// outcomes against the memory contents, instance by instance.
func TestDCEExecutesChainCorrectly(t *testing.T) {
	cfg := Mini()
	cfg.InitMode = NonSpeculative // serial: easy to reason about
	dce, cc, pqs, mem, _ := dceFixture(cfg)

	const base = uint64(0x1000)
	vals := []uint32{100, 600, 200, 700, 800, 300} // index 0..5
	for i, v := range vals {
		mem.Write(base+uint64(i)*4, 4, uint64(v))
	}
	cc.Install(incChain())

	var regs emu.RegFile
	regs.Set(isa.R1, base)
	regs.Set(isa.R3, 0) // mispredicted at index 0; chains compute index 1..
	dce.Sync(0, 7, true, &regs)

	// Run the engine until five outcomes land in the queue.
	for now := uint64(1); now < 10_000; now++ {
		dce.Tick(now, 4, 92)
		q := pqs.For(7)
		if q != nil && q.alloc >= 5 && allFilled(q, 5) {
			break
		}
	}
	q := pqs.For(7)
	if q == nil {
		t.Fatal("no queue for the chain's branch")
	}
	// Expected outcomes: vals[1] >= 500, vals[2] >= 500, ...
	want := []bool{true, false, true, true, false}
	for i, w := range want {
		s := q.slot(uint64(i))
		if !s.filled {
			t.Fatalf("slot %d never filled (alloc=%d)", i, q.alloc)
		}
		if s.value != w {
			t.Fatalf("slot %d = %v, want %v (vals[%d]=%d)", i, s.value, w, i+1, vals[i+1])
		}
	}
}

func allFilled(q *Queue, n int) bool {
	for i := 0; i < n; i++ {
		if !q.slot(uint64(i)).filled {
			return false
		}
	}
	return true
}

// TestDCELoadLatencyGatesCompletion: a chain whose load misses completes
// later than one that hits.
func TestDCELoadLatencyGatesCompletion(t *testing.T) {
	cfg := Mini()
	cfg.InitMode = NonSpeculative
	dce, cc, pqs, mem, _ := dceFixture(cfg)
	mem.Write(0x2000, 4, 999)
	cc.Install(incChain())
	var regs emu.RegFile
	regs.Set(isa.R1, 0x2000-4)
	regs.Set(isa.R3, 0)
	dce.Sync(0, 7, true, &regs)
	filledAt := uint64(0)
	for now := uint64(1); now < 1000; now++ {
		dce.Tick(now, 4, 92)
		if q := pqs.For(7); q != nil && q.alloc > 0 && q.slot(0).filled && filledAt == 0 {
			filledAt = now
			break
		}
	}
	if filledAt == 0 {
		t.Fatal("first outcome never produced")
	}
	// A cold D-cache miss costs ~50 cycles through constMem: the outcome
	// cannot be ready in single-digit cycles.
	if filledAt < 20 {
		t.Fatalf("outcome at cycle %d despite a cold miss", filledAt)
	}
}

// TestDCEContinuousExecutionAdvancesIndex: with Independent-early
// initiation the self-loop chain must run ahead on its own, each instance
// advancing the loop-carried index by one (global rename through
// live-outs).
func TestDCEContinuousExecutionAdvancesIndex(t *testing.T) {
	cfg := Mini()
	cfg.InitMode = IndependentEarly
	dce, cc, pqs, mem, _ := dceFixture(cfg)
	const base = uint64(0x1000)
	for i := 0; i < 64; i++ {
		v := uint64(0)
		if i%3 == 0 {
			v = 900 // every third index clears the threshold
		}
		mem.Write(base+uint64(i)*4, 4, v)
	}
	cc.Install(incChain())
	var regs emu.RegFile
	regs.Set(isa.R1, base)
	regs.Set(isa.R3, 0)
	dce.Sync(0, 7, true, &regs)
	for now := uint64(1); now < 5000; now++ {
		dce.Tick(now, 4, 92)
		if q := pqs.For(7); q != nil && q.alloc >= 30 && allFilled(q, 30) {
			break
		}
	}
	q := pqs.For(7)
	for i := 0; i < 30; i++ {
		wantIdx := i + 1
		want := wantIdx%3 == 0
		if got := q.slot(uint64(i)).value; got != want {
			t.Fatalf("slot %d (index %d) = %v, want %v", i, wantIdx, got, want)
		}
	}
}

// TestDCEWindowBound: the number of concurrently active instances never
// exceeds the configured window.
func TestDCEWindowBound(t *testing.T) {
	cfg := Mini()
	cfg.Window = 8
	dce, cc, pqs, mem, _ := dceFixture(cfg)
	_ = pqs
	for i := 0; i < 256; i++ {
		mem.Write(0x1000+uint64(i)*4, 4, uint64(i))
	}
	cc.Install(incChain())
	var regs emu.RegFile
	regs.Set(isa.R1, 0x1000)
	dce.Sync(0, 7, true, &regs)
	for now := uint64(1); now < 2000; now++ {
		dce.Tick(now, 4, 92)
		if dce.ActiveInstances() > 8 {
			t.Fatalf("window %d exceeded: %d active", cfg.Window, dce.ActiveInstances())
		}
	}
	if dce.C.Get("completions") < 20 {
		t.Fatalf("engine stalled: %d completions", dce.C.Get("completions"))
	}
}

// TestDCESyncMissIsCounted: a misprediction with no matching chains leaves
// the engine untouched.
func TestDCESyncMissIsCounted(t *testing.T) {
	cfg := Mini()
	dce, _, _, _, _ := dceFixture(cfg)
	var regs emu.RegFile
	dce.Sync(0, 0x999, true, &regs)
	if dce.C.Get("sync_miss") != 1 || dce.C.Get("instances") != 0 {
		t.Fatalf("sync-miss handling: %v", dce.C)
	}
}

// TestDCEDeactivateFamilyKillsInstances: divergence handling kills the
// family's active instances and marks its queue inactive.
func TestDCEDeactivateFamilyKillsInstances(t *testing.T) {
	cfg := Mini()
	dce, cc, pqs, mem, _ := dceFixture(cfg)
	mem.Write(0x1000, 4, 1)
	cc.Install(incChain())
	var regs emu.RegFile
	regs.Set(isa.R1, 0x1000)
	dce.Sync(0, 7, true, &regs)
	if dce.ActiveInstances() == 0 {
		t.Fatal("precondition: instances running")
	}
	dce.DeactivateFamily(0, 7)
	if dce.ActiveInstances() != 0 {
		t.Fatalf("%d instances survived deactivation", dce.ActiveInstances())
	}
	if q := pqs.For(7); q == nil || q.active {
		t.Fatal("queue still active after divergence")
	}
}

// mlpChain interleaves a dependent ALU op between two independent loads:
// out-of-order chain scheduling hoists the second load past the stalled
// add and overlaps the misses; in-order issue serializes them — the
// paper's reason for out-of-order scheduling inside the DCE ("in-order
// execution was not able to expose enough Memory Level Parallelism").
func mlpChain() *Chain {
	return &Chain{
		BranchPC: 9,
		Tag:      Tag{PC: 9, Out: OutWildcard},
		Uops: []ChainUop{
			{Op: isa.OpLd, Dst: 0, Src1: 1, Src2: -1, MemSize: 4, OrigPC: 2},
			{Op: isa.OpAdd, Dst: 4, Src1: 0, Src2: -1, Imm: 1, UseImm: true, OrigPC: 3},
			{Op: isa.OpLd, Dst: 2, Src1: 3, Src2: -1, MemSize: 4, OrigPC: 4},
			{Op: isa.OpCmp, Dst: 5, Src1: 4, Src2: 2, OrigPC: 8},
			{Op: isa.OpBr, Dst: -1, Src1: 5, Src2: -1, Cond: isa.CondULT, OrigPC: 9},
		},
		LiveIns:   []LiveBinding{{Arch: isa.R1, Local: 1}, {Arch: isa.R2, Local: 3}},
		LiveOuts:  nil,
		NumLocals: 6,
	}
}

func firstFillCycle(t *testing.T, inOrder bool) uint64 {
	t.Helper()
	cfg := Mini()
	cfg.InitMode = NonSpeculative
	cfg.InOrderChainExec = inOrder
	dce, cc, pqs, mem, _ := dceFixture(cfg)
	mem.Write(0x1000, 4, 1)
	mem.Write(0x2000, 4, 2)
	cc.Install(mlpChain())
	var regs emu.RegFile
	regs.Set(isa.R1, 0x1000)
	regs.Set(isa.R2, 0x2000)
	dce.Sync(0, 9, true, &regs)
	for now := uint64(1); now < 1000; now++ {
		dce.Tick(now, 4, 92)
		if q := pqs.For(9); q != nil && q.alloc > 0 && q.slot(0).filled {
			return now
		}
	}
	t.Fatal("chain never completed")
	return 0
}

// TestInOrderChainLosesMLP: the in-order ablation must serialize the two
// cold misses (~2x the out-of-order completion time).
func TestInOrderChainLosesMLP(t *testing.T) {
	ooo := firstFillCycle(t, false)
	ino := firstFillCycle(t, true)
	t.Logf("first outcome: out-of-order at %d, in-order at %d", ooo, ino)
	if ino < ooo+30 {
		t.Fatalf("in-order (%d) should be ~one miss latency behind out-of-order (%d)", ino, ooo)
	}
}

// TestRefreshedChainLaunchesAgain pins what a chain refresh decides in the
// engine. Under Independent-early initiation, instance P launches chain C
// from its early trigger; then an identical C is re-extracted and
// installed; then P's completion trigger runs. The refresh gives C a new
// installation serial, so P does not find C among the chains it has
// initiated and launches it a second time: the queue holds index 2's
// outcome twice. Without the refresh, every slot holds the next index.
// Keeping C's identity across the refresh would remove the duplicate, but
// it changes the quick-suite tables, so it is left to a simulator epoch.
func TestRefreshedChainLaunchesAgain(t *testing.T) {
	const hot = 2 // only index 2 clears the chain's >= 500 threshold
	run := func(refresh bool) []bool {
		cfg := Mini()
		cfg.InitMode = IndependentEarly
		cfg.Window = 2 // P and its early successor fill it
		dce, cc, pqs, mem, _ := dceFixture(cfg)
		const base = uint64(0x1000)
		mem.Write(base+hot*4, 4, 900)
		cc.Install(incChain())
		c := cc.All()[0]
		var regs emu.RegFile
		regs.Set(isa.R1, base)
		dce.Sync(0, 7, true, &regs) // launches P at index 1, and P launches C at index 2
		p := dce.all[0]
		if !p.hasInitiated(c) {
			t.Fatal("P's early trigger did not launch its successor")
		}
		if refresh {
			cc.Install(incChain())
			if cc.All()[0] != c {
				t.Fatal("an identical refresh replaced the cached chain")
			}
			if p.hasInitiated(c) {
				t.Fatal("a refreshed chain still counts as initiated from P")
			}
		}
		for now := uint64(1); now < 2000; now++ {
			dce.Tick(now, 4, 92)
		}
		q := pqs.For(7)
		out := make([]bool, 6)
		for i := range out {
			s := q.slot(uint64(i))
			if !s.filled {
				t.Fatalf("refresh=%v: slot %d never filled", refresh, i)
			}
			out[i] = s.value
		}
		return out
	}
	want := map[bool][]bool{
		false: {false, true, false, false, false, false}, // indexes 1, 2, 3, ...
		true:  {false, true, true, false, false, false},  // indexes 1, 2, 2, ...
	}
	for _, refresh := range []bool{false, true} {
		if got := run(refresh); !slices.Equal(got, want[refresh]) {
			t.Errorf("refresh=%v: slots %v, want %v", refresh, got, want[refresh])
		}
	}
}
