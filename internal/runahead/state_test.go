package runahead

import (
	"reflect"
	"testing"

	"repro/internal/bpred"
	"repro/internal/brstate"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/simtest"
)

func TestHBTRoundTrip(t *testing.T) {
	h := NewHBT(64)
	rng := uint64(0x6c62272e07bb0142)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	// Saturate two branches on the empty table (guaranteed allocation) and
	// link them; the AG flag then protects both from eviction during churn.
	const hardA, hardB = uint64(0x900000), uint64(0x900008)
	for i := 0; i < 40; i++ {
		h.OnRetireBranch(hardA, i%2 == 0, true)
		h.OnRetireBranch(hardB, i%3 == 0, true)
	}
	if !h.IsHard(hardA) || !h.IsHard(hardB) {
		t.Fatal("stimulus failed to saturate the misprediction counters")
	}
	h.Guard(hardA, hardB)
	h.Affector(hardB, hardA)
	// More PCs than entries forces allocation, eviction and decay churn.
	for i := 0; i < 30000; i++ {
		pc := 0x1000 + (next()%200)*4
		h.OnRetireBranch(pc, next()%3 == 0, next()%7 == 0)
	}

	fresh := NewHBT(64)
	simtest.RoundTrip(t, "hbt", HBTStateVersion, h.SaveState, fresh.LoadState, fresh.SaveState)
	if !reflect.DeepEqual(h, fresh) {
		t.Fatal("restored HBT differs from the saved one")
	}
}

// cebProgram is a tiny straight-line program whose uop pointers back the
// CEB entries; LoadState rehydrates them through program.At.
func cebProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("ceb-fixture")
	b.MovI(isa.R1, 0x8000)
	for i := 0; i < 10; i++ {
		b.AddI(isa.R2, isa.R2, int64(i))
	}
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCEBRoundTrip(t *testing.T) {
	prog := cebProgram(t)
	// A wrapped buffer and a partially-filled one cover both entry layouts
	// (every slot valid vs. trailing nil slots).
	cases := []struct {
		name   string
		pushes int
	}{
		{"wrapped", 20},
		{"partial", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCEB(8)
			for i := 0; i < tc.pushes; i++ {
				pc := uint64(i % prog.Len())
				c.Push(prog.At(pc), i%2 == 0, uint64(0x8000+i*4))
			}
			fresh := NewCEB(8)
			simtest.RoundTrip(t, "ceb", CEBStateVersion,
				c.SaveState,
				func(r *brstate.Reader) error { return fresh.LoadState(r, prog) },
				fresh.SaveState)
			if !reflect.DeepEqual(c, fresh) {
				t.Fatal("restored CEB differs from the saved one")
			}
		})
	}
}

func TestCEBLoadRejectsForeignProgram(t *testing.T) {
	prog := cebProgram(t)
	c := NewCEB(4)
	c.Push(prog.At(uint64(prog.Len()-1)), true, 0)

	short := program.NewBuilder("short").Halt().MustBuild()
	w := brstate.NewWriter()
	w.Section("ceb", CEBStateVersion, c.SaveState)
	r, err := brstate.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var loadErr error
	fresh := NewCEB(4)
	r.Section("ceb", CEBStateVersion, func(r *brstate.Reader) { loadErr = fresh.LoadState(r, short) })
	if loadErr == nil {
		t.Fatal("expected an out-of-program PC error")
	}
}

func testChain(branchPC, tagPC uint64, out TagOutcome, n int) *Chain {
	ch := &Chain{
		BranchPC:  branchPC,
		Tag:       Tag{PC: tagPC, Out: out},
		LiveIns:   []LiveBinding{{Arch: isa.R3, Local: 0}},
		LiveOuts:  []LiveBinding{{Arch: isa.R4, Local: 1}},
		NumLocals: 2,
		Loads:     1,
	}
	for i := 0; i < n-1; i++ {
		ch.Uops = append(ch.Uops, ChainUop{
			Op: isa.OpAdd, Dst: 1, Src1: 0, Src2: 0, Imm: int64(i), UseImm: true,
			OrigPC: branchPC - uint64(n-i),
		})
	}
	ch.Uops = append(ch.Uops, ChainUop{
		Op: isa.OpBr, Src1: 1, Cond: isa.CondGE, OrigPC: branchPC,
	})
	return ch
}

func TestChainCacheRoundTrip(t *testing.T) {
	c := NewChainCache(4)
	// Six installs into four entries force LRU replacement.
	for i := 0; i < 6; i++ {
		pc := uint64(100 + i*10)
		c.Install(testChain(pc, pc, OutWildcard, 3+i%4))
	}
	c.Install(testChain(100, 80, OutTaken, 5)) // AG-tagged variant

	fresh := NewChainCache(4)
	simtest.RoundTrip(t, "cc", ChainCacheStateVersion, c.SaveState, fresh.LoadState, fresh.SaveState)
	if !reflect.DeepEqual(c, fresh) {
		t.Fatal("restored chain cache differs from the saved one")
	}
}

func TestChainCacheLoadRejectsOversizedSnapshot(t *testing.T) {
	c := NewChainCache(4)
	c.Install(testChain(100, 100, OutWildcard, 3))
	c.Install(testChain(200, 200, OutWildcard, 3))

	w := brstate.NewWriter()
	w.Section("cc", ChainCacheStateVersion, c.SaveState)
	r, err := brstate.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	small := NewChainCache(1)
	var loadErr error
	r.Section("cc", ChainCacheStateVersion, func(r *brstate.Reader) { loadErr = small.LoadState(r) })
	if loadErr == nil {
		t.Fatal("expected a capacity-mismatch error")
	}
}

func TestPQSetRoundTrip(t *testing.T) {
	cfg := Mini()
	s := NewPQSet(&cfg)
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	// Assign more branches than queues (forces reassignment), then push the
	// per-queue pointers and slots through alloc/fill/consume churn.
	for i := 0; i < cfg.NumQueues+3; i++ {
		q := s.Ensure(0x2000+uint64(i)*8, uint64(i))
		if q == nil {
			t.Fatal("Ensure returned no queue")
		}
		q.active = i%2 == 0
		q.throttle = int8(i%4) - 2
		for j := 0; j < int(next()%uint64(len(q.slots))); j++ {
			sl := q.slot(q.alloc)
			q.alloc++
			sl.filled = next()%3 != 0
			sl.value = next()%2 == 0
			if !sl.filled && next()%4 == 0 {
				sl.consumed = true
			}
		}
		q.fetch = q.retire + next()%(q.alloc-q.retire+1)
		q.gen = next() % 5
	}

	fresh := NewPQSet(&cfg)
	simtest.RoundTrip(t, "pqs", PQSetStateVersion, s.SaveState, fresh.LoadState, fresh.SaveState)
	// The checkpoint pool is scratch and deliberately unserialized.
	s.cpPool, fresh.cpPool = nil, nil
	if !reflect.DeepEqual(s, fresh) {
		t.Fatal("restored prediction queues differ from the saved ones")
	}
}

// drivenSystem runs the Mini configuration over the integration harness's
// hard-loop workload so every learned structure (HBT, CEB, chain cache,
// queues, initiation predictor, counters) holds real state, then quiesces
// it at a snapshot barrier.
func drivenSystem(t *testing.T) (*System, *program.Program) {
	t.Helper()
	p, _ := hardLoopProgram(4096, 77)
	hier := testHierarchy()
	c := core.New(core.DefaultConfig(), p, bpred.NewTAGESCL64(), hier, nil)
	mini := Mini()
	sys := New(mini, hier.DCache, c.Memory())
	c.SetExtension(sys)
	if _, err := c.Run(250_000); err != nil {
		t.Fatal(err)
	}
	if sys.C.Get("chains_installed") == 0 || sys.cc.Len() == 0 {
		t.Fatal("workload extracted no chains; the snapshot would be trivial")
	}
	if err := sys.Quiesce(c.C.Get("cycles")); err != nil {
		t.Fatal(err)
	}
	return sys, p
}

func TestSystemRoundTrip(t *testing.T) {
	sys, prog := drivenSystem(t)

	hier := testHierarchy()
	mini := Mini()
	fresh := New(mini, hier.DCache, sys.dce.mem)
	simtest.RoundTrip(t, "runahead", SystemStateVersion,
		sys.SaveState,
		func(r *brstate.Reader) error { return fresh.LoadState(r, prog) },
		fresh.SaveState)

	simtest.RequireDeepEqual(t, "HBT", sys.hbt, fresh.hbt)
	simtest.RequireDeepEqual(t, "CEB", sys.ceb, fresh.ceb)
	simtest.RequireDeepEqual(t, "chain cache", sys.cc, fresh.cc)
	simtest.RequireDeepEqual(t, "queues", sys.pqs.queues, fresh.pqs.queues)
	simtest.RequireDeepEqual(t, "initiation predictor", sys.dce.initPred, fresh.dce.initPred)
	simtest.RequireDeepEqual(t, "next instance ID", sys.dce.nextID, fresh.dce.nextID)
	simtest.RequireDeepEqual(t, "system counters", sys.C.Snapshot(), fresh.C.Snapshot())
	simtest.RequireDeepEqual(t, "DCE counters", sys.dce.C.Snapshot(), fresh.dce.C.Snapshot())
	simtest.RequireDeepEqual(t, "chain stats",
		[4]uint64{sys.extractBusyUntil, sys.chainLenSum, sys.chainCount, sys.chainAGTagged},
		[4]uint64{fresh.extractBusyUntil, fresh.chainLenSum, fresh.chainCount, fresh.chainAGTagged})
	if sys.MergeAccuracy() != fresh.MergeAccuracy() ||
		sys.LayoutMergeAccuracy() != fresh.LayoutMergeAccuracy() {
		t.Fatal("restored merge-point predictors report different accuracy")
	}
}

func TestSystemLoadRejectsForeignProgram(t *testing.T) {
	sys, _ := drivenSystem(t)
	if sys.ceb.Len() == 0 {
		t.Fatal("driven system has an empty CEB; the rejection path is unreachable")
	}

	w := brstate.NewWriter()
	w.Section("sys", SystemStateVersion, sys.SaveState)
	r, err := brstate.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	hier := testHierarchy()
	mini := Mini()
	fresh := New(mini, hier.DCache, sys.dce.mem)
	short := program.NewBuilder("short").Halt().MustBuild()
	var loadErr error
	r.Section("sys", SystemStateVersion, func(r *brstate.Reader) { loadErr = fresh.LoadState(r, short) })
	if loadErr == nil {
		t.Fatal("expected the CEB rehydration to reject a foreign program")
	}
}
