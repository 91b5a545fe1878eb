package core

import (
	"math/rand"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/program"
)

// testHierarchy builds a small Table 1-shaped memory system.
func testHierarchy() Hierarchy {
	mem := dram.New(dram.DefaultConfig())
	l2 := cache.New(cache.Config{Name: "l2", SizeBytes: 2 << 20, LineBytes: 64,
		Ways: 12, HitLatency: 18, MSHRs: 32}, mem)
	dc := cache.New(cache.Config{Name: "l1d", SizeBytes: 32 << 10, LineBytes: 64,
		Ways: 8, HitLatency: 3, Ports: 2, MSHRs: 16}, l2)
	ic := cache.New(cache.Config{Name: "l1i", SizeBytes: 32 << 10, LineBytes: 64,
		Ways: 8, HitLatency: 1, Ports: 1}, l2)
	return Hierarchy{ICache: ic, DCache: dc, L2: l2, Mem: mem}
}

// sumBelowProgram builds: iterate over n random 32-bit values; values below
// the threshold are accumulated; the sum is stored to resultAddr and the
// program halts. The compare against loaded data is a hard, data-dependent
// branch — exactly the class Branch Runahead targets.
func sumBelowProgram(n int, seed int64) (*program.Program, uint64, uint64) {
	const (
		base       = uint64(0x10000)
		resultAddr = uint64(0x80000)
		threshold  = 500
	)
	r := rand.New(rand.NewSource(seed))
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(r.Intn(1000))
	}
	b := program.NewBuilder("sum-below")
	b.DataU32(base, vals)
	b.MovI(isa.R1, int64(base)).
		MovI(isa.R3, 0). // i
		MovI(isa.R4, 0). // sum
		MovI(isa.R5, int64(n)).
		Label("loop").
		LdIdx(isa.R2, isa.R1, isa.R3, 4, 0, 4, false).
		CmpI(isa.R2, threshold).
		Br(isa.CondGE, "skip"). // data-dependent branch
		Add(isa.R4, isa.R4, isa.R2).
		Label("skip").
		AddI(isa.R3, isa.R3, 1).
		Cmp(isa.R3, isa.R5).
		Br(isa.CondLT, "loop"). // loop-back branch (easy)
		St(isa.R4, isa.R0, int64(resultAddr), 8).
		Halt()
	p := b.MustBuild()
	// Compute the expected sum functionally.
	var want uint64
	for _, v := range vals {
		if v < threshold {
			want += uint64(v)
		}
	}
	return p, resultAddr, want
}

func runToHalt(t *testing.T, c *Core) {
	t.Helper()
	if _, err := c.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if !c.haltRetired {
		t.Fatal("program did not halt")
	}
}

func TestCoreArchitecturalCorrectness(t *testing.T) {
	p, resultAddr, want := sumBelowProgram(2000, 42)
	c := New(DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	runToHalt(t, c)
	if got := c.Memory().Read(resultAddr, 8); got != want {
		t.Fatalf("core computed %d, functional answer is %d", got, want)
	}
}

func TestCoreMatchesFunctionalExecution(t *testing.T) {
	p, resultAddr, _ := sumBelowProgram(500, 7)
	// Reference: pure functional execution.
	ref := emu.NewRunner(p)
	if _, halted, err := ref.Run(100_000); err != nil || !halted {
		t.Fatalf("functional run failed: halted=%v err=%v", halted, err)
	}
	c := New(DefaultConfig(), p, bpred.NewBimodal(12), testHierarchy(), nil)
	runToHalt(t, c)
	if got, want := c.Memory().Read(resultAddr, 8), ref.Mem.Read(resultAddr, 8); got != want {
		t.Fatalf("core result %d != functional result %d", got, want)
	}
	// Retired micro-op count must equal functional step count.
	if got, want := c.Ctr.Retired.Get(), ref.Steps; got != want {
		t.Fatalf("core retired %d uops, functional executed %d", got, want)
	}
}

func TestCoreWrongPathActivity(t *testing.T) {
	p, _, _ := sumBelowProgram(2000, 11)
	c := New(DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	runToHalt(t, c)
	if c.Ctr.Mispredicts.Get() == 0 {
		t.Fatal("data-dependent branch produced zero mispredictions")
	}
	if c.Ctr.FetchedWrongPath.Get() == 0 {
		t.Fatal("no wrong-path micro-ops fetched despite mispredictions")
	}
	if c.Ctr.Recoveries.Get() == 0 {
		t.Fatal("no correct-path recoveries recorded")
	}
	// Wrong-path fetches never retire; retired count must be exact.
	if c.Ctr.Retired.Get() > c.Ctr.Fetched.Get() {
		t.Fatal("retired more than fetched")
	}
}

func TestCoreDataDependentBranchIsHard(t *testing.T) {
	p, _, _ := sumBelowProgram(4000, 3)
	c := New(DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	runToHalt(t, c)
	// Find the data-dependent branch (the one whose taken rate is ~50%)
	// and the loop-back branch; TAGE must be near-perfect on the loop-back
	// and near-chance on the data-dependent one.
	var hard, loop *BranchStat
	for _, bs := range c.Branches {
		rate := float64(bs.Taken) / float64(bs.Execs)
		if rate > 0.9 {
			loop = bs
		} else if rate > 0.2 && rate < 0.8 {
			hard = bs
		}
	}
	if hard == nil || loop == nil {
		t.Fatalf("did not find both branches: %+v", c.Branches)
	}
	hardRate := float64(hard.Mispred) / float64(hard.Execs)
	loopRate := float64(loop.Mispred) / float64(loop.Execs)
	if hardRate < 0.25 {
		t.Fatalf("data-dependent branch misprediction rate %.3f, want near-chance", hardRate)
	}
	if loopRate > 0.02 {
		t.Fatalf("loop-back branch misprediction rate %.3f, want near-zero", loopRate)
	}
}

func TestCoreIPCWithinPipelineBounds(t *testing.T) {
	p, _, _ := sumBelowProgram(4000, 9)
	c := New(DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	runToHalt(t, c)
	ipc := float64(c.Ctr.Retired.Get()) / float64(c.Ctr.Cycles.Get())
	if ipc <= 0.1 || ipc > 4.0 {
		t.Fatalf("IPC %.2f outside sane bounds (0.1, 4.0]", ipc)
	}
}

// oracleExt overrides every conditional branch with its true outcome,
// emulating a perfect prediction queue; mispredictions must vanish and IPC
// must rise. This validates the extension override plumbing end to end.
type oracleExt struct{}

func (oracleExt) FetchCondBranch(_ uint64, d *DynUop, _ bool) (bool, bool) {
	return d.Res.Taken, true
}
func (oracleExt) Checkpoint() interface{}                      { return nil }
func (oracleExt) Restore(uint64, interface{})                  {}
func (oracleExt) ReleaseCheckpoint(interface{})                {}
func (oracleExt) BranchResolved(uint64, *DynUop, *emu.RegFile) {}
func (oracleExt) Flush(uint64, *DynUop, []*DynUop)             {}
func (oracleExt) Retired(uint64, *DynUop)                      {}
func (oracleExt) ReleaseUopData(interface{})                   {}
func (oracleExt) Tick(uint64, TickInfo)                        {}
func (oracleExt) Idle() bool                                   { return true }

func TestCoreOracleOverrideEliminatesMispredicts(t *testing.T) {
	p, resultAddr, want := sumBelowProgram(3000, 13)
	base := New(DefaultConfig(), p, bpred.NewTAGESCL64(), testHierarchy(), nil)
	runToHalt(t, base)

	p2, _, _ := sumBelowProgram(3000, 13)
	orac := New(DefaultConfig(), p2, bpred.NewTAGESCL64(), testHierarchy(), oracleExt{})
	runToHalt(t, orac)

	if got := orac.Memory().Read(resultAddr, 8); got != want {
		t.Fatalf("oracle run computed %d, want %d", got, want)
	}
	if m := orac.Ctr.Mispredicts.Get(); m != 0 {
		t.Fatalf("oracle override still mispredicted %d times", m)
	}
	baseIPC := float64(base.Ctr.Retired.Get()) / float64(base.Ctr.Cycles.Get())
	oracIPC := float64(orac.Ctr.Retired.Get()) / float64(orac.Ctr.Cycles.Get())
	if oracIPC <= baseIPC {
		t.Fatalf("oracle IPC %.3f not better than baseline %.3f", oracIPC, baseIPC)
	}
	if orac.Ctr.DCEPredictionsUsed.Get() == 0 {
		t.Fatal("DCE-used counter not incremented for overridden branches")
	}
}

func TestCoreInstructionBudgetStops(t *testing.T) {
	p, _, _ := sumBelowProgram(100000, 21)
	c := New(DefaultConfig(), p, bpred.NewBimodal(12), testHierarchy(), nil)
	retired, err := c.Run(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if retired < 50_000 {
		t.Fatalf("stopped early: retired %d", retired)
	}
	if retired > 50_000+uint64(DefaultConfig().RetireWidth) {
		t.Fatalf("overshot budget: retired %d", retired)
	}
}
