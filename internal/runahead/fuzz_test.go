package runahead

import (
	"math/rand"
	"testing"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/workloads"
)

// randomProgram generates a structurally valid, halting program: an outer
// counted loop whose body is a random mix of ALU ops, loads, stores and
// forward skip-branches over a bounded data region. Every generated program
// terminates (loop bound) and every branch target is in range.
func randomProgram(seed int64) *program.Program {
	r := rand.New(rand.NewSource(seed))
	const (
		dataBase = uint64(0x10000)
		dataLen  = 1 << 12 // bytes
		iters    = 400
	)
	init := make([]byte, dataLen)
	r.Read(init)

	b := program.NewBuilder("fuzz")
	b.Data(dataBase, init)
	reg := func() isa.Reg { return isa.Reg(r.Intn(12)) } // R0..R11 random
	b.MovI(isa.R14, int64(dataBase)).
		MovI(isa.R15, 0). // loop counter
		MovI(isa.R13, dataLen-8)
	for i := isa.Reg(0); i < 12; i++ {
		b.MovI(i, int64(r.Intn(1000)))
	}
	b.Label("loop")
	nBody := 8 + r.Intn(16)
	skip := 0 // pending forward-branch skip count
	for i := 0; i < nBody; i++ {
		if skip > 0 {
			skip--
			if skip == 0 {
				b.Label(labelFor(i))
			}
		}
		switch r.Intn(8) {
		case 0, 1, 2: // ALU
			ops := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpMul}
			b.ALU(ops[r.Intn(len(ops))], reg(), reg(), reg())
		case 3: // load: address masked into the data region
			addr := reg()
			b.And(isa.R12, addr, isa.R13).
				LdIdx(reg(), isa.R14, isa.R12, 1, 0, 4, r.Intn(2) == 0)
		case 4: // store
			addr := reg()
			b.And(isa.R12, addr, isa.R13).
				StIdx(reg(), isa.R14, isa.R12, 1, 0, 4)
		case 5: // immediate ALU
			b.ALUI(isa.OpAdd, reg(), reg(), int64(r.Intn(64)-32))
		case 6, 7: // data-dependent forward branch over the next few uops
			if skip == 0 && i+2 < nBody {
				b.CmpI(reg(), int64(r.Intn(500)))
				conds := []isa.Cond{isa.CondEQ, isa.CondNE, isa.CondLT, isa.CondGE, isa.CondULT}
				b.Br(conds[r.Intn(len(conds))], labelFor(i+2))
				skip = 2
			} else {
				b.Nop()
			}
		}
	}
	if skip > 0 {
		// Close any dangling forward label.
		b.Label(labelFor(nBody - 1 + skip - skip))
	}
	b.AddI(isa.R15, isa.R15, 1).
		CmpI(isa.R15, iters).
		Br(isa.CondLT, "loop").
		Halt()
	return b.MustBuild()
}

func labelFor(i int) string {
	return "fwd" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

func testHier() core.Hierarchy { return testHierarchy() }

// TestFuzzArchitecturalEquivalence: for random programs, the committed
// memory and the data-region contents after a full run must be identical
// between (a) pure functional execution, (b) the baseline core, and (c) the
// core with Branch Runahead attached. Branch Runahead is a predictor: it
// must never change architectural state.
func TestFuzzArchitecturalEquivalence(t *testing.T) {
	seeds := []int64{3, 17, 99, 123, 777}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		p := randomProgram(seed)
		// (a) functional reference.
		ref := emu.NewRunner(p)
		if _, halted, err := ref.Run(10_000_000); err != nil || !halted {
			t.Fatalf("seed %d: functional run halted=%v err=%v", seed, halted, err)
		}
		// (b) baseline core.
		base := core.New(core.DefaultConfig(), p, bpred.NewTAGESCL64(), testHier(), nil)
		if _, err := base.Run(50_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// (c) core + Mini Branch Runahead.
		hier := testHier()
		withBR := core.New(core.DefaultConfig(), p, bpred.NewTAGESCL64(), hier, nil)
		sys := New(Mini(), hier.DCache, withBR.Memory())
		withBR.SetExtension(sys)
		if _, err := withBR.Run(50_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		if got, want := base.Ctr.Retired.Get(), ref.Steps; got != want {
			t.Fatalf("seed %d: baseline retired %d, functional executed %d", seed, got, want)
		}
		if got, want := withBR.Ctr.Retired.Get(), ref.Steps; got != want {
			t.Fatalf("seed %d: BR run retired %d, functional executed %d", seed, got, want)
		}
		const dataBase, dataLen = uint64(0x10000), uint64(1 << 12)
		for a := dataBase; a < dataBase+dataLen; a += 8 {
			want := ref.Mem.Read(a, 8)
			if got := base.Memory().Read(a, 8); got != want {
				t.Fatalf("seed %d: baseline memory diverged at %#x: %#x != %#x", seed, a, got, want)
			}
			if got := withBR.Memory().Read(a, 8); got != want {
				t.Fatalf("seed %d: BR memory diverged at %#x: %#x != %#x", seed, a, got, want)
			}
		}
	}
}

// TestInitiationModeOrdering: with everything else fixed, timelier
// initiation modes must not lose to less aggressive ones by a large margin
// (the paper's Figure 11 bottom: Non-speculative <= Independent-early <=
// Predictive on average).
func TestInitiationModeOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	mpki := func(mode InitMode) float64 {
		p, _ := hardLoopProgram(4096, 77)
		hier := testHierarchy()
		c := core.New(core.DefaultConfig(), p, bpred.NewTAGESCL64(), hier, nil)
		cfg := Mini()
		cfg.InitMode = mode
		sys := New(cfg, hier.DCache, c.Memory())
		c.SetExtension(sys)
		if _, err := c.Run(400_000); err != nil {
			t.Fatal(err)
		}
		return 1000 * float64(c.Ctr.Mispredicts.Get()) / float64(c.Ctr.Retired.Get())
	}
	ns := mpki(NonSpeculative)
	ie := mpki(IndependentEarly)
	pr := mpki(Predictive)
	t.Logf("MPKI: non-spec=%.2f indep-early=%.2f predictive=%.2f", ns, ie, pr)
	if pr > ns*1.15 {
		t.Fatalf("predictive initiation (%.2f) much worse than non-speculative (%.2f)", pr, ns)
	}
	if ie > ns*1.15 {
		t.Fatalf("independent-early (%.2f) much worse than non-speculative (%.2f)", ie, ns)
	}
}

// TestCoreOnlyConfigWorks: the Core-Only variant must supply predictions
// and improve MPKI on a realistic kernel. (On pathologically tight loops
// with no surrounding work, the spare-resource-starved Core-Only engine
// runs chronically late — the cost/parallelism trade-off the paper's
// Figure 10 quantifies — so this test uses a kernel with normal
// per-iteration work.)
func TestCoreOnlyConfigWorks(t *testing.T) {
	w, err := workloads.ByName("mcf_17", workloads.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	run := func(withBR bool) float64 {
		hier := testHierarchy()
		c := core.New(core.DefaultConfig(), w.Prog, bpred.NewTAGESCL64(), hier, nil)
		if withBR {
			sys := New(CoreOnly(), hier.DCache, c.Memory())
			c.SetExtension(sys)
			defer func() {
				if c.Ctr.DCEPredictionsUsed.Get() == 0 {
					t.Fatal("core-only DCE never supplied a prediction")
				}
			}()
		}
		if _, err := c.Run(300_000); err != nil {
			t.Fatal(err)
		}
		return 1000 * float64(c.Ctr.Mispredicts.Get()) / float64(c.Ctr.Retired.Get())
	}
	base := run(false)
	co := run(true)
	t.Logf("core-only MPKI=%.2f baseline=%.2f", co, base)
	if co >= base {
		t.Fatalf("core-only MPKI %.2f did not improve over baseline %.2f", co, base)
	}
}

// TestThrottleSuppressesAdversarialChains: with throttling off, a chain
// that has diverged keeps overriding TAGE; with throttling on, the damage
// must be bounded.
func TestThrottleSuppressesAdversarialChains(t *testing.T) {
	run := func(throttle bool) uint64 {
		// astar-like self-affector workload at a tiny scale diverges often.
		p, _ := hardLoopProgram(1024, 5)
		hier := testHierarchy()
		c := core.New(core.DefaultConfig(), p, bpred.NewTAGESCL64(), hier, nil)
		cfg := Mini()
		cfg.Throttle = throttle
		sys := New(cfg, hier.DCache, c.Memory())
		c.SetExtension(sys)
		if _, err := c.Run(200_000); err != nil {
			t.Fatal(err)
		}
		return c.Ctr.Mispredicts.Get()
	}
	with := run(true)
	without := run(false)
	t.Logf("mispredicts: throttle=%d no-throttle=%d", with, without)
	if with > without*2 {
		t.Fatalf("throttling made things much worse: %d vs %d", with, without)
	}
}
