package runahead

import (
	"math/rand"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/program"
)

func testHierarchy() core.Hierarchy {
	mem := dram.New(dram.DefaultConfig())
	l2 := cache.New(cache.Config{Name: "l2", SizeBytes: 2 << 20, LineBytes: 64,
		Ways: 12, HitLatency: 18, MSHRs: 32}, mem)
	dc := cache.New(cache.Config{Name: "l1d", SizeBytes: 32 << 10, LineBytes: 64,
		Ways: 8, HitLatency: 3, Ports: 2, MSHRs: 16}, l2)
	ic := cache.New(cache.Config{Name: "l1i", SizeBytes: 32 << 10, LineBytes: 64,
		Ways: 8, HitLatency: 1, Ports: 1}, l2)
	return core.Hierarchy{ICache: ic, DCache: dc, L2: l2, Mem: mem}
}

// hardLoopProgram: an endless loop over a large array with one
// data-dependent branch — the leela-style pattern of Figure 4 without the
// guard. The loop wraps with a mask so it runs forever.
func hardLoopProgram(n int, seed int64) (*program.Program, uint64) {
	const base = uint64(0x100000)
	r := rand.New(rand.NewSource(seed))
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(r.Intn(1000))
	}
	b := program.NewBuilder("hard-loop")
	b.DataU32(base, vals)
	b.MovI(isa.R1, int64(base)).
		MovI(isa.R3, 0). // i
		MovI(isa.R4, 0). // accumulator
		MovI(isa.R6, int64(n-1)).
		Label("loop").
		LdIdx(isa.R2, isa.R1, isa.R3, 4, 0, 4, false).
		CmpI(isa.R2, 500)
	hardPC := b.PC()
	b.Br(isa.CondGE, "skip").
		Add(isa.R4, isa.R4, isa.R2).
		Label("skip").
		AddI(isa.R3, isa.R3, 1).
		And(isa.R3, isa.R3, isa.R6). // wrap index (n is a power of two)
		Jmp("loop")
	return b.MustBuild(), hardPC
}

type runResult struct {
	ipc   float64
	mpki  float64
	sys   *System
	coreC *core.Core
}

func runWorkload(t *testing.T, cfg *Config, budget uint64) runResult {
	t.Helper()
	p, _ := hardLoopProgram(4096, 77)
	hier := testHierarchy()
	c := core.New(core.DefaultConfig(), p, bpred.NewTAGESCL64(), hier, nil)
	var sys *System
	if cfg != nil {
		sys = New(*cfg, hier.DCache, c.Memory())
		c.SetExtension(sys)
	}
	if _, err := c.Run(budget); err != nil {
		t.Fatal(err)
	}
	cycles := c.Ctr.Cycles.Get()
	retired := c.Ctr.Retired.Get()
	return runResult{
		ipc:   float64(retired) / float64(cycles),
		mpki:  1000 * float64(c.Ctr.Mispredicts.Get()) / float64(retired),
		sys:   sys,
		coreC: c,
	}
}

func TestBranchRunaheadReducesMPKI(t *testing.T) {
	budget := uint64(400_000)
	base := runWorkload(t, nil, budget)
	mini := Mini()
	br := runWorkload(t, &mini, budget)

	if br.sys.ChainsInstalled() == 0 {
		t.Fatalf("no chains extracted; extract_failed=%d", br.sys.ctr.extractFailed.Get())
	}
	if br.sys.dce.ctr.Completions.Get() == 0 {
		t.Fatal("no chain instances completed")
	}
	if br.coreC.Ctr.DCEPredictionsUsed.Get() == 0 {
		t.Fatalf("DCE predictions never reached fetch; breakdown=%v", br.sys.PredictionBreakdown())
	}
	t.Logf("baseline: IPC=%.3f MPKI=%.2f", base.ipc, base.mpki)
	t.Logf("mini BR : IPC=%.3f MPKI=%.2f breakdown=%v chains=%d syncs=%d",
		br.ipc, br.mpki, br.sys.PredictionBreakdown(),
		br.sys.ChainsInstalled(), br.sys.dce.ctr.Syncs.Get())
	if br.mpki >= base.mpki*0.8 {
		t.Fatalf("Branch Runahead did not reduce MPKI enough: base=%.2f br=%.2f", base.mpki, br.mpki)
	}
	if br.ipc <= base.ipc {
		t.Fatalf("Branch Runahead did not improve IPC: base=%.3f br=%.3f", base.ipc, br.ipc)
	}
}

func TestExtractedChainShape(t *testing.T) {
	mini := Mini()
	br := runWorkload(t, &mini, 300_000)
	chains := br.sys.Chains()
	if len(chains) == 0 {
		t.Fatal("no chains in the chain cache")
	}
	for _, ch := range chains {
		if len(ch.Uops) > mini.MaxChainLen {
			t.Fatalf("chain longer than the cap: %d", len(ch.Uops))
		}
		last := ch.Uops[len(ch.Uops)-1]
		if !last.Op.IsCondBranch() {
			t.Fatalf("chain does not end with its branch:\n%s", ch)
		}
		for _, u := range ch.Uops {
			if u.Op == isa.OpSt {
				t.Fatalf("store inside a chain:\n%s", ch)
			}
			if u.Op.IsExpensive() {
				t.Fatalf("expensive op inside a chain:\n%s", ch)
			}
		}
	}
	// The loop's chain must be a self-loop wildcard (no guards in this
	// program) containing the index update, the load and the compare.
	found := false
	for _, ch := range chains {
		if ch.Tag.Out == OutWildcard && ch.Tag.PC == ch.BranchPC {
			found = true
			hasLoad := false
			for _, u := range ch.Uops {
				if u.Op == isa.OpLd {
					hasLoad = true
				}
			}
			if !hasLoad {
				t.Fatalf("self-loop chain misses its load:\n%s", ch)
			}
		}
	}
	if !found {
		t.Fatal("no wildcard self-loop chain extracted")
	}
}
