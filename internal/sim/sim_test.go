package sim

import (
	"testing"

	"repro/internal/runahead"
	"repro/internal/workloads"
)

func smallCfg(br *runahead.Config) Config {
	cfg := DefaultConfig()
	cfg.Warmup = 40_000
	cfg.MaxInstrs = 120_000
	cfg.BR = br
	return cfg
}

func TestBaselineRunsAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, w := range workloads.All(workloads.SmallScale()) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := Run(w, smallCfg(nil))
			if err != nil {
				t.Fatal(err)
			}
			if res.Instrs < 120_000 {
				t.Fatalf("short run: %d instrs", res.Instrs)
			}
			if res.IPC <= 0 || res.IPC > 4 {
				t.Fatalf("IPC %.2f out of range", res.IPC)
			}
			if res.MPKI <= 0 {
				t.Fatalf("MPKI %.2f: these kernels must mispredict", res.MPKI)
			}
			t.Logf("%-14s IPC=%.2f MPKI=%.2f", w.Name, res.IPC, res.MPKI)
		})
	}
}

func TestBranchRunaheadAcrossKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// A representative spread: array scan, guarded pair, graph kernel with
	// stores, pointer chase.
	names := []string{"mcf_17", "leela_17", "bfs", "mcf_06"}
	improved := 0
	for _, name := range names {
		w, err := workloads.ByName(name, workloads.SmallScale())
		if err != nil {
			t.Fatal(err)
		}
		base, err := Run(w, smallCfg(nil))
		if err != nil {
			t.Fatal(err)
		}
		mini := runahead.Mini()
		w2, _ := workloads.ByName(name, workloads.SmallScale())
		br, err := Run(w2, smallCfg(&mini))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%-10s base IPC=%.2f MPKI=%.2f | BR IPC=%.2f MPKI=%.2f chains=%d syncs=%d breakdown=%v",
			name, base.IPC, base.MPKI, br.IPC, br.MPKI, br.Chains, br.Syncs, br.Breakdown)
		if br.MPKI < base.MPKI*0.95 {
			improved++
		}
	}
	if improved < 3 {
		t.Fatalf("Branch Runahead improved MPKI >5%% on only %d/%d kernels", improved, len(names))
	}
}

// TestHardBranchesStayHardAtDefaultScale guards against workload
// regressions where TAGE memorizes a kernel's outcome pattern (which would
// invalidate every Branch Runahead experiment on it).
func TestHardBranchesStayHardAtDefaultScale(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, w := range workloads.All(workloads.DefaultScale()) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Warmup = 60_000
			cfg.MaxInstrs = 150_000
			res, err := Run(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.MPKI < 2 {
				t.Fatalf("MPKI %.2f < 2: the paper selects misprediction-intensive benchmarks", res.MPKI)
			}
		})
	}
}
