package sim

import (
	"runtime"
	"testing"

	"repro/internal/runahead"
	"repro/internal/trace"
)

// TestCoreCycleAllocFree pins the core's steady-state loop at zero heap
// allocations on the baseline machine (TAGE-SC-L, the Table 1 hierarchy
// with its prefetcher and DTLB, no Branch Runahead). After a warmup has
// seen the kernel's static branches, a stretch of Core.Cycle calls must
// not allocate at all: micro-ops come from the fixed DynUop pool and every
// per-cycle list is a reslice of fixed storage.
func TestCoreCycleAllocFree(t *testing.T) {
	const cycles = 20_000
	for _, name := range []string{"mcf_17", "leela_17", "omnetpp_06", "tc"} {
		m, err := newMachine(mustWorkload(t, name), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.c.Run(50_000); err != nil {
			t.Fatal(err)
		}
		// One run of the whole stretch, so a single allocation anywhere in
		// it shows up (AllocsPerRun truncates the per-run average).
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < cycles; i++ {
				m.c.Cycle()
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %d steady-state cycles allocated %.0f times, want 0", name, cycles, allocs)
		}
	}
}

// TestBRCycleAllocFree pins the same zero for the machine with Mini Branch
// Runahead attached. After 70k warm cycles the chain instances come from
// the DCE's pool and its lists and lookup buffers have reached their high-
// water marks, so none of the next 20k Core.Cycle calls may allocate —
// except in a cycle that runs a chain-extraction walk. Extraction still
// allocates each chain it builds, even one that only refreshes an
// identical cached chain (ChainCache.Install must give it a new identity;
// see DESIGN.md §12). mcf_17 runs no walk in the window, so its whole
// window is pinned at zero; omnetpp_06 refreshes its chains a few times.
// leela_17 and tc are left out: they keep extracting and installing new
// chains, at about 40 objects per installed chain, and a newly installed
// chain can still grow the pool's slabs and lists to a new high-water mark.
func TestBRCycleAllocFree(t *testing.T) {
	const warm, cycles = 70_000, 20_000
	for _, name := range []string{"mcf_17", "omnetpp_06"} {
		var walks extractWalks
		cfg := DefaultConfig()
		mini := runahead.Mini()
		cfg.BR = &mini
		cfg.Trace = trace.New(&walks)
		m, err := newMachine(mustWorkload(t, name), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < warm; i++ {
			m.c.Cycle()
		}
		allocs, walkCycles := cycleAllocs(m, cycles, &walks)
		if allocs != 0 {
			t.Errorf("%s: %d steady-state cycles with Mini allocated %d times outside extraction walks, want 0",
				name, cycles-walkCycles, allocs)
		}
		if name == "mcf_17" && walkCycles != 0 {
			t.Errorf("%s: %d cycles ran an extraction walk, want none", name, walkCycles)
		}
	}
}

// extractWalks counts chain-extraction walks: the system emits one
// KindExtract event per walk, whether or not it installs a chain.
type extractWalks int

func (n *extractWalks) Emit(ev trace.Event) {
	if ev.Kind == trace.KindExtract {
		*n++
	}
}

// cycleAllocs runs n cycles and returns the heap allocations made by the
// cycles that ran no extraction walk, and how many cycles did run one.
// Like testing.AllocsPerRun it measures on one P.
func cycleAllocs(m *machine, n int, walks *extractWalks) (allocs uint64, walkCycles int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	for i := 0; i < n; i++ {
		runtime.ReadMemStats(&ms)
		before, w := ms.Mallocs, *walks
		m.c.Cycle()
		runtime.ReadMemStats(&ms)
		if *walks != w {
			walkCycles++
			continue
		}
		allocs += ms.Mallocs - before
	}
	return allocs, walkCycles
}
