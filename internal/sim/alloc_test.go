package sim

import (
	"runtime"
	"slices"
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
// except in a cycle whose extraction walk installed a new or changed chain,
// which the chain cache copies (DESIGN.md §12). A walk that only refreshes
// an unchanged chain allocates nothing. mcf_17 runs no walk in the window;
// omnetpp_06 runs 19, all refreshes, so its window pins that path at zero.
// leela_17 and tc cannot join: they install new chains in the window (22
// and 47 copies), and as new chains run the engine's pool keeps growing to
// new high-water marks — instance slabs sized for a longer chain, the
// lists of successors an instance initiated, pending live-ins, the
// deferred list — 105 and 49 allocations outside the copying cycles.
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
		allocs, walkCycles, copyCycles := cycleAllocs(m, cycles, &walks)
		if allocs != 0 {
			t.Errorf("%s: %d steady-state cycles with Mini allocated %d times outside the cycles that copied a chain, want 0",
				name, cycles-copyCycles, allocs)
		}
		switch {
		case name == "mcf_17" && walkCycles != 0:
			t.Errorf("%s: %d cycles ran an extraction walk, want none", name, walkCycles)
		case name == "omnetpp_06" && walkCycles == copyCycles:
			t.Errorf("%s: none of its %d extraction walks refreshed a chain without copying it", name, walkCycles)
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
// cycles that installed no copy of a chain, how many cycles ran an
// extraction walk and how many of those installed a copy: a chain object
// the cache did not hold before the cycle. Like testing.AllocsPerRun it
// measures on one P. Only a walk installs chains, so the cached chains are
// listed again only after a walk, outside the measured stretch. Listed
// every cycle, the listings start a garbage collection inside the
// stretch, and in some runs the cycle it overlaps reads one stray
// allocation.
func cycleAllocs(m *machine, n int, walks *extractWalks) (allocs uint64, walkCycles, copyCycles int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	cached := m.sys.Chains()
	for i := 0; i < n; i++ {
		runtime.ReadMemStats(&ms)
		before, w := ms.Mallocs, *walks
		m.c.Cycle()
		runtime.ReadMemStats(&ms)
		if *walks != w {
			walkCycles++
			after := m.sys.Chains()
			isCopy := copied(cached, after)
			cached = after
			if isCopy {
				copyCycles++
				continue
			}
		}
		allocs += ms.Mallocs - before
	}
	return allocs, walkCycles, copyCycles
}

// copied reports whether after holds a chain that before does not.
func copied(before, after []*runahead.Chain) bool {
	for _, ch := range after {
		if !slices.Contains(before, ch) {
			return true
		}
	}
	return false
}
