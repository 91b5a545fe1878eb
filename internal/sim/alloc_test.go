package sim

import "testing"

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
