package experiments

import (
	"sync"
	"testing"

	"repro/internal/sim"
)

// warmShareOptions is a small Figure-13 sweep budget with warmup sharing on.
func warmShareOptions(jobs int) Options {
	o := QuickOptions()
	o.SweepWorkloads = []string{"mcf_17"}
	o.Warmup = 10_000
	o.SweepInstrs = 20_000
	o.Instrs = 20_000
	o.Jobs = jobs
	o.ShareWarmup = true
	return o
}

// TestSharedSweepDeterministicAcrossJobs renders the shared-warmup Figure 13
// at two worker counts and requires byte-identical tables: neither the
// worker count nor which goroutine happened to compute the shared warmup may
// leak into the output.
func TestSharedSweepDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var tables []string
	var runs []int
	for _, jobs := range []int{1, 4} {
		s := NewSuite(warmShareOptions(jobs))
		tbl, _, err := s.Figure13()
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tbl.String())
		runs = append(runs, s.RunsExecuted())
	}
	if tables[0] != tables[1] {
		t.Errorf("shared-warmup Figure 13 differs between j1 and j4:\nj1:\n%s\nj4:\n%s",
			tables[0], tables[1])
	}
	if runs[0] != runs[1] {
		t.Errorf("executed-run count depends on worker count: j1=%d j4=%d", runs[0], runs[1])
	}
}

// TestSharedSweepWarmsUpOncePerKey checks the whole point of sharing: a full
// Figure-13 sweep — every point a distinct BR config — performs exactly one
// warmup per sweep workload, because BR is a measure-phase field and all
// points agree on the warmup partition.
func TestSharedSweepWarmsUpOncePerKey(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := NewSuite(warmShareOptions(4))
	if _, _, err := s.Figure13(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(s.runner.warmups), len(s.opts.SweepWorkloads); got != want {
		t.Errorf("warmup key count = %d, want %d (one per sweep workload)", got, want)
	}
	if s.RunsExecuted() == 0 {
		t.Error("shared sweep reported zero executed runs")
	}
}

// TestRunnerWarmupSingleflight hammers one warmup key from many goroutines
// and requires the compute function to run exactly once, with every caller
// receiving the same warm machine. Each caller holds a worker slot, as a
// run's compute does: a duplicate caller hands its slot back while it
// waits, so without one it would block on an empty semaphore.
func TestRunnerWarmupSingleflight(t *testing.T) {
	r := newRunner(4)
	var mu sync.Mutex
	computes := 0
	var wg sync.WaitGroup
	want := new(sim.WarmMachine)
	got := make([]*sim.WarmMachine, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.sem <- struct{}{}
			defer func() { <-r.sem }()
			got[i], _ = r.warmup("k", func() (*sim.WarmMachine, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				return want, nil
			})
		}(i)
	}
	wg.Wait()
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	for i, w := range got {
		if w != want {
			t.Fatalf("caller %d got another warm machine", i)
		}
	}
}
