package experiments

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/sim"
)

// parallelTestOptions is a budget small enough that the determinism matrix
// (three worker counts) stays fast.
func parallelTestOptions() Options {
	o := QuickOptions()
	o.Workloads = []string{"mcf_17", "leela_17"}
	o.Warmup = 10_000
	o.Instrs = 40_000
	return o
}

// TestFigure10DeterministicAcrossJobs regenerates Figure 10 at three worker
// counts and requires byte-identical rendered tables and identical Progress
// streams: worker count must be invisible in the output.
func TestFigure10DeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	type outcome struct {
		table string
		lines []string
	}
	render := func(jobs int) outcome {
		o := parallelTestOptions()
		o.Jobs = jobs
		var lines []string
		o.Progress = func(l string) { lines = append(lines, l) }
		s := NewSuite(o)
		tab, err := s.Figure10()
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return outcome{table: tab.String(), lines: lines}
	}

	ref := render(1)
	if len(ref.lines) == 0 {
		t.Fatal("serial run emitted no Progress lines")
	}
	if !sort.StringsAreSorted(ref.lines) {
		t.Errorf("progress lines not in sorted label order:\n%v", ref.lines)
	}
	for _, jobs := range []int{2, 8} {
		got := render(jobs)
		if got.table != ref.table {
			t.Errorf("jobs=%d table differs from serial:\n--- jobs=1\n%s\n--- jobs=%d\n%s",
				jobs, ref.table, jobs, got.table)
		}
		if len(got.lines) != len(ref.lines) {
			t.Fatalf("jobs=%d emitted %d progress lines, serial emitted %d",
				jobs, len(got.lines), len(ref.lines))
		}
		for i := range ref.lines {
			if got.lines[i] != ref.lines[i] {
				t.Errorf("jobs=%d progress line %d = %q, serial %q",
					jobs, i, got.lines[i], ref.lines[i])
			}
		}
	}
}

// TestSuiteRunSingleflight races many callers on one point and requires
// exactly one execution, with every caller handed the same result.
func TestSuiteRunSingleflight(t *testing.T) {
	o := parallelTestOptions()
	o.Jobs = 4
	s := NewSuite(o)

	const callers = 16
	results := make([]*sim.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.run("mcf_17", vTage64(), o.Instrs)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if n := s.RunsExecuted(); n != 1 {
		t.Fatalf("%d racing callers caused %d executions, want 1", callers, n)
	}
	for i, res := range results {
		if res != results[0] {
			t.Errorf("caller %d got a different result object (%p vs %p)", i, res, results[0])
		}
	}
}
