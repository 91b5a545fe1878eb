package branchrunahead

// The root benchmarks cover what bench/ (the repository's benchmark, a Go
// module of its own; see bench/README.md) does not: the figure suite's
// parallel and warm-cache speedups, and the design-decision ablations.
// brexp regenerates the figures themselves.
//
//	go test -run '^$' -bench . -benchtime 1x

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/workloads"
)

// benchOptions is the reduced Figure-10 budget of the suite benchmarks.
func benchOptions() ExperimentOptions {
	o := QuickExperimentOptions()
	o.Workloads = []string{"mcf_17", "leela_17", "bfs"}
	o.Warmup = 20_000
	o.Instrs = 60_000
	return o
}

// BenchmarkSuiteParallelSpeedup measures figure-suite throughput — executed
// simulations per wall second regenerating Figure 10 — across worker
// counts. The experiments tests assert the rendered output is byte-identical
// at every -j; this benchmark shows what the parallelism buys. The speedup
// at j>1 naturally tops out at the host's core count.
func BenchmarkSuiteParallelSpeedup(b *testing.B) {
	jobsSet := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		jobsSet = append(jobsSet, n)
	}
	for _, jobs := range jobsSet {
		b.Run(fmt.Sprintf("j%d", jobs), func(b *testing.B) {
			runs := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := benchOptions()
				o.Jobs = jobs
				s := NewExperiments(o)
				if _, err := s.Figure10(); err != nil {
					b.Fatal(err)
				}
				runs += s.RunsExecuted()
			}
			b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/sec")
		})
	}
}

// BenchmarkSuiteWarmCacheSpeedup measures what the persistent run cache
// buys: regenerating Figure 10 against a warm -cache-dir executes zero
// simulations, so a warm pass is pure result decode plus table assembly.
// One cold pass populates the cache outside the timer; the timed loop is
// all warm passes, and warm_speedup reports cold-seconds over
// warm-seconds-per-pass.
func BenchmarkSuiteWarmCacheSpeedup(b *testing.B) {
	o := benchOptions()
	o.CacheDir = b.TempDir()

	coldStart := time.Now()
	s := NewExperiments(o)
	if _, err := s.Figure10(); err != nil {
		b.Fatal(err)
	}
	cold := time.Since(coldStart)
	if s.RunsExecuted() == 0 {
		b.Fatal("cold pass executed no simulations")
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewExperiments(o)
		if _, err := w.Figure10(); err != nil {
			b.Fatal(err)
		}
		if n := w.RunsExecuted(); n != 0 {
			b.Fatalf("warm pass executed %d simulations, want 0", n)
		}
	}
	warm := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(cold.Seconds()/warm.Seconds(), "warm_speedup")
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5): each disables one design decision and reports
// the Mini MPKI improvement that remains.

// benchAblation benchmarks one ablated configuration. The unmodified
// baseline run only feeds the improvement metric, so it is setup: it runs
// once before the timer starts, and the measured loop simulates only the
// mutated configuration.
func benchAblation(b *testing.B, mutate func(*BRConfig)) {
	b.Helper()
	scale := workloads.SmallScale()
	base, err := Run("leela_17", RunConfig{Warmup: 20_000, MaxInstrs: 80_000, Scale: &scale})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Mini()
		mutate(&cfg)
		br, err := Run("leela_17", RunConfig{BR: &cfg, Warmup: 20_000, MaxInstrs: 80_000, Scale: &scale})
		if err != nil {
			b.Fatal(err)
		}
		imp := 0.0
		if base.MPKI != 0 {
			imp = 100 * (base.MPKI - br.MPKI) / base.MPKI
		}
		b.ReportMetric(imp, "mpki_improvement_pct")
	}
}

// BenchmarkAblationInOrderDCE evaluates in-order chain scheduling (the
// paper found it exposes too little MLP).
func BenchmarkAblationInOrderDCE(b *testing.B) {
	benchAblation(b, func(c *BRConfig) { c.InOrderChainExec = true })
}

// BenchmarkAblationNoAffectorGuard disables affector/guard termination;
// chains then alternate between path variants and diverge sooner.
func BenchmarkAblationNoAffectorGuard(b *testing.B) {
	benchAblation(b, func(c *BRConfig) { c.UseAffectorGuard = false })
}

// BenchmarkAblationNoMoveElim disables move and store-load-pair
// elimination, lengthening chains.
func BenchmarkAblationNoMoveElim(b *testing.B) {
	benchAblation(b, func(c *BRConfig) { c.MoveElim = false })
}

// BenchmarkAblationNoThrottle disables the 2-bit throttle counters that
// protect against persistent divergence.
func BenchmarkAblationNoThrottle(b *testing.B) {
	benchAblation(b, func(c *BRConfig) { c.Throttle = false })
}

// BenchmarkAblationMergePoint compares the wrong-path-buffer merge point
// predictor against the prior-work layout heuristic on the same recoveries
// (the paper: 92% vs 78%).
func BenchmarkAblationMergePoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scale := workloads.SmallScale()
		cfg := Mini()
		res, err := Run("leela_17", RunConfig{BR: &cfg, Warmup: 20_000, MaxInstrs: 80_000, Scale: &scale})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.MergeAcc, "wpb_merge_accuracy_pct")
		b.ReportMetric(100*res.MergeAccLayout, "layout_merge_accuracy_pct")
	}
}
