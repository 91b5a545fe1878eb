package branchrunahead

// The benchmark harness: one testing.B benchmark per paper table and
// figure, plus ablation benches for the design decisions DESIGN.md calls
// out. Each benchmark regenerates its figure at a reduced budget and
// reports the headline numbers via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the reproduced series alongside timing.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/btrace"
	"repro/internal/server"
	"repro/internal/workloads"
)

// benchOptions is the reduced budget used by the benchmark harness.
func benchOptions() ExperimentOptions {
	o := QuickExperimentOptions()
	o.Workloads = []string{"mcf_17", "leela_17", "bfs"}
	o.SweepWorkloads = []string{"mcf_17"}
	o.Warmup = 20_000
	o.Instrs = 60_000
	o.SweepInstrs = 40_000
	return o
}

func lastRowF(b *testing.B, t *Table, col int) float64 {
	b.Helper()
	row := t.Rows[len(t.Rows)-1]
	var v float64
	if _, err := sscan(row[col], &v); err != nil {
		b.Fatalf("parse %q: %v", row[col], err)
	}
	return v
}

// BenchmarkFigure1 regenerates the hardest-branch misprediction rates
// (TAGE-SC-L vs MTAGE-SC vs dependence chains).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewExperiments(benchOptions())
		t, err := s.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastRowF(b, t, 1), "tage64_misp_pct")
		b.ReportMetric(lastRowF(b, t, 2), "mtage_misp_pct")
		b.ReportMetric(lastRowF(b, t, 3), "chains_misp_pct")
	}
}

// BenchmarkFigure2 regenerates the average dependence chain lengths.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewExperiments(benchOptions())
		t, err := s.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastRowF(b, t, 1), "mean_chain_uops")
	}
}

// BenchmarkFigure3 regenerates the micro-op issue increase due to Branch
// Runahead.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewExperiments(benchOptions())
		t, err := s.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastRowF(b, t, 1), "uops_increase_pct")
		b.ReportMetric(lastRowF(b, t, 2), "loads_increase_pct")
	}
}

// BenchmarkFigure5 regenerates the affector/guard chain fractions.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewExperiments(benchOptions())
		t, err := s.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastRowF(b, t, 1), "ag_chains_pct")
	}
}

// BenchmarkFigure10 regenerates the headline MPKI/IPC improvements of
// Core-Only, Mini and Big Branch Runahead plus the 80KB TAGE comparison.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewExperiments(benchOptions())
		t, err := s.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastRowF(b, t, 1), "mpki_tage80_pct")
		b.ReportMetric(lastRowF(b, t, 3), "mpki_mini_pct")
		b.ReportMetric(lastRowF(b, t, 4), "mpki_big_pct")
		b.ReportMetric(lastRowF(b, t, 7), "ipc_mini_pct")
	}
}

// BenchmarkFigure11Top regenerates MTAGE vs Big Branch Runahead vs the
// combination.
func BenchmarkFigure11Top(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewExperiments(benchOptions())
		t, err := s.Figure11Top()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastRowF(b, t, 1), "mtage_mpki_pct")
		b.ReportMetric(lastRowF(b, t, 2), "bigbr_mpki_pct")
		b.ReportMetric(lastRowF(b, t, 3), "combined_mpki_pct")
	}
}

// BenchmarkFigure11Bottom regenerates the chain initiation policy
// comparison.
func BenchmarkFigure11Bottom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewExperiments(benchOptions())
		t, err := s.Figure11Bottom()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastRowF(b, t, 1), "nonspec_mpki_pct")
		b.ReportMetric(lastRowF(b, t, 2), "indep_mpki_pct")
		b.ReportMetric(lastRowF(b, t, 3), "predictive_mpki_pct")
	}
}

// BenchmarkFigure12 regenerates the prediction breakdown.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewExperiments(benchOptions())
		t, err := s.Figure12()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastRowF(b, t, 1), "inactive_pct")
		b.ReportMetric(lastRowF(b, t, 2), "late_pct")
		b.ReportMetric(lastRowF(b, t, 5), "correct_pct")
	}
}

// BenchmarkFigure13 regenerates the parameter sweeps (reduced axes at the
// bench budget).
func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewExperiments(benchOptions())
		_, points, err := s.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		// Report the largest single-parameter gain over Mini.
		best := 0.0
		for _, p := range points {
			if p.MPKIImprovement > best {
				best = p.MPKIImprovement
			}
		}
		b.ReportMetric(best, "best_param_gain_pct")
	}
}

// BenchmarkFigure14 regenerates the energy deltas.
func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewExperiments(benchOptions())
		t, err := s.Figure14()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastRowF(b, t, 2), "mini_energy_delta_pct")
	}
}

// BenchmarkFigure15 regenerates the competing-predictor head-to-head and
// reports every predictor's mean MPKI alone and with Mini Branch
// Runahead — the paper's orthogonality argument as benchmark metrics.
func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewExperiments(benchOptions())
		t, err := s.Figure15()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range t.Rows {
			if !strings.HasPrefix(row[0], "mean/") {
				continue
			}
			name := strings.TrimPrefix(row[0], "mean/")
			var alone, withBR float64
			if _, err := sscan(row[1], &alone); err != nil {
				b.Fatalf("parse %q: %v", row[1], err)
			}
			if _, err := sscan(row[3], &withBR); err != nil {
				b.Fatalf("parse %q: %v", row[3], err)
			}
			b.ReportMetric(alone, name+"_mpki")
			b.ReportMetric(withBR, name+"_br_mpki")
		}
	}
}

// BenchmarkTable1And2 renders the static configuration tables.
func BenchmarkTable1And2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(Table1().String()) == 0 || len(Table2().String()) == 0 ||
			len(AreaTable().String()) == 0 {
			b.Fatal("empty table")
		}
	}
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

// simSpeedWarmup and simSpeedInstrs are the SimSpeed benchmarks' budget:
// each op simulates 300k instructions, 100k of warmup and 200k measured.
const (
	simSpeedWarmup = 100_000
	simSpeedInstrs = 200_000
)

// reportSimSpeed reports simulated instructions (warmup included) per wall
// second over the benchmark's b.N ops.
func reportSimSpeed(b *testing.B) {
	b.ReportMetric(float64(b.N)*(simSpeedWarmup+simSpeedInstrs)/b.Elapsed().Seconds(), "sim_instr/s")
}

// BenchmarkBaselineSimSpeed measures raw simulator throughput
// (instructions simulated per wall second) on the baseline core.
func BenchmarkBaselineSimSpeed(b *testing.B) {
	scale := workloads.SmallScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run("mcf_17", RunConfig{Warmup: simSpeedWarmup, MaxInstrs: simSpeedInstrs, Scale: &scale})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IPC, "sim_ipc")
	}
	reportSimSpeed(b)
}

// BenchmarkTraceReplaySpeed measures simulator throughput replaying a
// recorded trace of the BenchmarkBaselineSimSpeed run — the same machine,
// fed from the .btr record stream instead of the functional emulator.
// Replay skips correct-path execution at fetch, so this should beat
// BenchmarkBaselineSimSpeed while producing the identical Result.
func BenchmarkTraceReplaySpeed(b *testing.B) {
	scale := workloads.SmallScale()
	w, err := workloads.ByName("mcf_17", scale)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := btrace.Record(w.Prog, w.Name, btrace.StepsFor(simSpeedWarmup, simSpeedInstrs))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "mcf.btr")
	if err := btrace.WriteFile(path, tr); err != nil {
		b.Fatal(err)
	}
	if err := workloads.RegisterTrace("bench-replay", path); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run("trace:bench-replay", RunConfig{Warmup: simSpeedWarmup, MaxInstrs: simSpeedInstrs, Scale: &scale})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IPC, "sim_ipc")
	}
	reportSimSpeed(b)
}

// BenchmarkRunaheadSimSpeed measures throughput with the DCE attached.
func BenchmarkRunaheadSimSpeed(b *testing.B) {
	scale := workloads.SmallScale()
	cfg := Mini()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run("mcf_17", RunConfig{BR: &cfg, Warmup: simSpeedWarmup, MaxInstrs: simSpeedInstrs, Scale: &scale})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IPC, "sim_ipc")
	}
	reportSimSpeed(b)
}

// BenchmarkSimulation is the canonical hot-path benchmark: one Mini
// Branch Runahead simulation with tracing disabled. It reports allocs/op
// so the free-lists are held to account: neither the core's loop nor the
// DCE allocates in steady state (TestCoreCycleAllocFree,
// TestBRCycleAllocFree), so what remains is per-run setup and chain
// extraction, which builds every chain it installs or refreshes.
func BenchmarkSimulation(b *testing.B) {
	scale := workloads.SmallScale()
	cfg := Mini()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run("leela_17", RunConfig{BR: &cfg, Warmup: 20_000, MaxInstrs: 100_000, Scale: &scale})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IPC, "sim_ipc")
	}
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

// BenchmarkSweepWarmupShared measures what warmup-snapshot forking buys on
// the Figure-13 sweep — the workload it was built for: every sweep point is
// a distinct BR config over the same warmup partition, so with -share-warmup
// semantics each sweep workload warms up once and every point forks the
// blob. The unshared pass is the suite's default end-to-end behavior
// (warmup re-simulated per point), so the runs/sec ratio is the user-visible
// win of turning sharing on.
func BenchmarkSweepWarmupShared(b *testing.B) {
	for _, shared := range []bool{false, true} {
		name := "unshared"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			runs := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := benchOptions()
				o.Jobs = 4
				o.ShareWarmup = shared
				s := NewExperiments(o)
				if _, _, err := s.Figure13(); err != nil {
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

// BenchmarkServeWarmRequest measures the brserve fast path: a run request
// over HTTP against a warm cache directory. Each timed iteration stands up
// a fresh server over the same -cache-dir (so the in-memory job registry
// cannot answer — the persistent cache must), submits the request, polls
// to completion and downloads the result. The cold pass outside the timer
// populates the cache; warm iterations must execute zero simulations.
func BenchmarkServeWarmRequest(b *testing.B) {
	cfg := server.Config{CacheDir: b.TempDir(), Quick: true, MaxJobs: 1}
	const reqBody = `{"version":1,"kind":"run","workload":"mcf_17","br":"mini"}`

	serve := func() (runsExecuted int) {
		b.Helper()
		srv, err := server.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(reqBody))
		if err != nil {
			b.Fatal(err)
		}
		var st server.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		for st.State != "done" {
			if st.State == "failed" || st.State == "cancelled" {
				b.Fatalf("job %s: %s", st.State, st.Error)
			}
			time.Sleep(time.Millisecond)
			sr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
			if err != nil {
				b.Fatal(err)
			}
			if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
				b.Fatal(err)
			}
			sr.Body.Close()
		}
		rr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadAll(rr.Body); err != nil {
			b.Fatal(err)
		}
		rr.Body.Close()
		if rr.StatusCode != http.StatusOK {
			b.Fatalf("result status %d", rr.StatusCode)
		}
		return st.RunsExecuted
	}

	coldStart := time.Now()
	if n := serve(); n == 0 {
		b.Fatal("cold request executed no simulations")
	}
	cold := time.Since(coldStart)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := serve(); n != 0 {
			b.Fatalf("warm request executed %d simulations, want 0", n)
		}
	}
	warm := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(cold.Seconds()/warm.Seconds(), "warm_speedup")
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}
