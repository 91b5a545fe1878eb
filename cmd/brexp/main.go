// Command brexp regenerates the paper's evaluation: every figure and table
// from "Branch Runahead" (MICRO 2021), printed as aligned text tables.
//
// Usage:
//
//	brexp                         # everything, default budgets
//	brexp -figure 10              # just Figure 10
//	brexp -quick                  # reduced workloads/budgets (smoke test)
//	brexp -instrs 2000000         # longer runs
//	brexp -j 8                    # run up to 8 simulations concurrently
//	brexp -cache-dir .brexp-cache # skip points already computed by earlier invocations
//	brexp -cache-dir .brexp-cache -resume   # also resume points interrupted mid-run
//
// Single-point mode runs one (workload, predictor, BR) combination through
// the same cache as the figures and prints its metrics, plus the Branch
// Runahead summary (chains, DCE work, merge-point accuracy, Figure 12
// breakdown) when -br is set; -json prints the whole result, chain-cache
// contents and per-branch counts included. The workload may be a recorded
// trace, replayed through the full machine:
//
//	brexp -workload mcf_17 -br mini
//	brexp -workload astar_06 -br mini -json     # chain dumps, per-branch stats
//	brexp -workload mcf_17 -predictor bullseye  # swap the predictor
//	brtrace record -workload leela_17 -o leela.btr
//	brexp -workload trace:leela.btr
//
// Trace mode runs a single simulation with the structured event tracer
// attached and writes a Chrome trace_event JSON file (open in Perfetto or
// chrome://tracing); the trace's per-branch aggregation is cross-checked
// against the run's Figure 12 counters:
//
//	brexp -trace out.json                          # leela_17 under Mini
//	brexp -trace out.json -trace-workload mcf_17 -trace-config big
//	brexp -trace out.json -trace-filter pc=0x4a0   # one branch's events
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	br "repro"
	"repro/internal/experiments"
	"repro/internal/runahead"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	var (
		figure      = flag.String("figure", "all", "comma-separated list of: all | "+strings.Join(experiments.FigureNames(), " | ")+" | tables")
		quick       = flag.Bool("quick", false, "reduced workload set and budgets")
		instrs      = flag.Uint64("instrs", 0, "override measured instruction budget per run")
		warmup      = flag.Uint64("warmup", 0, "override warmup instructions")
		verbose     = flag.Bool("v", false, "print per-run progress")
		asJSON      = flag.Bool("json", false, "emit tables as JSON instead of text")
		sweepInstrs = flag.Uint64("sweepinstrs", 0, "override Figure 13 sweep budget per run")
		jobs        = flag.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS); output is identical for any value")
		cacheDir    = flag.String("cache-dir", "", "persistent run cache directory; completed simulation points are reused across invocations")
		noCache     = flag.Bool("no-cache", false, "recompute every point, ignoring the persistent cache even when -cache-dir is set")
		resume      = flag.Bool("resume", false, "with -cache-dir: persist mid-run snapshots and resume interrupted points on restart")
		shareWarmup = flag.Bool("share-warmup", false, "warm up once per workload and fork each point from the shared snapshot (WarmupBarrier mode; overridden by -resume)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this path on exit")

		workloadRun = flag.String("workload", "", "run one simulation point instead of figures: a kernel name or trace:<file.btr> (see -predictor/-br)")
		predictor   = flag.String("predictor", sim.PredTage64.String(), "predictor for -workload mode: "+strings.Join(sim.PredictorNames(), "|"))
		brConfig    = flag.String("br", "", "Branch Runahead config for -workload mode: "+strings.Join(runahead.ConfigNames(), "|")+" (empty = predictor alone)")

		traceOut      = flag.String("trace", "", "write a Chrome trace_event JSON of one run to this path and exit")
		traceFilter   = flag.String("trace-filter", "", "only trace events for one branch: pc=0x...")
		traceWorkload = flag.String("trace-workload", "leela_17", "workload for -trace mode")
		traceConfig   = flag.String("trace-config", "mini", "configuration for -trace mode: baseline|"+strings.Join(runahead.ConfigNames(), "|"))
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "brexp: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "brexp: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "brexp: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "brexp: -memprofile: %v\n", err)
			}
		}()
	}

	if *traceOut != "" {
		opts := traceOptions{
			out:      *traceOut,
			filter:   *traceFilter,
			workload: *traceWorkload,
			config:   *traceConfig,
			warmup:   *warmup,
			instrs:   *instrs,
		}
		if err := runTrace(opts); err != nil {
			fmt.Fprintf(os.Stderr, "brexp: trace: %v\n", err)
			os.Exit(1)
		}
		return
	}

	opts := br.DefaultExperimentOptions()
	if *quick {
		opts = br.QuickExperimentOptions()
	}
	if *instrs > 0 {
		opts.Instrs = *instrs
	}
	if *warmup > 0 {
		opts.Warmup = *warmup
	}
	if *sweepInstrs > 0 {
		opts.SweepInstrs = *sweepInstrs
	}
	opts.Jobs = *jobs
	opts.CacheDir = *cacheDir
	opts.NoCache = *noCache
	opts.Resume = *resume
	opts.ShareWarmup = *shareWarmup
	if *resume && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "brexp: -resume requires -cache-dir")
		os.Exit(2)
	}
	if *verbose {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	s := br.NewExperiments(opts)

	if *workloadRun != "" {
		res, err := s.RunNamed(*workloadRun, *predictor, *brConfig)
		if err != nil {
			fmt.Fprintf(os.Stderr, "brexp: -workload: %v\n", err)
			os.Exit(1)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				fmt.Fprintf(os.Stderr, "brexp: %v\n", err)
				os.Exit(1)
			}
			return
		}
		fmt.Printf("%s under %s: IPC %.4f  MPKI %.4f  (%d instrs, %d cycles, %d mispredicts)\n",
			res.Workload, res.Config, res.IPC, res.MPKI, res.Instrs, res.Cycles, res.Mispred)
		if *brConfig != "" {
			fmt.Printf("chains     %d installed, avg %.1f uops, %.0f%% with affector/guard triggers\n",
				res.Chains, res.AvgChainLen, 100*res.AGFraction)
			fmt.Printf("DCE        %d uops (%d loads), %d syncs\n", res.DCEUops, res.DCELoads, res.Syncs)
			fmt.Printf("merge acc  %.0f%% (WPB) vs %.0f%% (layout heuristic)\n",
				100*res.MergeAcc, 100*res.MergeAccLayout)
			fmt.Printf("breakdown  %v\n", res.Breakdown)
		}
		return
	}

	selected, err := selectFigures(*figure)
	if err != nil {
		fmt.Fprintf(os.Stderr, "brexp: %v\n", err)
		os.Exit(1)
	}
	emit := func(t *stats.Table) {
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(t); err != nil {
				fmt.Fprintf(os.Stderr, "brexp: %v\n", err)
				os.Exit(1)
			}
			return
		}
		fmt.Println(t)
	}
	for _, name := range selected {
		if name == "tables" {
			emit(br.Table1())
			emit(br.Table2())
			emit(br.AreaTable())
			continue
		}
		// selectFigures returns only registered names.
		table, _ := experiments.FigureByName(name)
		t, err := table(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "brexp: figure %s: %v\n", name, err)
			os.Exit(1)
		}
		emit(t)
	}
}

// selectFigures parses -figure, a comma-separated, case-insensitive list of
// figure names, "tables" and "all" (the tables and every figure). It
// returns "tables" first when selected, then the selected figures in the
// paper's order, whatever order they were listed in. An unknown name is an
// error naming it.
func selectFigures(spec string) ([]string, error) {
	names := experiments.FigureNames()
	want := map[string]bool{}
	for _, w := range strings.Split(strings.ToLower(spec), ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		if w != "all" && w != "tables" && !slices.Contains(names, w) {
			return nil, fmt.Errorf("unknown figure %q (want all, tables or one of %v)", w, names)
		}
		want[w] = true
	}
	var selected []string
	if want["all"] || want["tables"] {
		selected = append(selected, "tables")
	}
	for _, name := range names {
		if want["all"] || want[name] {
			selected = append(selected, name)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("-figure %q names no figure", spec)
	}
	return selected, nil
}
