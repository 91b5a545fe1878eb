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
//
// A flag the selected mode does not read (-br without -workload, -workload
// with -trace, -trace-config without -trace) is a usage error: brexp names
// the flag and the mode and exits 2 before it simulates anything.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
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

// mode is what one brexp invocation does: print figures (the default), run
// a single point (-workload) or trace a single run (-trace).
type mode uint8

const (
	modeFigures mode = 1 << iota
	modeWorkload
	modeTrace
)

func (m mode) String() string {
	var names []string
	for _, n := range []struct {
		m    mode
		name string
	}{{modeFigures, "figure mode"}, {modeWorkload, "-workload mode"}, {modeTrace, "-trace mode"}} {
		if m&n.m != 0 {
			names = append(names, n.name)
		}
	}
	return strings.Join(names, " and ")
}

// flagModes records, for each flag that only some modes read, the modes
// that read it. The profiling flags apply in every mode and are absent.
var flagModes = map[string]mode{
	"figure":         modeFigures,
	"sweepinstrs":    modeFigures,
	"j":              modeFigures,
	"quick":          modeFigures | modeWorkload,
	"v":              modeFigures | modeWorkload,
	"json":           modeFigures | modeWorkload,
	"cache-dir":      modeFigures | modeWorkload,
	"share-warmup":   modeFigures | modeWorkload,
	"instrs":         modeFigures | modeWorkload | modeTrace,
	"warmup":         modeFigures | modeWorkload | modeTrace,
	"workload":       modeWorkload,
	"predictor":      modeWorkload,
	"br":             modeWorkload,
	"trace":          modeTrace,
	"trace-filter":   modeTrace,
	"trace-workload": modeTrace,
	"trace-config":   modeTrace,
}

// cli holds the parsed command line.
type cli struct {
	mode                   mode
	figure                 string
	quick, verbose, asJSON bool
	instrs, warmup         uint64
	sweepInstrs            uint64
	jobs                   int
	cacheDir               string
	shareWarmup            bool
	cpuProfile, memProfile string

	workload, predictor, brConfig string

	trace traceOptions
}

// parseArgs parses brexp's arguments, writing flag errors and usage to
// stderr. An explicitly set flag that the selected mode does not read is
// an error naming the flag and the mode, so nothing the user asked for is
// silently dropped.
func parseArgs(args []string, stderr io.Writer) (*cli, error) {
	c := &cli{}
	fs := flag.NewFlagSet("brexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.figure, "figure", "all", "comma-separated list of: all | "+strings.Join(experiments.FigureNames(), " | ")+" | tables")
	fs.BoolVar(&c.quick, "quick", false, "reduced workload set and budgets")
	fs.Uint64Var(&c.instrs, "instrs", 0, "override measured instruction budget per run")
	fs.Uint64Var(&c.warmup, "warmup", 0, "override warmup instructions")
	fs.BoolVar(&c.verbose, "v", false, "print per-run progress")
	fs.BoolVar(&c.asJSON, "json", false, "emit tables as JSON instead of text")
	fs.Uint64Var(&c.sweepInstrs, "sweepinstrs", 0, "override Figure 13 sweep budget per run")
	fs.IntVar(&c.jobs, "j", 0, "max concurrent simulations (0 = GOMAXPROCS); output is identical for any value")
	fs.StringVar(&c.cacheDir, "cache-dir", "", "persistent run cache directory; completed simulation points are reused across invocations")
	fs.BoolVar(&c.shareWarmup, "share-warmup", false, "warm up once per workload and fork each point from the shared snapshot (WarmupBarrier mode)")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this path")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this path on exit")

	fs.StringVar(&c.workload, "workload", "", "run one simulation point instead of figures: a kernel name or trace:<file.btr> (see -predictor/-br)")
	fs.StringVar(&c.predictor, "predictor", sim.PredTage64.String(), "predictor for -workload mode: "+strings.Join(sim.PredictorNames(), "|"))
	fs.StringVar(&c.brConfig, "br", "", "Branch Runahead config for -workload mode: "+strings.Join(runahead.ConfigNames(), "|")+" (empty = predictor alone)")

	fs.StringVar(&c.trace.out, "trace", "", "write a Chrome trace_event JSON of one run to this path and exit")
	fs.StringVar(&c.trace.filter, "trace-filter", "", "only trace events for one branch: pc=0x...")
	fs.StringVar(&c.trace.workload, "trace-workload", "leela_17", "workload for -trace mode")
	fs.StringVar(&c.trace.config, "trace-config", "mini", "configuration for -trace mode: baseline|"+strings.Join(runahead.ConfigNames(), "|"))
	if err := fs.Parse(args); err != nil {
		return nil, err // the flag set has reported it
	}
	switch {
	case c.trace.out != "":
		c.mode = modeTrace
	case c.workload != "":
		c.mode = modeWorkload
	default:
		c.mode = modeFigures
	}
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if m, ok := flagModes[f.Name]; ok && m&c.mode == 0 {
			unread = append(unread, fmt.Sprintf("-%s is not read in %s, only in %s", f.Name, c.mode, m))
		}
	})
	var err error
	switch {
	case len(unread) > 0:
		err = errors.New(strings.Join(unread, "; "))
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintf(stderr, "brexp: %v\n", err)
		return nil, err
	}
	c.trace.warmup, c.trace.instrs = c.warmup, c.instrs
	return c, nil
}

func main() {
	c, err := parseArgs(os.Args[1:], os.Stderr)
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		os.Exit(2)
	}

	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
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
	if c.memProfile != "" {
		defer func() {
			f, err := os.Create(c.memProfile)
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

	if c.mode == modeTrace {
		if err := runTrace(c.trace); err != nil {
			fmt.Fprintf(os.Stderr, "brexp: trace: %v\n", err)
			os.Exit(1)
		}
		return
	}

	s := c.suite()

	if c.mode == modeWorkload {
		res, err := s.RunNamed(c.workload, c.predictor, c.brConfig)
		if err != nil {
			fmt.Fprintf(os.Stderr, "brexp: -workload: %v\n", err)
			os.Exit(1)
		}
		if c.asJSON {
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
		if c.brConfig != "" {
			fmt.Printf("chains     %d installed, avg %.1f uops, %.0f%% with affector/guard triggers\n",
				res.Chains, res.AvgChainLen, 100*res.AGFraction)
			fmt.Printf("DCE        %d uops (%d loads), %d syncs\n", res.DCEUops, res.DCELoads, res.Syncs)
			fmt.Printf("merge acc  %.0f%% (WPB) vs %.0f%% (layout heuristic)\n",
				100*res.MergeAcc, 100*res.MergeAccLayout)
			fmt.Printf("breakdown  %v\n", res.Breakdown)
		}
		return
	}

	if err := printFigures(os.Stdout, s, c.figure, c.asJSON); err != nil {
		fmt.Fprintf(os.Stderr, "brexp: %v\n", err)
		os.Exit(1)
	}
}

// suite builds the experiment suite the figure and -workload modes run on,
// from the budget and operational flags.
func (c *cli) suite() *experiments.Suite {
	opts := br.DefaultExperimentOptions()
	if c.quick {
		opts = br.QuickExperimentOptions()
	}
	if c.instrs > 0 {
		opts.Instrs = c.instrs
	}
	if c.warmup > 0 {
		opts.Warmup = c.warmup
	}
	if c.sweepInstrs > 0 {
		opts.SweepInstrs = c.sweepInstrs
	}
	opts.Jobs = c.jobs
	opts.CacheDir = c.cacheDir
	opts.ShareWarmup = c.shareWarmup
	if c.verbose {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	return br.NewExperiments(opts)
}

// printFigures renders the tables and figures that the -figure list spec
// selects to out, as text or as JSON, in selectFigures' order.
func printFigures(out io.Writer, s *experiments.Suite, spec string, asJSON bool) error {
	selected, err := selectFigures(spec)
	if err != nil {
		return err
	}
	emit := func(t *stats.Table) error {
		if asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			return enc.Encode(t)
		}
		_, err := fmt.Fprintln(out, t)
		return err
	}
	for _, name := range selected {
		if name == "tables" {
			for _, t := range []*stats.Table{br.Table1(), br.Table2(), br.AreaTable()} {
				if err := emit(t); err != nil {
					return err
				}
			}
			continue
		}
		// selectFigures returns only registered names.
		table, _ := experiments.FigureByName(name)
		t, err := table(s)
		if err != nil {
			return fmt.Errorf("figure %s: %w", name, err)
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	return nil
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
