package main

// The -trace mode: run one simulation with the structured event tracer
// attached, write a Chrome trace_event JSON file (loadable in Perfetto or
// chrome://tracing), and cross-check the trace's per-branch prediction
// aggregation against the run's Figure 12 counters. The two are computed
// by independent code paths from the same emission sites, so an exact
// match validates the trace as a faithful record of the run.

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	br "repro"
	"repro/internal/runahead"
	"repro/internal/trace"
)

// traceOptions holds the parsed -trace* flags.
type traceOptions struct {
	out      string // output JSON path
	filter   string // "pc=0x..." or empty
	workload string
	config   string // baseline or a runahead.ConfigNames name
	warmup   uint64
	instrs   uint64
}

// parsePCFilter parses "pc=0x4a0" into a PC value.
func parsePCFilter(s string) (uint64, error) {
	rest, ok := strings.CutPrefix(s, "pc=")
	if !ok {
		return 0, fmt.Errorf("bad filter %q (want pc=0x...)", s)
	}
	pc, err := strconv.ParseUint(rest, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad filter PC %q: %v", rest, err)
	}
	return pc, nil
}

// runTrace executes the -trace mode and returns an exit error, if any.
func runTrace(opts traceOptions) error {
	var brCfg *br.BRConfig
	if opts.config != "baseline" {
		cfg, err := runahead.ConfigByName(opts.config)
		if err != nil {
			return err
		}
		brCfg = &cfg
	}

	f, err := os.Create(opts.out)
	if err != nil {
		return err
	}
	chrome := trace.NewChrome(f)
	agg := trace.NewBranchAgg()
	tr := trace.New(chrome, agg)
	if opts.filter != "" {
		pc, err := parsePCFilter(opts.filter)
		if err != nil {
			return err
		}
		tr.FilterPC(pc)
	}

	res, runErr := br.Run(opts.workload, br.RunConfig{
		BR:        brCfg,
		Warmup:    opts.warmup,
		MaxInstrs: opts.instrs,
		Trace:     tr,
	})
	if cerr := tr.Close(); cerr != nil && runErr == nil {
		runErr = fmt.Errorf("writing %s: %w", opts.out, cerr)
	}
	if runErr != nil {
		return runErr
	}

	fmt.Printf("trace: %s %s: wrote %s\n", res.Workload, res.Config, opts.out)
	fmt.Printf("trace: %d cycles, %d instrs, IPC %.3f\n", res.Cycles, res.Instrs, res.IPC)

	if brCfg == nil {
		return nil
	}
	if opts.filter != "" {
		// A PC filter drops events for every other branch, so the
		// aggregation covers only the filtered branch; the run-wide
		// Figure 12 cross-check does not apply.
		printPerBranch(agg)
		return nil
	}

	// Cross-check: the trace aggregation must reproduce the run's
	// Figure 12 breakdown exactly.
	got := agg.Totals()
	mismatch := false
	for _, k := range []string{"inactive", "late", "throttled", "correct", "incorrect"} {
		if got[k] != res.Breakdown[k] {
			fmt.Fprintf(os.Stderr, "trace: MISMATCH %s: trace %d, counters %d\n",
				k, got[k], res.Breakdown[k])
			mismatch = true
		}
	}
	if mismatch {
		return fmt.Errorf("trace aggregation diverges from the run's Figure 12 counters")
	}
	fmt.Printf("trace: aggregation matches Figure 12 counters (inactive=%d late=%d throttled=%d correct=%d incorrect=%d)\n",
		got["inactive"], got["late"], got["throttled"], got["correct"], got["incorrect"])
	printPerBranch(agg)
	return nil
}

// printPerBranch renders the per-branch Figure 12 decomposition.
func printPerBranch(agg *trace.BranchAgg) {
	per := agg.PerBranch()
	sort.Slice(per, func(i, j int) bool { return per[i].Totals.Total() > per[j].Totals.Total() })
	if len(per) > 10 {
		per = per[:10]
	}
	if len(per) == 0 {
		return
	}
	fmt.Println("trace: top targeted branches:")
	for _, b := range per {
		t := b.Totals
		fmt.Printf("  pc=0x%x total=%d inactive=%d late=%d throttled=%d correct=%d incorrect=%d\n",
			b.PC, t.Total(), t.Inactive, t.Late, t.Throttled, t.Correct, t.Incorrect)
	}
}
