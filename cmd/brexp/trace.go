package main

// -trace: simulate the -workload point once more with the structured event
// tracer attached, write a Chrome trace_event JSON file (loadable in
// Perfetto or chrome://tracing), and cross-check the trace's per-branch
// prediction aggregation against the traced run's Figure 12 counters. The
// two are computed by independent code paths from the same emission sites,
// so an exact match validates the trace as a faithful record of the run.

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/trace"
)

// traceOptions holds the parsed -trace flags.
type traceOptions struct {
	out      string // output JSON path; empty means no trace
	filterPC uint64 // with filtered, trace only this branch's events
	filtered bool
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

// runTrace simulates c's -workload point through s with the tracer
// attached, as brserve's traced run requests do, writes the trace to
// c.trace.out and reports on w. A failed run leaves no trace file.
func (c *cli) runTrace(s *experiments.Suite, w io.Writer) error {
	f, err := os.Create(c.trace.out)
	if err != nil {
		return err
	}
	agg := trace.NewBranchAgg()
	tr := trace.New(trace.NewChrome(f), agg)
	if c.trace.filtered {
		tr.FilterPC(c.trace.filterPC)
	}
	res, err := s.TraceNamed(c.workload, c.predictor, c.brConfig, tr)
	if cerr := tr.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("writing %s: %w", c.trace.out, cerr)
	}
	if err != nil {
		os.Remove(c.trace.out)
		return err
	}
	fmt.Fprintf(w, "trace: wrote %s\n", c.trace.out)

	if c.brConfig == "" {
		return nil
	}
	if c.trace.filtered {
		// A PC filter drops events for every other branch, so the
		// aggregation covers only the filtered branch; the run-wide
		// Figure 12 cross-check does not apply.
		printPerBranch(w, agg)
		return nil
	}

	// Cross-check: the trace aggregation must reproduce the run's
	// Figure 12 breakdown exactly.
	got := agg.Totals()
	mismatch := false
	for _, k := range []string{"inactive", "late", "throttled", "correct", "incorrect"} {
		if got[k] != res.Breakdown[k] {
			fmt.Fprintf(w, "trace: MISMATCH %s: trace %d, counters %d\n", k, got[k], res.Breakdown[k])
			mismatch = true
		}
	}
	if mismatch {
		return fmt.Errorf("trace aggregation diverges from the run's Figure 12 counters")
	}
	fmt.Fprintf(w, "trace: aggregation matches Figure 12 counters (inactive=%d late=%d throttled=%d correct=%d incorrect=%d)\n",
		got["inactive"], got["late"], got["throttled"], got["correct"], got["incorrect"])
	printPerBranch(w, agg)
	return nil
}

// printPerBranch renders the per-branch Figure 12 decomposition.
func printPerBranch(w io.Writer, agg *trace.BranchAgg) {
	per := agg.PerBranch()
	sort.Slice(per, func(i, j int) bool { return per[i].Totals.Total() > per[j].Totals.Total() })
	if len(per) > 10 {
		per = per[:10]
	}
	if len(per) == 0 {
		return
	}
	fmt.Fprintln(w, "trace: top targeted branches:")
	for _, b := range per {
		t := b.Totals
		fmt.Fprintf(w, "  pc=0x%x total=%d inactive=%d late=%d throttled=%d correct=%d incorrect=%d\n",
			b.PC, t.Total(), t.Inactive, t.Late, t.Throttled, t.Correct, t.Incorrect)
	}
}
