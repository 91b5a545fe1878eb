package sim

// Trace integration: a run with the tracer attached must (a) produce
// exactly the same Result as an untraced run — tracing observes, never
// perturbs — and (b) yield a per-branch aggregation whose totals exactly
// reproduce the run's Figure 12 breakdown, since both are computed from
// the same emission sites by independent code paths.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/runahead"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func traceCfg(tr *trace.Tracer) Config {
	mini := runahead.Mini()
	cfg := DefaultConfig()
	cfg.Warmup = 20_000
	cfg.MaxInstrs = 60_000
	cfg.BR = &mini
	cfg.Trace = tr
	return cfg
}

// countSink counts the events it receives.
type countSink uint64

func (c *countSink) Emit(trace.Event) { *c++ }

func TestTracingDoesNotPerturbResult(t *testing.T) {
	w, err := workloads.ByName("leela_17", workloads.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(w, traceCfg(nil))
	if err != nil {
		t.Fatal(err)
	}

	w2, _ := workloads.ByName("leela_17", workloads.SmallScale())
	var events countSink
	traced, err := Run(w2, traceCfg(trace.New(&events)))
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("traced run emitted no events")
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("tracing changed the result:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
}

func TestTraceAggregationMatchesFigure12(t *testing.T) {
	w, err := workloads.ByName("leela_17", workloads.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	agg := trace.NewBranchAgg()
	res, err := Run(w, traceCfg(trace.New(agg)))
	if err != nil {
		t.Fatal(err)
	}
	got := agg.Totals()
	if len(res.Breakdown) == 0 {
		t.Fatal("run produced no Figure 12 breakdown")
	}
	if !reflect.DeepEqual(got, res.Breakdown) {
		t.Fatalf("trace aggregation %v != Figure 12 counters %v", got, res.Breakdown)
	}
	// The run must exercise the interesting categories, or the equality
	// above proves nothing.
	if got["correct"] == 0 || got["inactive"] == 0 {
		t.Fatalf("degenerate breakdown %v", got)
	}
	// The per-branch decomposition must sum back to the totals.
	var sum trace.BranchTotals
	for _, b := range agg.PerBranch() {
		sum.Inactive += b.Totals.Inactive
		sum.Late += b.Totals.Late
		sum.Throttled += b.Totals.Throttled
		sum.Correct += b.Totals.Correct
		sum.Incorrect += b.Totals.Incorrect
	}
	if sum != agg.Total() {
		t.Fatalf("per-branch sum %+v != total %+v", sum, agg.Total())
	}
}

func TestTraceChromeExportFromSim(t *testing.T) {
	w, err := workloads.ByName("leela_17", workloads.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := trace.New(trace.NewChrome(&buf))
	if _, err := Run(w, traceCfg(tr)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	phases := 0
	for _, ev := range doc.TraceEvents {
		if ev.Name == "phase" {
			phases++
		}
	}
	if phases != 3 {
		t.Fatalf("expected 3 phase markers (warmup/measure/end), got %d", phases)
	}
}
