package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestNilTracerDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer must report disabled")
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("nil tracer Close: %v", err)
	}
}

// countSink counts the events it receives.
type countSink uint64

func (c *countSink) Emit(Event) { *c++ }

// sliceSink keeps every event it receives.
type sliceSink struct{ evs []Event }

func (s *sliceSink) Emit(ev Event) { s.evs = append(s.evs, ev) }

func TestTracerFanOut(t *testing.T) {
	var c1, c2 countSink
	tr := New(&c1, &c2)
	if !tr.Enabled() {
		t.Fatal("non-nil tracer must report enabled")
	}
	tr.Emit(Event{Cycle: 1, Kind: KindBranchFetch, PC: 0x40, Flag: true})
	if c1 != 1 || c2 != 1 {
		t.Fatalf("fan-out missed a sink: %d, %d", c1, c2)
	}
}

func TestTracerPCFilter(t *testing.T) {
	var s sliceSink
	tr := New(&s)
	tr.FilterPC(0x40)
	tr.Emit(Event{Kind: KindBranchFetch, PC: 0x40})
	tr.Emit(Event{Kind: KindBranchFetch, PC: 0x44})   // dropped: other PC
	tr.Emit(Event{Kind: KindCacheMiss, Addr: 0x1000}) // dropped: no PC
	tr.Emit(Event{Kind: KindPhase, Arg: PhaseMeasure})
	evs := s.evs
	if len(evs) != 2 {
		t.Fatalf("filter kept %d events, want 2: %v", len(evs), evs)
	}
	if evs[0].Kind != KindBranchFetch || evs[0].PC != 0x40 {
		t.Fatalf("wrong first event: %+v", evs[0])
	}
	if evs[1].Kind != KindPhase {
		t.Fatalf("phase marker must pass the filter, got %+v", evs[1])
	}
}

func TestTracerEmitDoesNotAllocate(t *testing.T) {
	var c countSink
	tr := New(&c)
	ev := Event{Cycle: 7, PC: 0x40, Kind: KindPQAccount, Val: CatUsed, Flag: true}
	allocs := testing.AllocsPerRun(200, func() {
		if tr.Enabled() {
			tr.Emit(ev)
		}
	})
	if allocs != 0 {
		t.Fatalf("Emit allocated %.1f per op, want 0", allocs)
	}
	if c == 0 {
		t.Fatal("the sink received no event")
	}
}

func TestBranchAggTotalsAndWarmupReset(t *testing.T) {
	a := NewBranchAgg()
	tr := New(a)

	// Warmup-phase events must be discarded at the measure boundary.
	tr.Emit(Event{Kind: KindPhase, Arg: PhaseWarmup})
	tr.Emit(Event{Kind: KindPQAccount, PC: 0x40, Val: CatInactive})
	tr.Emit(Event{Kind: KindPQAccount, PC: 0x40, Val: CatUsed, Flag: true})
	tr.Emit(Event{Kind: KindPhase, Arg: PhaseMeasure})

	tr.Emit(Event{Kind: KindPQAccount, PC: 0x40, Val: CatInactive})
	tr.Emit(Event{Kind: KindPQAccount, PC: 0x40, Val: CatLate})
	tr.Emit(Event{Kind: KindPQAccount, PC: 0x44, Val: CatThrottled})
	tr.Emit(Event{Kind: KindPQAccount, PC: 0x44, Val: CatUsed, Flag: true})
	tr.Emit(Event{Kind: KindPQAccount, PC: 0x44, Val: CatUsed, Flag: false})
	tr.Emit(Event{Kind: KindPhase, Arg: PhaseEnd})

	got := a.Totals()
	want := map[string]uint64{
		"inactive": 1, "late": 1, "throttled": 1, "correct": 1, "incorrect": 1,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("Totals[%q] = %d, want %d", k, got[k], w)
		}
	}
	if a.Total().Total() != 5 {
		t.Errorf("Total().Total() = %d, want 5", a.Total().Total())
	}

	per := a.PerBranch()
	if len(per) != 2 || per[0].PC != 0x40 || per[1].PC != 0x44 {
		t.Fatalf("PerBranch order/content wrong: %+v", per)
	}
	if per[0].Totals != (BranchTotals{Inactive: 1, Late: 1}) {
		t.Errorf("per-branch 0x40 = %+v", per[0].Totals)
	}
	if per[1].Totals != (BranchTotals{Throttled: 1, Correct: 1, Incorrect: 1}) {
		t.Errorf("per-branch 0x44 = %+v", per[1].Totals)
	}
}

func TestChromeProducesValidJSON(t *testing.T) {
	var buf bytes.Buffer
	c := NewChrome(&buf)
	tr := New(c)
	tr.Emit(Event{Cycle: 10, Kind: KindPhase, Arg: PhaseWarmup})
	tr.Emit(Event{Cycle: 12, Kind: KindBranchFetch, PC: 0x40, Seq: 3, Flag: true, Arg: 1})
	tr.Emit(Event{Cycle: 14, Kind: KindCacheMiss, Addr: 0x8000, Arg: UnitL1D, Val: 12, Flag: false})
	tr.Emit(Event{Cycle: 16, Kind: KindDRAMAccess, Addr: 0x8000, Arg: RowConflict, Val: 38})
	tr.Emit(Event{Cycle: 20, Kind: KindPQAccount, PC: 0x40, Val: CatUsed, Flag: true})
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	// 8 thread-name metadata records (UnitCore..UnitSim) + 5 events.
	if len(doc.TraceEvents) != 13 {
		t.Fatalf("got %d records, want 13", len(doc.TraceEvents))
	}
	var names []string
	var metas, instants int
	for _, rec := range doc.TraceEvents {
		switch rec["ph"] {
		case "M":
			metas++
		case "i":
			instants++
			names = append(names, rec["name"].(string))
		default:
			t.Fatalf("unexpected phase %v in %v", rec["ph"], rec)
		}
	}
	if metas != 8 || instants != 5 {
		t.Fatalf("metas=%d instants=%d, want 8/5", metas, instants)
	}
	wantNames := []string{"phase", "branch_fetch", "cache_miss", "dram_access", "pq_account"}
	for i, w := range wantNames {
		if names[i] != w {
			t.Fatalf("event %d name = %q, want %q", i, names[i], w)
		}
	}
}

func TestChromeEmptyTraceStillValid(t *testing.T) {
	var buf bytes.Buffer
	c := NewChrome(&buf)
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("empty trace has %d records", len(doc.TraceEvents))
	}
}

// TestChromeFilteredToZeroStillValid pins the filtered-to-zero case: a PC
// filter that matches nothing drops every event before the sink, so the
// exporter must still close into a loadable document — the header is only
// written lazily on the first surviving event.
func TestChromeFilteredToZeroStillValid(t *testing.T) {
	var buf bytes.Buffer
	c := NewChrome(&buf)
	tr := New(c)
	tr.FilterPC(0xdead0000) // matches no emitted PC
	tr.Emit(Event{Cycle: 5, Kind: KindBranchFetch, PC: 0x40})
	tr.Emit(Event{Cycle: 6, Kind: KindBranchResolve, PC: 0x44})
	tr.Emit(Event{Cycle: 7, Kind: KindCacheMiss, Addr: 0x8000, Arg: UnitL1D})
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("filtered-to-zero trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("filtered-to-zero trace has %d records, want 0", len(doc.TraceEvents))
	}
}

// TestChromeFilterKeepsPhaseMarkers: when the filter passes only the phase
// markers, the document must contain the metadata header plus those markers.
func TestChromeFilterKeepsPhaseMarkers(t *testing.T) {
	var buf bytes.Buffer
	c := NewChrome(&buf)
	tr := New(c)
	tr.FilterPC(0xdead0000)
	tr.Emit(Event{Cycle: 1, Kind: KindPhase, Arg: PhaseWarmup})
	tr.Emit(Event{Cycle: 2, Kind: KindBranchFetch, PC: 0x40}) // dropped
	tr.Emit(Event{Cycle: 9, Kind: KindPhase, Arg: PhaseEnd})
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	var instants int
	for _, rec := range doc.TraceEvents {
		if rec["ph"] == "i" {
			instants++
			if rec["name"] != "phase" {
				t.Fatalf("unexpected surviving event %v", rec)
			}
		}
	}
	if instants != 2 {
		t.Fatalf("got %d phase markers, want 2", instants)
	}
}

func TestKindAndNameHelpers(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range kind must stringify as unknown")
	}
	for _, cat := range []uint64{CatInactive, CatLate, CatThrottled, CatUsed} {
		if CatName(cat) == "unknown" {
			t.Errorf("category %d has no name", cat)
		}
	}
	for u := UnitCore; u <= UnitSim; u++ {
		if UnitName(u) == "unknown" {
			t.Errorf("unit %d has no name", u)
		}
	}
	if Bit(true) != 1 || Bit(false) != 0 {
		t.Error("Bit encoding wrong")
	}
}
