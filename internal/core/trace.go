package core

import "repro/internal/trace"

// SetTrace attaches the structured event tracer (see internal/trace). A
// nil tracer disables structured tracing; every emission site is guarded
// by tr.Enabled(), so the disabled path costs one nil check and never
// constructs an event.
func (c *Core) SetTrace(tr *trace.Tracer) { c.tr = tr }

// traceUop reports d entering a pipeline stage (trace.Stage*). It is only
// the guard, so it inlines at each site and the disabled path stays one nil
// check; emitUop builds and emits the event out of line.
func (c *Core) traceUop(stage uint64, d *DynUop) {
	if c.tr.Enabled() {
		c.emitUop(stage, d)
	}
}

// emitUop emits d's KindUop event. It repeats traceUop's guard so that the
// trace-guard rule sees this Emit guarded too.
func (c *Core) emitUop(stage uint64, d *DynUop) {
	var val uint64
	if d.PredTaken {
		val |= trace.UopPredTaken
	}
	if d.Res.Taken {
		val |= trace.UopTaken
	}
	if d.UsedDCE {
		val |= trace.UopFromPQ
	}
	if c.tr.Enabled() {
		c.tr.Emit(trace.Event{
			Cycle: c.now, PC: d.U.PC, Seq: d.Seq, Kind: trace.KindUop,
			Arg: stage, Flag: d.WrongPath, Val: val,
		})
	}
}
