package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Chrome streams events as Chrome trace_event JSON (the "JSON Array
// Format" wrapped in a traceEvents object), loadable in chrome://tracing
// and Perfetto. Each simulator event becomes an instant event (ph "i")
// on a per-unit track; cycles map 1:1 onto microseconds since the
// formats require a time unit. Close writes the closing bracket and
// flushes — a Chrome sink must be Closed to produce a valid file.
type Chrome struct {
	w     *bufio.Writer
	c     io.Closer // underlying closer, if any
	n     uint64    // events written
	err   error
	scr   chromeEvent // scratch, reused across Emit calls
	wrote bool        // header written
}

// chromeEvent is the trace_event wire record.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`
	PID   uint64         `json:"pid"`
	TID   uint64         `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// NewChrome returns a Chrome exporter writing to w. If w implements
// io.Closer it is closed by Close.
func NewChrome(w io.Writer) *Chrome {
	c := &Chrome{w: bufio.NewWriterSize(w, 1<<16)}
	c.scr.Args = make(map[string]any, 8)
	if cl, ok := w.(io.Closer); ok {
		c.c = cl
	}
	return c
}

// unitOf maps an event kind to the track it is drawn on.
func unitOf(ev Event) uint64 {
	switch ev.Kind {
	case KindPhase:
		return UnitSim
	case KindBranchFetch, KindBranchResolve, KindBranchRetire, KindRecovery:
		return UnitCore
	case KindChainInit, KindChainComplete, KindChainKill, KindSync, KindExtract, KindHBTBias:
		return UnitDCE
	case KindPQFill, KindPQConsume, KindPQRestore, KindPQAccount:
		return UnitPQ
	case KindCacheMiss:
		return ev.Arg // the emitting cache encodes its unit in Arg
	case KindDRAMAccess:
		return UnitDRAM
	}
	return UnitSim
}

// Emit writes one trace_event record. Errors are latched and reported by
// Close so the simulation path never has to handle I/O failures inline.
//
// KindUop events are dropped. There are 5-11 of them per structured event
// (one per micro-op per pipeline stage), so rendering them would grow a
// timeline by the same factor while adding nothing a timeline reader
// needs; brtrace's pipeline lens is their consumer.
func (c *Chrome) Emit(ev Event) {
	if c.err != nil || ev.Kind == KindUop {
		return
	}
	if !c.wrote {
		c.wrote = true
		if _, err := c.w.WriteString(`{"traceEvents":[`); err != nil {
			c.err = err
			return
		}
		c.writeMeta()
	}
	e := &c.scr
	e.Name = ev.Kind.String()
	e.Phase = "i"
	e.TS = ev.Cycle
	e.PID = 1
	e.TID = unitOf(ev)
	e.Scope = "t"
	clear(e.Args)
	if ev.PC != 0 || ev.Kind == KindBranchFetch {
		e.Args["pc"] = fmt.Sprintf("0x%x", ev.PC)
	}
	if ev.Seq != 0 {
		e.Args["seq"] = ev.Seq
	}
	if ev.Addr != 0 {
		e.Args["addr"] = fmt.Sprintf("0x%x", ev.Addr)
	}
	switch ev.Kind {
	case KindPhase:
		e.Args["phase"] = phaseName(ev.Arg)
	case KindPQConsume, KindPQAccount:
		e.Args["category"] = CatName(ev.Val)
		e.Args["flag"] = ev.Flag
	case KindCacheMiss:
		e.Args["unit"] = UnitName(ev.Arg)
		e.Args["latency"] = ev.Val
		e.Args["write"] = ev.Flag
	case KindDRAMAccess:
		e.Args["row"] = rowName(ev.Arg)
		e.Args["latency"] = ev.Val
		e.Args["write"] = ev.Flag
	default:
		if ev.Arg != 0 {
			e.Args["arg"] = ev.Arg
		}
		if ev.Val != 0 {
			e.Args["val"] = ev.Val
		}
		e.Args["flag"] = ev.Flag
	}
	c.writeRecord(e)
}

func phaseName(p uint64) string {
	switch p {
	case PhaseWarmup:
		return "warmup"
	case PhaseMeasure:
		return "measure"
	case PhaseEnd:
		return "end"
	}
	return "unknown"
}

func rowName(r uint64) string {
	switch r {
	case RowHit:
		return "hit"
	case RowMiss:
		return "miss"
	case RowConflict:
		return "conflict"
	}
	return "unknown"
}

// writeMeta emits thread-name metadata records so tracks show unit names
// instead of bare tids. It reuses the Emit scratch record (it runs before
// the first real record is built, and Emit clears Args itself).
func (c *Chrome) writeMeta() {
	e := &c.scr
	for u := UnitCore; u <= UnitSim; u++ {
		e.Name = "thread_name"
		e.Phase = "M"
		e.TS = 0
		e.PID = 1
		e.TID = u
		e.Scope = ""
		clear(e.Args)
		e.Args["name"] = UnitName(u)
		c.writeRecord(e)
	}
}

func (c *Chrome) writeRecord(e *chromeEvent) {
	b, err := json.Marshal(e)
	if err != nil {
		c.err = err
		return
	}
	if c.n > 0 {
		if err := c.w.WriteByte(','); err != nil {
			c.err = err
			return
		}
	}
	if _, err := c.w.Write(b); err != nil {
		c.err = err
		return
	}
	c.n++
}

// Close terminates the JSON document, flushes, and closes the underlying
// writer when it is closable. It returns the first error seen across the
// sink's lifetime.
func (c *Chrome) Close() error {
	if c.err == nil {
		if !c.wrote {
			_, c.err = c.w.WriteString(`{"traceEvents":[`)
		}
		if c.err == nil {
			_, c.err = c.w.WriteString(`]}` + "\n")
		}
	}
	if err := c.w.Flush(); err != nil && c.err == nil {
		c.err = err
	}
	if c.c != nil {
		if err := c.c.Close(); err != nil && c.err == nil {
			c.err = err
		}
	}
	return c.err
}
