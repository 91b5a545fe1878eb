// Package trace is the simulator's structured event layer: a
// zero-overhead-when-disabled tracer threaded through the core pipeline,
// the Branch Runahead subunits (HBT, chain extraction, DCE, prediction
// queues) and the memory hierarchy.
//
// Every event carries the cycle it happened on, the static branch PC it
// concerns (when one exists) and a small typed payload encoded in the
// fixed Event fields — no interface{} payloads, so emitting into a
// preallocated sink does not allocate. Sinks include an in-memory ring
// buffer (tests, ad-hoc debugging), a Chrome trace_event JSON exporter
// (chrome://tracing / Perfetto) and a per-branch aggregation that
// recomputes the paper's Figure 12 prediction categories from raw events.
//
// The disabled path is a single nil check: a nil *Tracer reports
// Enabled() == false, and every emission site in the simulator is guarded
//
//	if x.tr.Enabled() {
//		x.tr.Emit(trace.Event{...})
//	}
//
// so the Event literal is never constructed when tracing is off. The
// brlint trace-guard rule enforces this shape at every call site (see
// DESIGN.md §9).
package trace

// Kind identifies the event type and fixes the meaning of the payload
// fields. The per-kind field contracts are:
//
//	KindPhase         Arg=phase (PhaseWarmup/PhaseMeasure/PhaseEnd)
//	KindBranchFetch   PC, Seq; Flag=predicted dir; Arg=1 if the prediction
//	                  came from a prediction queue (DCE)
//	KindBranchResolve PC, Seq; Flag=resolved dir; Arg=1 if mispredicted
//	KindBranchRetire  PC, Seq; Flag=resolved dir; Arg=1 if mispredicted
//	KindRecovery      PC, Seq of the mispredicted branch driving the flush
//	KindChainInit     PC=chain's branch; Seq=instance id; Arg=queue slot
//	KindChainComplete PC, Seq=instance id; Flag=computed outcome
//	KindChainKill     PC, Seq=instance id
//	KindPQFill        PC; Arg=slot index; Flag=filled value
//	KindPQConsume     PC; Arg=slot index; Val=category (Cat*); Flag=used
//	KindPQRestore     PC; Arg=restored fetch pointer; Val=pointer before
//	KindPQAccount     PC; Val=category (Cat*); Flag=prediction correct
//	                  (meaningful only for CatUsed)
//	KindSync          PC; Flag=resolved dir triggering the synchronization
//	KindExtract       PC; Arg=extracted chain length; Flag=installed
//	KindHBTBias       PC; Arg=number of AG lists the branch was dropped from
//	KindCacheMiss     Addr; Arg=unit (Unit*); Val=miss latency; Flag=write
//	KindDRAMAccess    Addr; Arg=row outcome (Row*); Val=latency; Flag=write
//	KindUop           PC=static micro-op PC, Seq; Arg=pipeline stage (Stage*);
//	                  Flag=wrong path; Val=Uop* bits (branch prediction state)
type Kind uint8

// Event kinds, grouped by emitting unit.
const (
	KindPhase Kind = iota
	KindBranchFetch
	KindBranchResolve
	KindBranchRetire
	KindRecovery
	KindChainInit
	KindChainComplete
	KindChainKill
	KindPQFill
	KindPQConsume
	KindPQRestore
	KindPQAccount
	KindSync
	KindExtract
	KindHBTBias
	KindCacheMiss
	KindDRAMAccess
	KindUop
	numKinds
)

var kindNames = [numKinds]string{
	"phase", "branch_fetch", "branch_resolve", "branch_retire", "recovery",
	"chain_init", "chain_complete", "chain_kill",
	"pq_fill", "pq_consume", "pq_restore", "pq_account",
	"sync", "extract", "hbt_bias", "cache_miss", "dram_access", "uop",
}

// String returns the canonical event name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Simulation phases carried by KindPhase events (Arg field).
const (
	PhaseWarmup uint64 = iota
	PhaseMeasure
	PhaseEnd
)

// Prediction categories carried by KindPQConsume/KindPQAccount (Val
// field). They mirror the paper's Figure 12 breakdown; CatUsed splits
// into correct/incorrect via the event's Flag.
const (
	CatInactive uint64 = iota
	CatLate
	CatThrottled
	CatUsed
)

// CatName returns the Figure 12 label for a category code.
func CatName(cat uint64) string {
	switch cat {
	case CatInactive:
		return "inactive"
	case CatLate:
		return "late"
	case CatThrottled:
		return "throttled"
	case CatUsed:
		return "used"
	}
	return "unknown"
}

// Pipeline stages carried by KindUop (Arg field): one event each time a
// micro-op enters a stage. StageFlush marks the mispredicted branch a
// recovery restarts from; StageSquash marks each micro-op that recovery
// discards.
const (
	StageFetch uint64 = iota
	StageDispatch
	StageIssue
	StageComplete
	StageRetire
	StageSquash
	StageFlush
	numStages
)

var stageNames = [numStages]string{
	"fetch", "dispatch", "issue", "complete", "retire", "squash", "flush",
}

// StageName returns the name of a KindUop stage code.
func StageName(stage uint64) string {
	if stage < numStages {
		return stageNames[stage]
	}
	return "unknown"
}

// Bits of a KindUop event's Val field. The prediction bits are meaningful
// for conditional branches only.
const (
	UopPredTaken uint64 = 1 << iota // fetch predicted taken
	UopTaken                        // resolved taken
	UopFromPQ                       // the prediction came from a prediction queue
)

// Row outcome codes carried by KindDRAMAccess (Arg field).
const (
	RowHit uint64 = iota
	RowMiss
	RowConflict
)

// Unit identifies the hardware unit an event belongs to; the Chrome
// exporter maps units to named tracks.
const (
	UnitCore uint64 = iota
	UnitDCE
	UnitPQ
	UnitL1I
	UnitL1D
	UnitL2
	UnitDRAM
	UnitSim
)

// UnitName returns the display name of a unit id.
func UnitName(u uint64) string {
	switch u {
	case UnitCore:
		return "core"
	case UnitDCE:
		return "dce"
	case UnitPQ:
		return "pq"
	case UnitL1I:
		return "l1i"
	case UnitL1D:
		return "l1d"
	case UnitL2:
		return "l2"
	case UnitDRAM:
		return "dram"
	case UnitSim:
		return "sim"
	}
	return "unknown"
}

// Event is one structured simulator event. Field meaning is fixed per
// Kind (see the Kind documentation); unused fields are zero. The struct
// is flat — copied by value into sinks, never heap-allocated per event.
type Event struct {
	Cycle uint64
	PC    uint64 // static branch PC, 0 when not PC-scoped
	Seq   uint64 // dynamic micro-op sequence number or chain instance id
	Addr  uint64 // memory address (cache/DRAM events)
	Arg   uint64 // kind-specific small argument
	Val   uint64 // kind-specific second argument
	Kind  Kind
	Flag  bool // kind-specific boolean (direction, write, correctness)
}

// Bit converts a bool into the 0/1 encoding used by Event.Arg.
func Bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Sink receives every event that passes the tracer's filter. Sinks run
// on the simulation path and must be deterministic; sinks that buffer
// externally (the Chrome exporter) implement io.Closer for flushing.
type Sink interface {
	Emit(ev Event)
}

// Tracer fans events out to its sinks. A nil *Tracer is the disabled
// tracer: Enabled() is false and Emit must not be called (emission sites
// are guarded, which is what keeps the disabled path allocation-free).
type Tracer struct {
	sinks []Sink

	// pcFilter, when set, drops every PC-scoped event whose PC differs
	// and every event that carries no PC — except KindPhase markers,
	// which sinks need for warmup accounting.
	pcFilter    uint64
	pcFilterSet bool
}

// New builds a tracer over the given sinks. With no sinks the tracer is
// still "enabled" (sites pay event construction); pass sinks for any
// real use.
func New(sinks ...Sink) *Tracer {
	return &Tracer{sinks: sinks}
}

// FilterPC restricts the event stream to one static branch PC. Events
// that carry no PC (cache, DRAM) are dropped entirely; KindPhase markers
// always pass.
func (t *Tracer) FilterPC(pc uint64) {
	t.pcFilter = pc
	t.pcFilterSet = true
}

// Enabled reports whether emission sites should construct and emit
// events. It is the one check the disabled path pays.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit dispatches one event to every sink, applying the PC filter.
func (t *Tracer) Emit(ev Event) {
	if t.pcFilterSet && ev.Kind != KindPhase && ev.PC != t.pcFilter {
		return
	}
	for _, s := range t.sinks {
		s.Emit(ev)
	}
}

// Close flushes and closes every sink that implements io.Closer,
// returning the first error.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	var first error
	for _, s := range t.sinks {
		if c, ok := s.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
