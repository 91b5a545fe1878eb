// Package dram models a DDR4-style main memory in the role Ramulator plays
// for the paper: channels, ranks and banks with open-row policy, bank-level
// parallelism, a bounded memory queue, and FR-FCFS-flavoured service where
// row hits are cheap and row conflicts pay precharge + activate.
//
// Timing is expressed in core cycles (3.2 GHz core over DDR4-2400-class
// device timings) and resolved with the same resource-reservation scheme as
// the cache hierarchy: each request reserves its bank and the shared data
// bus and returns an absolute completion cycle.
package dram

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Config holds the memory geometry and timing parameters.
type Config struct {
	Channels    int
	BanksPerCh  int
	RowBytes    int
	QueueSize   int // memory controller queue entries per channel (Table 1: 64)
	CtrlLatency uint64

	// Timings in core cycles.
	TCAS     uint64 // column access (row already open)
	TRCD     uint64 // activate to column access
	TRP      uint64 // precharge
	TBus     uint64 // data burst occupancy of the channel bus
	RowCycle uint64 // minimum spacing between activations of a bank
}

// DefaultConfig returns DDR4-2400-class timings for a 3.2 GHz core: a row
// hit lands around 50 core cycles and a row conflict around 130 after
// controller overheads.
func DefaultConfig() Config {
	return Config{
		Channels:    1,
		BanksPerCh:  16,
		RowBytes:    2048,
		QueueSize:   64,
		CtrlLatency: 18,
		TCAS:        37,
		TRCD:        37,
		TRP:         37,
		TBus:        4,
		RowCycle:    100,
	}
}

type bank struct {
	openRow   int64 // -1 when precharged
	freeAt    uint64
	lastActAt uint64
}

type channel struct {
	banks []bank
	busAt uint64
	// queue holds completion cycles of in-flight requests for occupancy
	// back-pressure.
	queue []uint64
}

// DRAM is the memory device. It implements cache.MemLevel.
type DRAM struct {
	cfg Config
	chs []channel
	// tr is the structured event tracer (nil when tracing is off);
	// wiring is re-attached by the machine builder, not the codec.
	tr *trace.Tracer //brlint:allow snapshot-coverage
	C  *stats.Counters
	// Ctr holds dense handles into C for the per-request events; the
	// values live in C, which the codec serializes.
	//brlint:allow snapshot-coverage
	Ctr DRAMCounters
}

// DRAMCounters are pre-registered handles for the access-path events.
type DRAMCounters struct {
	Reads, Writes                    stats.Counter
	RowHits, RowMisses, RowConflicts stats.Counter
	BankConflicts, BusConflicts      stats.Counter
	QueueFull                        stats.Counter
}

// Validate checks the memory geometry and timings: the address mapping
// divides by RowBytes and indexes by channel and bank count, and zero
// timings would give DRAM accesses cache-like latency.
func (c Config) Validate() error {
	if c.Channels < 1 {
		return fmt.Errorf("dram: channels %d must be >= 1", c.Channels)
	}
	if c.BanksPerCh < 1 {
		return fmt.Errorf("dram: banks per channel %d must be >= 1", c.BanksPerCh)
	}
	if c.RowBytes < 64 || c.RowBytes&(c.RowBytes-1) != 0 {
		return fmt.Errorf("dram: row size %d must be a power of two >= one 64B line", c.RowBytes)
	}
	if c.QueueSize < 0 {
		return fmt.Errorf("dram: queue size %d must be non-negative", c.QueueSize)
	}
	if c.TCAS < 1 || c.TRCD < 1 || c.TRP < 1 || c.TBus < 1 || c.RowCycle < 1 {
		return fmt.Errorf("dram: device timings must all be >= 1 cycle")
	}
	return nil
}

// New builds a DRAM from cfg.
func New(cfg Config) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic("dram: " + err.Error())
	}
	d := &DRAM{cfg: cfg, C: stats.NewCounters()}
	d.Ctr = DRAMCounters{
		Reads:         d.C.Handle("reads"),
		Writes:        d.C.Handle("writes"),
		RowHits:       d.C.Handle("row_hits"),
		RowMisses:     d.C.Handle("row_misses"),
		RowConflicts:  d.C.Handle("row_conflicts"),
		BankConflicts: d.C.Handle("bank_conflicts"),
		BusConflicts:  d.C.Handle("bus_conflicts"),
		QueueFull:     d.C.Handle("queue_full"),
	}
	d.chs = make([]channel, cfg.Channels)
	for i := range d.chs {
		d.chs[i].banks = make([]bank, cfg.BanksPerCh)
		for b := range d.chs[i].banks {
			d.chs[i].banks[b].openRow = -1
		}
		if cfg.QueueSize > 0 {
			// Occupancy can transiently exceed QueueSize (admission delays
			// the start cycle but still records the request), so leave
			// headroom; the Access cold path grows past it only at a new
			// high-water mark.
			d.chs[i].queue = make([]uint64, 0, 2*cfg.QueueSize)
		}
	}
	return d
}

// SetTrace attaches a structured event tracer; nil disables emission.
func (d *DRAM) SetTrace(tr *trace.Tracer) { d.tr = tr }

// Access implements the memory side of the hierarchy: it services a line
// read or write-back beginning no earlier than now and returns the
// completion cycle.
func (d *DRAM) Access(now uint64, addr uint64, write bool) uint64 {
	chIdx := int(addr>>6) % d.cfg.Channels
	ch := &d.chs[chIdx]

	// Queue back-pressure: if the controller queue is full, the request
	// waits for the earliest in-flight request to drain.
	start := now + d.cfg.CtrlLatency
	if d.cfg.QueueSize > 0 {
		// Drop drained requests in place: writes stay within the existing
		// backing array, so no reallocation is possible.
		n := 0
		for _, c := range ch.queue {
			if c > now {
				ch.queue[n] = c
				n++
			}
		}
		ch.queue = ch.queue[:n]
		if len(ch.queue) >= d.cfg.QueueSize {
			earliest := ch.queue[0]
			for _, c := range ch.queue[1:] {
				if c < earliest {
					earliest = c
				}
			}
			if earliest > start {
				start = earliest
			}
			d.Ctr.QueueFull.Inc()
		}
	}

	// Row:bank:column mapping: a row's bytes are contiguous within one
	// bank, consecutive rows interleave across banks. This preserves row
	// locality for streaming access while spreading traffic over banks.
	rowChunk := addr / uint64(d.cfg.RowBytes)
	bIdx := int(rowChunk) % len(ch.banks)
	row := int64(rowChunk) / int64(len(ch.banks))
	b := &ch.banks[bIdx]

	if b.freeAt > start {
		start = b.freeAt
		d.Ctr.BankConflicts.Inc()
	}

	var lat uint64
	rowKind := trace.RowHit
	switch {
	case b.openRow == row:
		lat = d.cfg.TCAS
		d.Ctr.RowHits.Inc()
	case b.openRow < 0:
		lat = d.cfg.TRCD + d.cfg.TCAS
		d.Ctr.RowMisses.Inc()
		rowKind = trace.RowMiss
		// Respect the activate-to-activate window.
		if b.lastActAt+d.cfg.RowCycle > start {
			start = b.lastActAt + d.cfg.RowCycle
		}
		b.lastActAt = start
	default:
		lat = d.cfg.TRP + d.cfg.TRCD + d.cfg.TCAS
		d.Ctr.RowConflicts.Inc()
		rowKind = trace.RowConflict
		if b.lastActAt+d.cfg.RowCycle > start {
			start = b.lastActAt + d.cfg.RowCycle
		}
		b.lastActAt = start
	}
	b.openRow = row

	done := start + lat
	// Reserve the shared data bus for the burst.
	if ch.busAt > done {
		done = ch.busAt
		d.Ctr.BusConflicts.Inc()
	}
	ch.busAt = done + d.cfg.TBus
	done += d.cfg.TBus

	b.freeAt = done
	if d.cfg.QueueSize > 0 {
		k := len(ch.queue)
		if k == cap(ch.queue) {
			// Cold path: grow to a new high-water mark; steady state reuses
			// the backing array forever after.
			ch.queue = append(ch.queue, 0)[:k] //brlint:allow hot-path-alloc
		}
		ch.queue = ch.queue[:k+1]
		ch.queue[k] = done
	}
	if d.tr.Enabled() {
		d.tr.Emit(trace.Event{
			Cycle: now, Addr: addr, Kind: trace.KindDRAMAccess,
			Arg: rowKind, Val: done - now, Flag: write,
		})
	}
	if write {
		d.Ctr.Writes.Inc()
		// Write data is buffered; the caller need not wait for the array
		// write, only for queue admission.
		return start
	}
	d.Ctr.Reads.Inc()
	return done
}
