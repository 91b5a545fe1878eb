// Package cache models the on-chip memory hierarchy: set-associative
// write-back caches with LRU replacement, MSHR-based miss tracking with
// same-line merging, banked ports, and a stream prefetcher that prefetches
// into the last-level cache (Table 1: "Stream: 64 Streams, Distance 16.
// Prefetch into LLC.").
//
// Timing uses a resource-reservation model: every access is resolved at
// issue time into an absolute completion cycle, with structural state
// (pending lines, port availability, DRAM bank occupancy) carried forward.
// This keeps the hierarchy deterministic while preserving the latency
// distribution — which is what dependence-chain timeliness depends on.
package cache

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/trace"
)

// MemLevel is anything that can service a memory access: a cache level or
// the DRAM model beneath the hierarchy.
type MemLevel interface {
	// Access services a read or write of one line containing addr,
	// starting no earlier than cycle now, and returns the cycle at which
	// the data is available.
	Access(now uint64, addr uint64, write bool) (done uint64)
}

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Ways       int
	HitLatency uint64
	Ports      int
	// MSHRs bounds outstanding distinct line misses. Zero means unlimited.
	MSHRs int
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// ready is the cycle the fill completes; hits before it are pending
	// hits that merge with the outstanding miss.
	ready uint64
	lru   uint64
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg Config
	// lines holds every set's ways back to back: set i is
	// lines[i*Ways : (i+1)*Ways] (see set).
	lines    []line
	nSets    uint64
	lineOff  uint
	next     MemLevel
	lruClock uint64

	// ports holds the next free cycle of each access port.
	ports []uint64

	// outstanding tracks in-flight misses for MSHR occupancy: completion
	// cycles of misses issued to the next level.
	outstanding []uint64

	// Prefetcher, optional; trained on misses of this cache, fills next.
	pf *StreamPrefetcher

	// tr is the structured event tracer (nil when tracing is off);
	// trUnit identifies this level on the trace timeline. Tracer wiring is
	// re-attached by the machine builder, not CopyFrom.
	tr     *trace.Tracer //brlint:allow snapshot-coverage
	trUnit uint64        //brlint:allow snapshot-coverage

	// Counters: hits, misses, evictions, writebacks, pendingHits.
	C *stats.Counters
	// Ctr holds dense handles into C for the per-access events; see
	// stats.Counter. The values live in C, which CopyFrom copies.
	//brlint:allow snapshot-coverage
	Ctr CacheCounters
}

// CacheCounters are pre-registered handles for the access-path events.
type CacheCounters struct {
	Hits, Misses, PendingHits            stats.Counter
	Writebacks, Evictions, PrefetchFills stats.Counter
	MSHRFull                             stats.Counter
}

func newCacheCounters(c *stats.Counters) CacheCounters {
	return CacheCounters{
		Hits:          c.Handle("hits"),
		Misses:        c.Handle("misses"),
		PendingHits:   c.Handle("pending_hits"),
		Writebacks:    c.Handle("writebacks"),
		Evictions:     c.Handle("evictions"),
		PrefetchFills: c.Handle("prefetch_fills"),
		MSHRFull:      c.Handle("mshr_full"),
	}
}

// Validate checks the cache geometry: the indexing math assumes a
// power-of-two line size and at least one whole set.
func (c Config) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d must be a positive power of two", c.Name, c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways %d must be positive", c.Name, c.Ways)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cache %s: size %d must be a positive multiple of the %dB line",
			c.Name, c.SizeBytes, c.LineBytes)
	}
	if c.SizeBytes/c.LineBytes < c.Ways {
		return fmt.Errorf("cache %s: %d lines cannot fill one %d-way set",
			c.Name, c.SizeBytes/c.LineBytes, c.Ways)
	}
	if c.HitLatency < 1 {
		return fmt.Errorf("cache %s: hit latency must be >= 1 cycle", c.Name)
	}
	if c.Ports < 0 || c.MSHRs < 0 {
		return fmt.Errorf("cache %s: ports and MSHRs must be non-negative", c.Name)
	}
	return nil
}

// New builds a cache level over next.
func New(cfg Config, next MemLevel) *Cache {
	if err := cfg.Validate(); err != nil {
		panic("cache: " + err.Error())
	}
	nLines := cfg.SizeBytes / cfg.LineBytes
	nSets := nLines / cfg.Ways
	lineOff := uint(0)
	for 1<<lineOff < cfg.LineBytes {
		lineOff++
	}
	c := &Cache{
		cfg:     cfg,
		lines:   make([]line, nSets*cfg.Ways),
		nSets:   uint64(nSets),
		lineOff: lineOff,
		next:    next,
		C:       stats.NewCounters(),
	}
	c.Ctr = newCacheCounters(c.C)
	if cfg.Ports > 0 {
		c.ports = make([]uint64, cfg.Ports)
	}
	if cfg.MSHRs > 0 {
		// Occupancy can transiently exceed MSHRs (admission delays the
		// issue cycle but still records the miss), so leave headroom; the
		// mshrAdmit cold path grows past it only at a new high-water mark.
		c.outstanding = make([]uint64, 0, 2*cfg.MSHRs)
	}
	return c
}

// AttachPrefetcher installs a stream prefetcher trained on this cache's
// misses; prefetches are installed into fillInto (the LLC in our
// configuration).
func (c *Cache) AttachPrefetcher(pf *StreamPrefetcher, fillInto *Cache) {
	c.pf = pf
	pf.fill = fillInto
}

// SetTrace attaches a structured event tracer; unit is the trace.Unit*
// constant identifying this level. A nil tracer disables emission.
func (c *Cache) SetTrace(tr *trace.Tracer, unit uint64) {
	c.tr = tr
	c.trUnit = unit
}

// Name returns the configured level name.
func (c *Cache) Name() string { return c.cfg.Name }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

func (c *Cache) addrSet(addr uint64) (setIdx uint64, tag uint64) {
	lineAddr := addr >> c.lineOff
	return lineAddr % c.nSets, lineAddr
}

// set returns the ways of set i.
func (c *Cache) set(i uint64) []line {
	w := uint64(c.cfg.Ways)
	return c.lines[i*w : (i+1)*w : (i+1)*w]
}

// reservePort returns the cycle at which a port is available, reserving it.
func (c *Cache) reservePort(now uint64) uint64 {
	if len(c.ports) == 0 {
		return now
	}
	best := 0
	for i := 1; i < len(c.ports); i++ {
		if c.ports[i] < c.ports[best] {
			best = i
		}
	}
	start := now
	if c.ports[best] > start {
		start = c.ports[best]
	}
	c.ports[best] = start + 1
	return start
}

// mshrAdmit returns the earliest cycle a new miss can be issued given MSHR
// occupancy, and records the miss's completion.
func (c *Cache) mshrAdmit(now, done uint64) uint64 {
	if c.cfg.MSHRs <= 0 {
		return now
	}
	// Drop retired entries (in place: writes stay within the existing
	// backing array, so no reallocation is possible).
	n := 0
	for _, d := range c.outstanding {
		if d > now {
			c.outstanding[n] = d
			n++
		}
	}
	c.outstanding = c.outstanding[:n]
	start := now
	if len(c.outstanding) >= c.cfg.MSHRs {
		// Wait for the earliest outstanding miss to retire.
		earliest := c.outstanding[0]
		for _, d := range c.outstanding[1:] {
			if d < earliest {
				earliest = d
			}
		}
		if earliest > start {
			start = earliest
		}
		c.Ctr.MSHRFull.Inc()
	}
	k := len(c.outstanding)
	if k == cap(c.outstanding) {
		// Cold path: grow to a new high-water mark; steady state reuses the
		// backing array forever after.
		c.outstanding = append(c.outstanding, 0)[:k] //brlint:allow hot-path-alloc
	}
	c.outstanding = c.outstanding[:k+1]
	c.outstanding[k] = done
	return start
}

// Access implements MemLevel.
func (c *Cache) Access(now uint64, addr uint64, write bool) uint64 {
	return c.access(now, addr, write, true)
}

// AccessSecondary services a low-priority read that may only use port
// cycles the primary requester leaves idle. The paper gives the main
// thread priority on the D-cache ports ("the DCE may only use these
// structures when available"); this path models that by not reserving a
// port, while still paying hit/miss latency and exerting MSHR, L2 and
// DRAM pressure.
func (c *Cache) AccessSecondary(now uint64, addr uint64) uint64 {
	return c.access(now, addr, false, false)
}

func (c *Cache) access(now uint64, addr uint64, write bool, usePort bool) uint64 {
	start := now
	if usePort {
		start = c.reservePort(now)
	}
	setIdx, tag := c.addrSet(addr)
	set := c.set(setIdx)
	c.lruClock++

	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.lru = c.lruClock
			if write {
				l.dirty = true
			}
			done := start + c.cfg.HitLatency
			if l.ready > done {
				// Pending hit: merge with the outstanding fill.
				c.Ctr.PendingHits.Inc()
				return l.ready
			}
			c.Ctr.Hits.Inc()
			return done
		}
	}

	// Miss: fetch the line from the next level.
	c.Ctr.Misses.Inc()
	missDone := c.next.Access(start+c.cfg.HitLatency, addr, false)
	issueAt := c.mshrAdmit(start, missDone)
	if issueAt > start {
		// MSHR back-pressure delays the miss.
		missDone = c.next.Access(issueAt+c.cfg.HitLatency, addr, false)
	}

	// Victim selection.
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	v := &set[victim]
	if v.valid && v.dirty {
		c.Ctr.Writebacks.Inc()
		c.next.Access(missDone, addrFromTag(v.tag, c.lineOff), true)
	} else if v.valid {
		c.Ctr.Evictions.Inc()
	}
	*v = line{tag: tag, valid: true, dirty: write, ready: missDone, lru: c.lruClock}

	if c.pf != nil {
		c.pf.Train(missDone, addr)
	}
	if c.tr.Enabled() {
		c.tr.Emit(trace.Event{
			Cycle: now, Addr: addr, Kind: trace.KindCacheMiss,
			Arg: c.trUnit, Val: missDone - now, Flag: write,
		})
	}
	return missDone
}

// Probe reports whether addr currently hits (ignoring timing); used by
// tests and by the prefetcher to avoid redundant fills.
func (c *Cache) Probe(addr uint64) bool {
	setIdx, tag := c.addrSet(addr)
	set := c.set(setIdx)
	for i := range set {
		if l := &set[i]; l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Install inserts a line without demand-access semantics (prefetch fill).
func (c *Cache) Install(now uint64, addr uint64, ready uint64) {
	setIdx, tag := c.addrSet(addr)
	set := c.set(setIdx)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return
		}
	}
	c.lruClock++
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	v := &set[victim]
	if v.valid && v.dirty {
		c.Ctr.Writebacks.Inc()
		c.next.Access(now, addrFromTag(v.tag, c.lineOff), true)
	}
	*v = line{tag: tag, valid: true, ready: ready, lru: c.lruClock}
	c.Ctr.PrefetchFills.Inc()
}

// addrFromTag reconstructs a byte address from a stored tag. Tags keep the
// full line address (set bits included), so this is a single shift.
func addrFromTag(tag uint64, lineOff uint) uint64 {
	return tag << lineOff
}

// StreamPrefetcher detects sequential miss streams and prefetches ahead
// into the LLC.
type StreamPrefetcher struct {
	streams  []stream
	distance int
	degree   int
	below    MemLevel // level that sources prefetched data (DRAM)
	// fill is hierarchy wiring (the LLC), re-attached by the machine
	// builder, not CopyFrom.
	fill    *Cache //brlint:allow snapshot-coverage
	lineOff uint
	clock   uint64
	C       *stats.Counters
	// prefetches is the dense handle for the per-issue counter; the value
	// lives in C, which CopyFrom copies.
	prefetches stats.Counter //brlint:allow snapshot-coverage
}

type stream struct {
	lastLine uint64
	dir      int64
	conf     int
	valid    bool
	lru      uint64
}

// NewStreamPrefetcher builds a prefetcher with nStreams trackers that runs
// distance lines ahead, sourcing data from below.
func NewStreamPrefetcher(nStreams, distance int, lineBytes int, below MemLevel) *StreamPrefetcher {
	lineOff := uint(0)
	for 1<<lineOff < lineBytes {
		lineOff++
	}
	p := &StreamPrefetcher{
		streams:  make([]stream, nStreams),
		distance: distance,
		degree:   2,
		below:    below,
		lineOff:  lineOff,
		C:        stats.NewCounters(),
	}
	p.prefetches = p.C.Handle("prefetches")
	return p
}

// Train observes a demand miss and issues prefetches when a stream is
// detected.
func (p *StreamPrefetcher) Train(now uint64, addr uint64) {
	lineAddr := addr >> p.lineOff
	p.clock++
	// Find a matching stream: the miss extends a stream if it lands within
	// +/- 4 lines of the last observed line.
	var best *stream
	for i := range p.streams {
		s := &p.streams[i]
		if !s.valid {
			continue
		}
		delta := int64(lineAddr) - int64(s.lastLine)
		if delta != 0 && delta >= -4 && delta <= 4 {
			best = s
			if (delta > 0) == (s.dir > 0) {
				s.conf++
			} else {
				s.conf = 0
				s.dir = -s.dir
			}
			s.lastLine = lineAddr
			s.lru = p.clock
			break
		}
	}
	if best == nil {
		// Allocate the LRU stream tracker.
		victim := 0
		for i := 1; i < len(p.streams); i++ {
			if !p.streams[i].valid {
				victim = i
				break
			}
			if p.streams[i].lru < p.streams[victim].lru {
				victim = i
			}
		}
		p.streams[victim] = stream{lastLine: lineAddr, dir: 1, valid: true, lru: p.clock}
		return
	}
	if best.conf < 2 || p.fill == nil {
		return
	}
	// Confident stream: prefetch degree lines at distance.
	for d := 1; d <= p.degree; d++ {
		target := (int64(lineAddr) + best.dir*int64(p.distance+d-1)) << p.lineOff
		if target < 0 {
			continue
		}
		ta := uint64(target)
		if p.fill.Probe(ta) {
			continue
		}
		done := p.below.Access(now, ta, false)
		p.fill.Install(now, ta, done)
		p.prefetches.Inc()
	}
}

// CopyFrom copies w's lines, LRU clock, port and MSHR reservations,
// counters and attached prefetcher into c, which must have w's geometry.
// Reservations are absolute cycles, which stay valid because a fork
// continues from w's clock. w is only read.
func (c *Cache) CopyFrom(w *Cache) {
	copy(c.lines, w.lines)
	c.lruClock = w.lruClock
	copy(c.ports, w.ports)
	c.outstanding = append(c.outstanding[:0], w.outstanding...)
	c.C.CopyFrom(w.C)
	if c.pf != nil {
		c.pf.CopyFrom(w.pf)
	}
}

// CopyFrom copies w's stream trackers, clock and counters into p.
func (p *StreamPrefetcher) CopyFrom(w *StreamPrefetcher) {
	copy(p.streams, w.streams)
	p.clock = w.clock
	p.C.CopyFrom(w.C)
}
