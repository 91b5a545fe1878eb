package cache

import (
	"fmt"

	"repro/internal/stats"
)

// TLB models a data translation lookaside buffer. The paper's DCE shares
// the D-TLB with the core ("The DCE shares the D-Cache and D-TLB with the
// core", §4.2); misses pay a fixed page-walk latency served through the
// cache hierarchy.
type TLB struct {
	// entries holds every set's ways back to back: set i is
	// entries[i*ways : (i+1)*ways] (see set).
	entries  []tlbEntry
	nSets    uint64
	ways     int
	pageBits uint
	walkLat  uint64
	next     MemLevel
	clock    uint64

	C *stats.Counters
	// Dense handles for the per-translate events; the values live in C,
	// which CopyFrom copies.
	hits, misses, pendingHits stats.Counter //brlint:allow snapshot-coverage
}

type tlbEntry struct {
	vpn   uint64
	valid bool
	lru   uint64
	// ready is the cycle the walk filling this entry completes.
	ready uint64
}

// TLBConfig sizes the TLB.
type TLBConfig struct {
	Entries  int
	Ways     int
	PageBits uint   // log2 of the page size (12 = 4KB)
	WalkLat  uint64 // fixed page-table-walk latency beyond the memory access
}

// DefaultTLBConfig returns a 64-entry, 4-way, 4KB-page TLB.
func DefaultTLBConfig() TLBConfig {
	return TLBConfig{Entries: 64, Ways: 4, PageBits: 12, WalkLat: 20}
}

// Validate checks the TLB geometry.
func (c TLBConfig) Validate() error {
	if c.Ways < 1 {
		return fmt.Errorf("tlb: ways %d must be >= 1", c.Ways)
	}
	if c.Entries < c.Ways || c.Entries%c.Ways != 0 {
		return fmt.Errorf("tlb: %d entries do not divide into %d-way sets", c.Entries, c.Ways)
	}
	if c.PageBits < 6 || c.PageBits > 30 {
		return fmt.Errorf("tlb: page bits %d outside [6, 30]", c.PageBits)
	}
	return nil
}

// NewTLB builds a TLB whose walks are serviced by next (typically the L2).
func NewTLB(cfg TLBConfig, next MemLevel) *TLB {
	if err := cfg.Validate(); err != nil {
		panic("cache: " + err.Error())
	}
	nSets := cfg.Entries / cfg.Ways
	t := &TLB{
		entries:  make([]tlbEntry, cfg.Entries),
		nSets:    uint64(nSets),
		ways:     cfg.Ways,
		pageBits: cfg.PageBits,
		walkLat:  cfg.WalkLat,
		next:     next,
		C:        stats.NewCounters(),
	}
	t.hits = t.C.Handle("hits")
	t.misses = t.C.Handle("misses")
	t.pendingHits = t.C.Handle("pending_hits")
	return t
}

// Translate models the translation of addr beginning at cycle now and
// returns the cycle the physical address is available (now for a hit).
func (t *TLB) Translate(now uint64, addr uint64) uint64 {
	vpn := addr >> t.pageBits
	set := t.set(vpn % t.nSets)
	t.clock++
	for i := range set {
		e := &set[i]
		if e.valid && e.vpn == vpn {
			e.lru = t.clock
			if e.ready > now {
				t.pendingHits.Inc()
				return e.ready
			}
			t.hits.Inc()
			return now
		}
	}
	t.misses.Inc()
	// Page walk: one memory access for the leaf PTE plus fixed walk logic.
	done := now + t.walkLat
	if t.next != nil {
		done = t.next.Access(now, pteAddr(vpn), false) + t.walkLat
	}
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
	set[victim] = tlbEntry{vpn: vpn, valid: true, lru: t.clock, ready: done}
	return done
}

// set returns the ways of set i.
func (t *TLB) set(i uint64) []tlbEntry {
	w := uint64(t.ways)
	return t.entries[i*w : (i+1)*w : (i+1)*w]
}

// pteAddr maps a virtual page number to a synthetic page-table entry
// address in a reserved region, so walks exercise the real hierarchy.
func pteAddr(vpn uint64) uint64 {
	return 0x7F00_0000_0000 | (vpn * 8 & 0xFFFF_FFF8)
}

// CopyFrom copies w's entries, clock and counters into t, which must have
// w's geometry. w is only read.
func (t *TLB) CopyFrom(w *TLB) {
	copy(t.entries, w.entries)
	t.clock = w.clock
	t.C.CopyFrom(w.C)
}
