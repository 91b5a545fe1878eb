// Package emu provides the functional execution substrate: a sparse paged
// memory and single-step micro-op semantics. The cycle-level core uses it as
// an execution-driven front-end (the role PIN plays for Scarab in the paper),
// including on the wrong path, and the Dependence Chain Engine uses the same
// semantics so chain-computed values match core-computed values exactly.
package emu

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Memory is a sparse, paged, byte-addressable memory. Reads of unmapped
// addresses return zero bytes; this keeps wrong-path execution total.
type Memory struct {
	pages map[uint64]*[pageSize]byte
	// slab amortizes page allocation: one backing array per 16 newly
	// touched pages instead of one allocation per page. It is a free
	// pool, not architectural state, so CopyFrom skips it.
	//brlint:allow snapshot-coverage
	slab []([pageSize]byte)
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	pn := addr >> pageShift
	p := m.pages[pn]
	if p == nil && create {
		if len(m.slab) == 0 {
			// Amortized slab refill: one allocation per 16 new pages.
			m.slab = make([]([pageSize]byte), 16) //brlint:allow hot-path-alloc
		}
		p = &m.slab[0]
		m.slab = m.slab[1:]
		m.pages[pn] = p
	}
	return p
}

// CopyFrom makes m's resident pages copies of w's, in m's own page
// arrays. w is only read.
func (m *Memory) CopyFrom(w *Memory) {
	// Both walks are keyed by page number, so their order is invisible.
	for pn := range m.pages { //brlint:allow determinism
		if w.pages[pn] == nil {
			delete(m.pages, pn)
		}
	}
	for pn, p := range w.pages { //brlint:allow determinism
		*m.page(pn<<pageShift, true) = *p
	}
}

// ByteAt returns the byte at addr (zero when unmapped).
func (m *Memory) ByteAt(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// SetByte stores a byte at addr.
func (m *Memory) SetByte(addr uint64, v byte) {
	m.page(addr, true)[addr&pageMask] = v
}

// Read returns size little-endian bytes starting at addr as a zero-extended
// word. size must be 1, 2, 4 or 8.
func (m *Memory) Read(addr uint64, size uint8) uint64 {
	var v uint64
	for i := uint8(0); i < size; i++ {
		v |= uint64(m.ByteAt(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write stores the low size bytes of v little-endian starting at addr.
func (m *Memory) Write(addr uint64, size uint8, v uint64) {
	for i := uint8(0); i < size; i++ {
		m.SetByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// LoadSegment copies raw bytes into memory at base.
func (m *Memory) LoadSegment(base uint64, raw []byte) {
	for i, b := range raw {
		m.SetByte(base+uint64(i), b)
	}
}

// SignExtend sign-extends the low size bytes of v.
func SignExtend(v uint64, size uint8) uint64 {
	switch size {
	case 1:
		return uint64(int64(int8(v)))
	case 2:
		return uint64(int64(int16(v)))
	case 4:
		return uint64(int64(int32(v)))
	default:
		return v
	}
}

// MemView abstracts the memory a functional step observes. The core's
// front-end implements it with committed memory plus an in-flight store
// overlay (store-to-load forwarding at fetch time); plain functional
// execution implements it with committed memory alone (DirectMem). The DCE
// needs no view: it reads committed memory directly and never stores.
type MemView interface {
	// Load returns size bytes at addr, sign-extended when signed.
	Load(addr uint64, size uint8, signed bool) uint64
	// Store writes the low size bytes of v at addr.
	Store(addr uint64, size uint8, v uint64)
}

// DirectMem adapts Memory to MemView with immediate, committed effect.
type DirectMem struct{ M *Memory }

// Load implements MemView.
func (d DirectMem) Load(addr uint64, size uint8, signed bool) uint64 {
	v := d.M.Read(addr, size)
	if signed {
		v = SignExtend(v, size)
	}
	return v
}

// Store implements MemView.
func (d DirectMem) Store(addr uint64, size uint8, v uint64) {
	d.M.Write(addr, size, v)
}
