package emu

import (
	"testing"

	"repro/internal/simtest"
)

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	// Scatter writes across several pages, including page-straddling sizes.
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 2000; i++ {
		addr := next() % (1 << 20)
		m.Write(addr, uint8(1<<(next()%4)), next())
	}
	m.LoadSegment(0x200000, []byte{1, 2, 3, 4, 5})

	// The fork's memory starts with its own data segment, one page the
	// warm memory lacks and one it shares.
	fresh := NewMemory()
	fresh.LoadSegment(0x7f0000, []byte{9})
	fresh.LoadSegment(0x200000, []byte{9})
	fresh.CopyFrom(m)
	simtest.RequireDeepEqual(t, "memory pages", m.pages, fresh.pages)
	for pn, p := range m.pages {
		if fresh.pages[pn] == p {
			t.Fatalf("copy shares page %#x with the warm memory", pn)
		}
	}
}
