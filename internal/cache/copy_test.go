package cache

import (
	"reflect"
	"testing"

	"repro/internal/simtest"
	"repro/internal/stats"
)

// steadyMem is a stateless fixed-latency MemLevel backing the copy tests (the package's flatMem counts accesses, which would differ between
// the driven and fresh instances).
type steadyMem struct{ lat uint64 }

func (s steadyMem) Access(now uint64, _ uint64, _ bool) uint64 { return now + s.lat }

func smallCacheConfig() Config {
	return Config{Name: "t", SizeBytes: 8 << 10, LineBytes: 64, Ways: 4,
		HitLatency: 3, Ports: 2, MSHRs: 8}
}

func xorshift(seed uint64) func() uint64 {
	s := seed
	return func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
}

func TestCacheRoundTrip(t *testing.T) {
	mem := steadyMem{lat: 80}
	c := New(smallCacheConfig(), mem)
	next := xorshift(0xdeadbeefcafe)
	now := uint64(10)
	for i := 0; i < 4000; i++ {
		now += next() % 5
		c.Access(now, next()%(1<<16), next()%5 == 0)
	}

	fresh := New(smallCacheConfig(), mem)
	fresh.CopyFrom(c)
	if !reflect.DeepEqual(c.lines, fresh.lines) {
		t.Fatal("copied line arrays differ")
	}
	if !reflect.DeepEqual(c.ports, fresh.ports) || !reflect.DeepEqual(c.outstanding, fresh.outstanding) {
		t.Fatal("copied port/MSHR reservations differ")
	}
	if c.lruClock != fresh.lruClock {
		t.Fatal("copied LRU clock differs")
	}
	simtest.RequireDeepEqual(t, "cache counters", c.Ctr, fresh.Ctr)

	for i := 0; i < 300; i++ {
		now += next() % 5
		addr := next() % (1 << 16)
		write := next()%5 == 0
		if a, b := c.Access(now, addr, write), fresh.Access(now, addr, write); a != b {
			t.Fatalf("post-copy divergence at access %d: %d vs %d", i, a, b)
		}
	}
}

func TestStreamPrefetcherRoundTrip(t *testing.T) {
	mem := steadyMem{lat: 80}
	p := NewStreamPrefetcher(8, 4, 64, mem)
	next := xorshift(0x1234567)
	now := uint64(5)
	for i := 0; i < 2000; i++ {
		now += next() % 3
		base := (next() % 8) << 14
		p.Train(now, base+uint64(i%64)*64)
	}

	fresh := NewStreamPrefetcher(8, 4, 64, mem)
	fresh.CopyFrom(p)
	if !reflect.DeepEqual(p.streams, fresh.streams) || p.clock != fresh.clock {
		t.Fatal("copied prefetcher streams differ")
	}
	simtest.RequireDeepEqual(t, "prefetcher counters", p.prefetches, fresh.prefetches)
}

func TestTLBRoundTrip(t *testing.T) {
	mem := steadyMem{lat: 120}
	tl := NewTLB(DefaultTLBConfig(), mem)
	next := xorshift(0xfeedface)
	now := uint64(1)
	for i := 0; i < 3000; i++ {
		now += next() % 4
		tl.Translate(now, next()%(1<<26))
	}

	fresh := NewTLB(DefaultTLBConfig(), mem)
	fresh.CopyFrom(tl)
	if !reflect.DeepEqual(tl.entries, fresh.entries) || tl.clock != fresh.clock {
		t.Fatal("copied TLB state differs")
	}
	simtest.RequireDeepEqual(t, "TLB counters",
		[3]stats.Counter{tl.hits, tl.misses, tl.pendingHits},
		[3]stats.Counter{fresh.hits, fresh.misses, fresh.pendingHits})
}
