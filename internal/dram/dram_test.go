package dram

import "testing"

func TestRowBufferLocality(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	d.Access(0, 0, false) // opens row 0 in bank 0
	// Stream through the open row: all row hits.
	now := uint64(10_000)
	for off := uint64(64); off < uint64(cfg.RowBytes); off += 64 {
		done := d.Access(now, off, false)
		now = done + 10
	}
	if d.Ctr.RowHits.Get() < uint64(cfg.RowBytes/64-2) {
		t.Fatalf("row hits %d, want nearly all of the streamed row", d.Ctr.RowHits.Get())
	}
	if d.Ctr.RowConflicts.Get() != 0 {
		t.Fatalf("unexpected conflicts: %d", d.Ctr.RowConflicts.Get())
	}
}

func TestBankParallelism(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	// Two simultaneous requests to different banks overlap; two to the
	// same bank serialize.
	a := d.Access(0, 0, false)
	b := d.Access(0, uint64(cfg.RowBytes), false) // next bank
	sameBank := New(cfg)
	c1 := sameBank.Access(0, 0, false)
	c2 := sameBank.Access(0, 64, false) // same row, but bank busy
	_ = a
	if b >= c2 && c2-c1 < b {
		t.Logf("bank-parallel done=%d, serialized second=%d", b, c2)
	}
	if c2 <= c1 {
		t.Fatalf("same-bank accesses did not serialize: %d then %d", c1, c2)
	}
}

func TestQueueBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueSize = 4
	d := New(cfg)
	// Flood one cycle with many requests; later ones must be delayed by
	// queue occupancy.
	var first, last uint64
	for i := 0; i < 16; i++ {
		done := d.Access(0, uint64(i)*uint64(cfg.RowBytes), false)
		if i == 0 {
			first = done
		}
		last = done
	}
	if d.Ctr.QueueFull.Get() == 0 {
		t.Fatal("queue back-pressure never engaged")
	}
	if last <= first {
		t.Fatal("flooded requests did not spread out in time")
	}
}

func TestWritesReturnEarly(t *testing.T) {
	d := New(DefaultConfig())
	wDone := d.Access(0, 0, true)
	d2 := New(DefaultConfig())
	rDone := d2.Access(0, 0, false)
	if wDone >= rDone {
		t.Fatalf("write completion %d should precede read completion %d (posted writes)", wDone, rDone)
	}
}

func TestActivateWindowSpacing(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	// Ping-pong between two rows of the same bank: every access conflicts
	// and activations must respect the row-cycle window.
	rowStride := uint64(cfg.RowBytes * cfg.BanksPerCh)
	now := uint64(0)
	var prevStart uint64
	for i := 0; i < 8; i++ {
		addr := uint64(i%2) * rowStride
		done := d.Access(now, addr, false)
		if i >= 2 {
			if done-prevStart < cfg.RowCycle {
				t.Fatalf("activations %d apart, min %d", done-prevStart, cfg.RowCycle)
			}
		}
		prevStart = done
		now = done
	}
	if d.Ctr.RowConflicts.Get() < 6 {
		t.Fatalf("conflicts %d, want ping-pong conflicts", d.Ctr.RowConflicts.Get())
	}
}
