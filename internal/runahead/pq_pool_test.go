package runahead

import "testing"

// TestPQSetCheckpointPoolNoAlloc asserts the checkpoint/release pair is
// allocation-free once the free list is primed — Checkpoint runs on
// every conditional-branch fetch.
func TestPQSetCheckpointPoolNoAlloc(t *testing.T) {
	cfg := Mini()
	s := NewPQSet(&cfg)
	s.Release(s.Checkpoint())
	allocs := testing.AllocsPerRun(200, func() {
		cp := s.Checkpoint()
		s.RestoreAt(0, cp)
		s.Release(cp)
	})
	if allocs != 0 {
		t.Fatalf("checkpoint/restore/release allocated %.1f per op, want 0", allocs)
	}
}

// TestPQSetPooledCheckpointRestores verifies a recycled checkpoint
// still captures and restores fetch pointers correctly.
func TestPQSetPooledCheckpointRestores(t *testing.T) {
	cfg := Mini()
	s := NewPQSet(&cfg)
	q := s.Ensure(0x40, 1)
	q.reset(1)
	q.alloc = 4

	// Churn so the next Checkpoint comes from the pool.
	s.Release(s.Checkpoint())

	q.fetch = 2
	cp := s.Checkpoint()
	q.fetch = 4
	s.RestoreAt(0, cp)
	s.Release(cp)
	if q.fetch != 2 {
		t.Fatalf("restored fetch pointer = %d, want 2", q.fetch)
	}

	// A reset between checkpoint and restore bumps the generation; the
	// stale pointer must not be restored.
	cp2 := s.Checkpoint()
	q.reset(2)
	q.alloc = 1
	s.RestoreAt(0, cp2)
	s.Release(cp2)
	if q.fetch != 0 {
		t.Fatalf("stale checkpoint restored across a reset: fetch = %d", q.fetch)
	}
}

// TestPQSetEnsurePCZero covers the free-slot sentinel bug: a branch at
// PC 0 is legal and its queue must not be mistaken for an unassigned one.
func TestPQSetEnsurePCZero(t *testing.T) {
	cfg := Mini()
	s := NewPQSet(&cfg)

	q0 := s.Ensure(0, 1)
	if q0 == nil {
		t.Fatal("Ensure(0) returned no queue")
	}
	if s.For(0) != q0 {
		t.Fatal("For(0) does not find the PC-0 queue")
	}

	// Assign every remaining queue. None of these may steal the PC-0
	// queue while unassigned queues exist.
	for i := 1; i < cfg.NumQueues; i++ {
		q := s.Ensure(uint64(i*64), uint64(i))
		if q == q0 {
			t.Fatalf("Ensure(%#x) reused the PC-0 queue as if free", i*64)
		}
	}
	if s.For(0) != q0 || q0.branchPC != 0 || !q0.assigned {
		t.Fatal("PC-0 queue lost after filling the set")
	}
	if got := s.Ensure(0, 100); got != q0 {
		t.Fatal("Ensure(0) no longer returns the assigned queue")
	}

	// Force eviction of the PC-0 queue (it is the LRU after the loop
	// above refreshed every other queue more recently... make it so
	// explicitly) and check the map entry is actually removed.
	q0.lastUse = 0
	q0.active = false
	evictor := s.Ensure(0x9999, 200)
	if evictor != q0 {
		t.Fatalf("expected the stale PC-0 queue to be the eviction victim")
	}
	if s.For(0) != nil {
		t.Fatal("evicted PC-0 mapping still resolves")
	}
	if s.For(0x9999) != evictor {
		t.Fatal("reassigned queue not reachable by its new PC")
	}
}
