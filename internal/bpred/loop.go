package bpred

import "math"

func powf(x, y float64) float64 { return math.Pow(x, y) }

// loopEntry tracks one branch that behaves like a loop with a constant trip
// count.
type loopEntry struct {
	tag      uint16
	pastIter uint16
	currIter uint16
	conf     uint8
	age      uint8
	dir      bool // the common (in-loop) direction
	valid    bool
}

// loopPredictor is the "L" of TAGE-SC-L: it captures branches with regular
// trip counts that global history alone mispredicts once per loop exit.
// State advances at commit time; the modest skew relative to fetch-time is
// the usual simulator simplification and only weakens (never breaks) it.
type loopPredictor struct {
	entries []loopEntry
	mask    uint64
}

func newLoopPredictor(logSize uint) *loopPredictor {
	n := 1 << logSize
	return &loopPredictor{entries: make([]loopEntry, n), mask: uint64(n - 1)}
}

func (l *loopPredictor) lookup(pc uint64) (e *loopEntry, hit bool) {
	e = &l.entries[pc&l.mask]
	return e, e.valid && e.tag == uint16(pc>>7)
}

// predict returns (direction, confident) for the branch at pc.
func (l *loopPredictor) predict(pc uint64) (bool, bool) {
	e, hit := l.lookup(pc)
	if !hit || e.conf < 3 || e.pastIter == 0 {
		return false, false
	}
	// pastIter in-loop outcomes have been seen: the next one is the exit.
	if e.currIter >= e.pastIter {
		return !e.dir, true
	}
	return e.dir, true
}

// commit trains the loop table with the resolved direction.
func (l *loopPredictor) commit(pc uint64, taken bool) {
	e, hit := l.lookup(pc)
	if !hit {
		if e.valid && e.age > 0 {
			e.age--
			return
		}
		*e = loopEntry{tag: uint16(pc >> 7), dir: taken, valid: true, age: 7}
		return
	}
	if taken == e.dir {
		if e.currIter < 0xffff {
			e.currIter++
		}
		// A run longer than the learned trip count breaks the pattern.
		if e.pastIter != 0 && e.currIter > e.pastIter {
			e.conf = 0
			e.pastIter = 0
		}
		return
	}
	// Loop exit observed; currIter in-loop outcomes preceded it.
	iters := e.currIter
	if e.pastIter == iters {
		if e.conf < 7 {
			e.conf++
		}
		if e.age < 7 {
			e.age++
		}
	} else {
		e.conf = 0
		e.pastIter = iters
	}
	e.currIter = 0
}

func (l *loopPredictor) storageBits() int {
	// tag 16 + past 16 + curr 16 + conf 3 + age 3 + dir 1 + valid 1
	return len(l.entries) * 56
}

// copyFrom copies w's loop entries into l.
func (l *loopPredictor) copyFrom(w *loopPredictor) { copy(l.entries, w.entries) }
