package dram

import "repro/internal/brstate"

// StateVersion is the DRAM snapshot payload version.
const StateVersion = 1

// SaveState implements brstate.Saver: per-bank open rows and reservation
// cycles, per-channel bus reservation and in-flight queue, and the request
// counters. Reservation fields are absolute cycles, valid across restore
// because a restored run continues from the saved clock.
func (d *DRAM) SaveState(w *brstate.Writer) {
	w.Len(len(d.chs))
	for ci := range d.chs {
		ch := &d.chs[ci]
		w.Len(len(ch.banks))
		for bi := range ch.banks {
			b := &ch.banks[bi]
			w.I64(b.openRow)
			w.U64(b.freeAt)
			w.U64(b.lastActAt)
		}
		w.U64(ch.busAt)
		w.Len(len(ch.queue))
		for _, c := range ch.queue {
			w.U64(c)
		}
	}
	d.C.SaveState(w)
}

// LoadState implements brstate.Loader.
func (d *DRAM) LoadState(r *brstate.Reader) error {
	if !r.Len(len(d.chs)) {
		return r.Err()
	}
	for ci := range d.chs {
		ch := &d.chs[ci]
		if !r.Len(len(ch.banks)) {
			return r.Err()
		}
		for bi := range ch.banks {
			b := &ch.banks[bi]
			b.openRow = r.I64()
			b.freeAt = r.U64()
			b.lastActAt = r.U64()
		}
		ch.busAt = r.U64()
		n := r.LenAny()
		ch.queue = ch.queue[:0]
		for i := 0; i < n && r.Err() == nil; i++ {
			ch.queue = append(ch.queue, r.U64())
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	return d.C.LoadState(r)
}
