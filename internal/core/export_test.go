package core

import (
	"fmt"
	"math/bits"
)

// uopReady is the operand scan issue ran over every reservation-station
// entry each cycle before the event-driven wakeup replaced it. It stays
// here as the reference the wakeup state must agree with: d may issue at
// cycle now when no producer withholds its result.
func uopReady(d *DynUop, now uint64) bool {
	for i, p := range d.prods[:d.nprods] {
		if withholds(p, d.prodSeq[i], now) {
			return false
		}
	}
	if d.IsLoad() && d.storeDep != nil && withholds(d.storeDep, d.storeSeq, now) {
		return false
	}
	return true
}

// withholds reports whether producer p, linked while its Seq was seq, has
// yet to make its result available at cycle now. A Seq mismatch means p
// retired and its DynUop was handed out again; a squashed producer never
// delivers, and its consumers are squashed with it.
func withholds(p *DynUop, seq, now uint64) bool {
	return p.Seq == seq && p.State != StSquashed && !p.Done(now)
}

// CheckWakeup checks the wakeup state after the Cycle that simulated cycle
// now, when it reads as the next cycle's issue will find it:
//
//   - an RS entry is on the ready list exactly when uopReady holds, and
//     the ready list is in Seq order;
//   - every other RS entry whose producers have all issued is on the timed
//     list, with waiting == 0 and wakeAt > now;
//   - every consumer-list edge belongs to an RS entry whose link bit names
//     that list's producer, lists are youngest first, only RS entries head
//     one, and every set link bit sits on exactly one list.
func (c *Core) CheckWakeup(now uint64) error {
	const (
		onReady = 1 + iota
		onTimed
	)
	on := make([]uint8, len(c.fe.uops))
	inRS := make([]bool, len(c.fe.uops))
	rs := 0
	for _, d := range c.rob {
		if d.State == StInRS {
			inRS[d.idx] = true
			rs++
		}
	}
	if rs != c.rsCount {
		return fmt.Errorf("cycle %d: %d ROB entries in the reservation stations, rsCount %d", now, rs, c.rsCount)
	}
	for i, d := range c.ready {
		if !inRS[d.idx] || on[d.idx] != 0 {
			return fmt.Errorf("cycle %d: ready[%d] (seq %d, state %d) is not a distinct RS entry", now, i, d.Seq, d.State)
		}
		if i > 0 && c.ready[i-1].Seq >= d.Seq {
			return fmt.Errorf("cycle %d: ready list out of Seq order at %d", now, i)
		}
		on[d.idx] = onReady
	}
	for i, d := range c.timed {
		if !inRS[d.idx] || on[d.idx] != 0 {
			return fmt.Errorf("cycle %d: timed[%d] (seq %d, state %d) is not a distinct RS entry off the ready list",
				now, i, d.Seq, d.State)
		}
		if d.waiting != 0 || d.wakeAt <= now {
			return fmt.Errorf("cycle %d: timed seq %d has waiting %d, wakeAt %d", now, d.Seq, d.waiting, d.wakeAt)
		}
		on[d.idx] = onTimed
	}
	for _, d := range c.rob {
		if d.State != StInRS {
			continue
		}
		if ref := uopReady(d, now); ref != (on[d.idx] == onReady) {
			return fmt.Errorf("cycle %d: seq %d: operand scan ready=%v, but list=%d (waiting %d, wakeAt %d)",
				now, d.Seq, ref, on[d.idx], d.waiting, d.wakeAt)
		}
		if (d.waiting == 0) != (on[d.idx] != 0) {
			return fmt.Errorf("cycle %d: seq %d waits on %d producers, list=%d", now, d.Seq, d.waiting, on[d.idx])
		}
		if int(d.waiting) != bits.OnesCount8(d.linked) {
			return fmt.Errorf("cycle %d: seq %d waits on %d producers with links %04b", now, d.Seq, d.waiting, d.linked)
		}
	}
	seen := make([]uint8, len(c.fe.uops))
	for i := range c.fe.uops {
		p := &c.fe.uops[i]
		if p.linked != 0 && !inRS[i] {
			return fmt.Errorf("cycle %d: seq %d (state %d) outside the reservation stations has links %04b",
				now, p.Seq, p.State, p.linked)
		}
		if p.consumers == 0 {
			continue
		}
		if !inRS[i] {
			return fmt.Errorf("cycle %d: seq %d (state %d) heads a consumer list outside the reservation stations",
				now, p.Seq, p.State)
		}
		prev, steps := ^uint64(0), 0
		for l := p.consumers; l != 0; {
			if steps++; steps > linkSlots*len(c.fe.uops) {
				return fmt.Errorf("cycle %d: seq %d's consumer list does not end", now, p.Seq)
			}
			e, k := c.fe.slotAt(l)
			switch {
			case !inRS[e.idx]:
				return fmt.Errorf("cycle %d: seq %d's list holds seq %d (state %d), not an RS entry", now, p.Seq, e.Seq, e.State)
			case e.linked&(1<<k) == 0 || e.producer(k) != p:
				return fmt.Errorf("cycle %d: seq %d's list holds slot %d of seq %d, whose link bit does not name it",
					now, p.Seq, k, e.Seq)
			case seen[e.idx]&(1<<k) != 0:
				return fmt.Errorf("cycle %d: slot %d of seq %d sits on two lists", now, k, e.Seq)
			case e.Seq > prev:
				return fmt.Errorf("cycle %d: seq %d's list is not youngest first", now, p.Seq)
			}
			seen[e.idx] |= 1 << k
			prev = e.Seq
			l = e.next[k]
		}
	}
	for _, d := range c.rob {
		if seen[d.idx] != d.linked {
			return fmt.Errorf("cycle %d: seq %d has links %04b but sits on lists %04b", now, d.Seq, d.linked, seen[d.idx])
		}
	}
	return nil
}
