package runahead

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/isa"
)

// TagOutcome is the trigger-direction part of a chain tag.
type TagOutcome uint8

// Trigger direction requirements.
const (
	OutTaken TagOutcome = iota
	OutNotTaken
	OutWildcard // '*': any outcome of the trigger branch matches
)

// String implements fmt.Stringer.
func (o TagOutcome) String() string {
	switch o {
	case OutTaken:
		return "T"
	case OutNotTaken:
		return "NT"
	default:
		return "*"
	}
}

// Tag identifies the action that initiates a chain: the terminating branch's
// PC and required outcome (paper §3: chains are tagged <PC, outcome> or
// <PC, *>).
type Tag struct {
	PC  uint64
	Out TagOutcome
}

// Matches reports whether a produced (pc, taken) event triggers this tag.
func (t Tag) Matches(pc uint64, taken bool) bool {
	if t.PC != pc {
		return false
	}
	switch t.Out {
	case OutWildcard:
		return true
	case OutTaken:
		return taken
	default:
		return !taken
	}
}

// String implements fmt.Stringer.
func (t Tag) String() string { return fmt.Sprintf("<%d,%s>", t.PC, t.Out) }

// ChainUop is one locally-renamed micro-op of a dependence chain. Register
// operands index the chain-local register file (-1 = unused); the condition
// codes occupy an ordinary local register.
type ChainUop struct {
	Op      isa.Op
	Dst     int
	Src1    int
	Src2    int
	Imm     int64
	UseImm  bool
	Scale   uint8
	MemSize uint8
	Signed  bool
	Cond    isa.Cond
	OrigPC  uint64
}

// LiveBinding maps an architectural register to a chain-local register.
type LiveBinding struct {
	Arch  isa.Reg
	Local int
}

// Chain is an extracted dependence chain: the backward dataflow slice that
// computes one branch's outcome, locally renamed, ending with the branch
// micro-op itself.
type Chain struct {
	// BranchPC is the branch whose outcome this chain computes.
	BranchPC uint64
	// Tag is the trigger: the terminating branch of the backward walk.
	Tag Tag
	// Uops hold the slice in program order; the last one is the branch.
	Uops []ChainUop
	// LiveIns are registers read before written (copied from the core at
	// synchronization, or from the producer chain's live-outs).
	LiveIns []LiveBinding
	// LiveOuts are the youngest in-chain writers of each written register
	// (the producer side of global rename).
	LiveOuts []LiveBinding
	// NumLocals is the local register file footprint.
	NumLocals int
	// Loads counts memory reads in the chain.
	Loads int

	// serial is the ChainCache installation that last installed or
	// refreshed this chain; the DCE compares it, not the pointer, to tell
	// whether an instance has already launched the chain.
	serial uint64
}

// HasAGTrigger reports whether the chain terminates at an affector/guard
// branch rather than at a second instance of its own branch (Figure 5's
// numerator).
func (c *Chain) HasAGTrigger() bool { return c.Tag.PC != c.BranchPC }

// String renders the chain for debugging and the examples.
func (c *Chain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chain for branch %d, tag %s, %d locals\n", c.BranchPC, c.Tag, c.NumLocals)
	fmt.Fprintf(&b, "  live-ins: %v  live-outs: %v\n", c.LiveIns, c.LiveOuts)
	for _, u := range c.Uops {
		fmt.Fprintf(&b, "  pc=%-4d %s d=%d s1=%d s2=%d imm=%d\n", u.OrigPC, u.Op, u.Dst, u.Src1, u.Src2, u.Imm)
	}
	return b.String()
}

// Equal reports whether c and o compute the same branch from the same
// trigger with the same micro-ops (a chain-cache install that refreshes an
// Equal chain does not count as a new chain).
func (c *Chain) Equal(o *Chain) bool {
	return c.BranchPC == o.BranchPC && c.Tag == o.Tag && slices.Equal(c.Uops, o.Uops)
}

// sameBody reports whether c and o agree in every field the DCE reads: the
// micro-ops Equal compares, and the live-ins, live-outs, local count and
// load count. A refresh with the same body keeps the cached object.
func (c *Chain) sameBody(o *Chain) bool {
	return c.Equal(o) && slices.Equal(c.LiveIns, o.LiveIns) &&
		slices.Equal(c.LiveOuts, o.LiveOuts) && c.NumLocals == o.NumLocals && c.Loads == o.Loads
}

// clone returns a copy of c that shares no storage with it.
func (c *Chain) clone() *Chain {
	// The chain cache clones only a new or changed chain, whose copy must
	// outlive the extractor's scratch it came from; a refresh of an
	// unchanged chain keeps the cached object and allocates nothing.
	return &Chain{ //brlint:allow hot-path-alloc
		BranchPC: c.BranchPC, Tag: c.Tag, NumLocals: c.NumLocals, Loads: c.Loads,
		Uops:     cloneSlice(c.Uops),
		LiveIns:  cloneSlice(c.LiveIns),
		LiveOuts: cloneSlice(c.LiveOuts),
	}
}

// cloneSlice returns a copy of s, or nil when s is empty.
func cloneSlice[T any](s []T) []T {
	// Only clone calls this: part of the copy of a new or changed chain.
	return append([]T(nil), s...) //brlint:allow hot-path-alloc
}

// cebEntry is one retired micro-op recorded in the Chain Extraction Buffer.
type cebEntry struct {
	u       *isa.Uop
	taken   bool
	memAddr uint64
}

// CEB is the circular Chain Extraction Buffer holding the most recently
// retired micro-ops (512 in Mini, paper §4.3).
type CEB struct {
	buf   []cebEntry
	head  int // next write position
	count int
}

// NewCEB returns a buffer holding n retired micro-ops.
func NewCEB(n int) *CEB {
	return &CEB{buf: make([]cebEntry, n)}
}

// Push records a retired micro-op.
func (c *CEB) Push(u *isa.Uop, taken bool, memAddr uint64) {
	c.buf[c.head] = cebEntry{u: u, taken: taken, memAddr: memAddr}
	c.head = (c.head + 1) % len(c.buf)
	if c.count < len(c.buf) {
		c.count++
	}
}

// Len returns the number of recorded micro-ops.
func (c *CEB) Len() int { return c.count }

// at returns the entry i positions before the newest (0 = newest).
func (c *CEB) at(i int) *cebEntry {
	pos := c.head - 1 - i
	for pos < 0 {
		pos += len(c.buf)
	}
	return &c.buf[pos]
}

// ExtractError explains why extraction failed; chains that violate the
// paper's simplicity guarantees are rejected rather than repaired.
type ExtractError struct{ Reason string }

// Error implements error.
func (e *ExtractError) Error() string { return "runahead: extraction failed: " + e.Reason }

// Rejections are preallocated: failed walks are the common case on the
// retire-driven extraction path and must not allocate.
var (
	errEmptyCEB      = &ExtractError{"empty CEB"}
	errNotCondBranch = &ExtractError{"newest CEB entry is not a conditional branch"}
	errExpensiveOp   = &ExtractError{"expensive op in slice"}
	errChainTooLong  = &ExtractError{"chain longer than the configured MaxChainLen"}
	errNoTerminator  = &ExtractError{"no terminating branch within the CEB"}
	errStoreSurvived = &ExtractError{"store survived extraction"}
	errInteriorCtl   = &ExtractError{"interior control flow"}
	errDegenerate    = &ExtractError{"degenerate chain (no computation feeding the branch)"}
)

// seekEntry is a pending request for a producer of an architectural
// register during the backward walk. beforePos restricts matches to CEB
// positions strictly older (larger index) than it; this is what makes
// store-load-pair elimination sound: the store's data register must be
// produced before the store, not between the store and the load.
type seekEntry struct {
	reg       isa.Reg
	vid       int
	beforePos int
}

// regVid pairs an architectural register with a chain value id.
type regVid struct {
	reg isa.Reg
	vid int
}

// extractor performs the backward dataflow walk of Figure 9. One extractor
// is reused across every extraction a System performs: the scratch state
// below, the Chain it produces included, is truncated between walks, never
// freed, so a steady-state extraction allocates nothing
// (TestExtractorSteadyStateAllocs pins this).
type extractor struct {
	ceb   *CEB
	cfg   *Config
	agSet map[uint64]bool

	// search holds the outstanding producer requests in creation order. A
	// flat list rather than a per-register map: vid numbering, unification
	// order and live-in order then follow insertion order directly, keeping
	// chains bit-identical without sorting map keys.
	search []seekEntry
	alias  []int // vid -> vid alias (-1 = canonical)

	// emitted collects chain uops in reverse (youngest-first) order with
	// value-id operands.
	emitted []vidUop
	// liveOut records the youngest in-chain writer of each arch reg, in
	// first-write order (the walk visits the youngest writer first).
	liveOut []regVid
	loads   int

	// regsBuf and local are build()'s scratch: the distinct live-in
	// registers, and the canonical-vid -> local-register numbering.
	regsBuf []isa.Reg
	local   map[int]int

	// chain is the walk's product, rebuilt in place by every build; the
	// chain cache copies it when it installs a new or changed chain.
	chain Chain
}

// newExtractor returns an empty extractor; the maps persist across resets.
func newExtractor() *extractor {
	return &extractor{
		agSet: make(map[uint64]bool),
		local: make(map[int]int),
	}
}

// reset points the extractor at a walk's inputs and truncates all scratch,
// keeping the backing arrays.
func (x *extractor) reset(ceb *CEB, cfg *Config, agSet []uint64) {
	x.ceb, x.cfg = ceb, cfg
	clear(x.agSet)
	for _, pc := range agSet {
		x.agSet[pc] = true
	}
	x.search = x.search[:0]
	x.alias = x.alias[:0]
	x.emitted = x.emitted[:0]
	x.liveOut = x.liveOut[:0]
	x.loads = 0
}

// grow1 extends s by one zero element, reusing capacity. Every caller keeps
// its slice across calls (extractor scratch, the DCE's lists and pools), so
// growth past the high-water mark is the cold path and amortizes to zero.
func grow1[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	var zero T
	return append(s, zero) //brlint:allow hot-path-alloc
}

// push appends v to s through grow1.
func push[T any](s []T, v T) []T {
	s = grow1(s)
	s[len(s)-1] = v
	return s
}

type vidUop struct {
	u      *isa.Uop
	dstVid int
	s1Vid  int
	s2Vid  int
}

func (x *extractor) newVid() int {
	x.alias = grow1(x.alias)
	x.alias[len(x.alias)-1] = -1
	return len(x.alias) - 1
}

func (x *extractor) resolve(v int) int {
	for x.alias[v] >= 0 {
		v = x.alias[v]
	}
	return v
}

// seek requests a producer for arch reg r at positions older than pos.
func (x *extractor) seek(r isa.Reg, pos int) int {
	// Reuse an existing request with the same window so two consumers of
	// the same value share one vid; different windows must stay distinct.
	for i := range x.search {
		if e := &x.search[i]; e.reg == r && e.beforePos == pos {
			return e.vid
		}
	}
	vid := x.newVid()
	x.search = grow1(x.search)
	x.search[len(x.search)-1] = seekEntry{reg: r, vid: vid, beforePos: pos}
	return vid
}

// match consumes all requests for r that may be satisfied at position pos
// and returns their unified vid (or -1 when none match). Satisfied entries
// are compacted out in place, preserving the order of the rest.
func (x *extractor) match(r isa.Reg, pos int) int {
	unified := -1
	n := 0
	for i := range x.search {
		e := x.search[i]
		if e.reg == r && (pos > e.beforePos || e.beforePos == maxInt) {
			// Position pos is older than the consumer's window start.
			if unified == -1 {
				unified = e.vid
			} else {
				x.alias[e.vid] = unified
			}
			continue
		}
		x.search[n] = e
		n++
	}
	if unified == -1 {
		return -1 // nothing consumed; the compaction above was the identity
	}
	x.search = x.search[:n]
	return unified
}

// noteLiveOut records vid as r's live-out unless an in-chain writer was
// already seen (the backward walk meets the youngest writer first).
func (x *extractor) noteLiveOut(r isa.Reg, vid int) {
	for i := range x.liveOut {
		if x.liveOut[i].reg == r {
			return
		}
	}
	x.liveOut = grow1(x.liveOut)
	x.liveOut[len(x.liveOut)-1] = regVid{reg: r, vid: vid}
}

const maxInt = int(^uint(0) >> 1)

// ExtractChain walks the CEB backwards from the most recently retired
// instance of the hard branch (which must be the newest CEB entry) and
// returns its dependence chain. agSet lists the branch's known
// affector/guard PCs, which terminate the walk (paper §4.3). This
// convenience wrapper allocates a fresh extractor per call, so the chain is
// the caller's; the System reuses one extractor across all its extractions
// instead, and its chains last only until the next walk.
func ExtractChain(ceb *CEB, cfg *Config, agSet []uint64) (*Chain, error) {
	return newExtractor().extract(ceb, cfg, agSet)
}

// extract runs one backward walk, reusing the extractor's scratch buffers.
// The returned chain is the extractor's own and is overwritten by the next
// walk.
func (x *extractor) extract(ceb *CEB, cfg *Config, agSet []uint64) (*Chain, error) {
	if ceb.Len() == 0 {
		return nil, errEmptyCEB
	}
	br := ceb.at(0)
	if !br.u.Op.IsCondBranch() {
		return nil, errNotCondBranch
	}
	x.reset(ceb, cfg, agSet)

	// Seed with the branch itself: it sources the condition codes.
	flagsVid := x.seek(isa.RegFlags, maxInt)
	x.emitted = grow1(x.emitted)
	x.emitted[len(x.emitted)-1] = vidUop{u: br.u, dstVid: -1, s1Vid: flagsVid, s2Vid: -1}

	tag, err := x.walk(br.u.PC)
	if err != nil {
		return nil, err
	}
	return x.build(br.u.PC, tag)
}

// walk scans older CEB entries until a terminating branch, returning the
// chain tag.
func (x *extractor) walk(branchPC uint64) (Tag, error) {
	var dstBuf [2]isa.Reg
	for pos := 1; pos < x.ceb.Len(); pos++ {
		e := x.ceb.at(pos)
		u := e.u
		if u.Op.IsCondBranch() {
			if u.PC == branchPC {
				// Second instance of the same branch. A self-affector (the
				// branch's direction feeds its own future dataflow) needs a
				// directional tag; otherwise the tag is the wildcard of
				// §3's Figure 4.
				if x.cfg.UseAffectorGuard && x.agSet[branchPC] {
					out := OutNotTaken
					if e.taken {
						out = OutTaken
					}
					return Tag{PC: branchPC, Out: out}, nil
				}
				return Tag{PC: branchPC, Out: OutWildcard}, nil
			}
			if x.cfg.UseAffectorGuard && x.agSet[u.PC] {
				out := OutNotTaken
				if e.taken {
					out = OutTaken
				}
				return Tag{PC: u.PC, Out: out}, nil
			}
			continue // chains contain no control flow
		}
		if u.Op == isa.OpJmp || u.Op == isa.OpNop || u.Op == isa.OpHalt {
			continue
		}
		dsts := dstBuf[:u.DstRegN(&dstBuf)]
		if len(dsts) == 0 {
			continue // stores and other non-writers never match directly
		}
		vid := x.match(dsts[0], pos)
		if vid == -1 {
			continue
		}
		if u.Op.IsExpensive() {
			return Tag{}, errExpensiveOp
		}
		if x.cfg.MoveElim && u.Op == isa.OpMov {
			// Move elimination: alias the consumer's value to the source.
			x.alias[vid] = x.seek(u.Src1, maxInt)
			x.noteLiveOut(dsts[0], vid)
			continue
		}
		if u.Op == isa.OpLd {
			if x.cfg.MoveElim {
				if sPos, sEntry := x.findStorePair(pos, e); sPos >= 0 {
					// Store-load pair: logically a move of the store's data
					// register, so eliminate both (guaranteeing store-free
					// chains).
					x.alias[vid] = x.seek(sEntry.u.Dst, sPos)
					x.noteLiveOut(dsts[0], vid)
					continue
				}
			}
			x.loads++
		}
		x.emit(u, vid)
		if len(x.emitted) > x.cfg.MaxChainLen {
			return Tag{}, errChainTooLong
		}
		x.noteLiveOut(dsts[0], vid)
	}
	return Tag{}, errNoTerminator
}

// findStorePair locates the youngest store older than the load at loadPos
// writing the same address and width.
func (x *extractor) findStorePair(loadPos int, load *cebEntry) (int, *cebEntry) {
	for pos := loadPos + 1; pos < x.ceb.Len(); pos++ {
		e := x.ceb.at(pos)
		if e.u.Op == isa.OpSt && e.memAddr == load.memAddr && e.u.MemSize == load.u.MemSize {
			return pos, e
		}
	}
	return -1, nil
}

// emit appends a chain uop with value-id operands, creating seeks for its
// sources.
func (x *extractor) emit(u *isa.Uop, dstVid int) {
	vu := vidUop{u: u, dstVid: dstVid, s1Vid: -1, s2Vid: -1}
	switch u.Op {
	case isa.OpMovI:
		// No sources.
	case isa.OpLd:
		vu.s1Vid = x.seek(u.Src1, maxInt)
		if u.Scale > 0 {
			vu.s2Vid = x.seek(u.Src2, maxInt)
		}
	case isa.OpCmp, isa.OpTest:
		vu.s1Vid = x.seek(u.Src1, maxInt)
		if !u.UseImm {
			vu.s2Vid = x.seek(u.Src2, maxInt)
		}
	default:
		vu.s1Vid = x.seek(u.Src1, maxInt)
		if !u.UseImm && u.Src2.Valid() && u.Op != isa.OpMov && u.Op != isa.OpSext {
			vu.s2Vid = x.seek(u.Src2, maxInt)
		}
	}
	x.emitted = grow1(x.emitted)
	x.emitted[len(x.emitted)-1] = vu
}

// searchRegs returns the registers with outstanding live-in requests in
// ascending register order, in the reused regsBuf scratch. Chains must be
// bit-identical across runs — local register numbering feeds the chain
// cache, the DCE and the disassembled dumps — so the gather sorts the
// (already insertion-ordered) request list.
func (x *extractor) searchRegs() []isa.Reg {
	x.regsBuf = x.regsBuf[:0]
	for i := range x.search {
		r := x.search[i].reg
		dup := false
		for _, seen := range x.regsBuf {
			if seen == r {
				dup = true
				break
			}
		}
		if !dup {
			x.regsBuf = grow1(x.regsBuf)
			x.regsBuf[len(x.regsBuf)-1] = r
		}
	}
	insertionSortRegs(x.regsBuf)
	return x.regsBuf
}

// insertionSortRegs orders a handful of registers ascending without the
// closure a sort.Slice call would allocate.
func insertionSortRegs(regs []isa.Reg) {
	for i := 1; i < len(regs); i++ {
		for j := i; j > 0 && regs[j] < regs[j-1]; j-- {
			regs[j], regs[j-1] = regs[j-1], regs[j]
		}
	}
}

// assign maps a vid to its chain-local register, numbering new canonical
// vids in first-use order.
func (x *extractor) assign(vid int) int {
	if vid < 0 {
		return -1
	}
	v := x.resolve(vid)
	if l, ok := x.local[v]; ok {
		return l
	}
	l := len(x.local)
	x.local[v] = l
	return l
}

// build reverses the emitted slice into program order, assigns local
// registers and produces the Chain in x.chain.
func (x *extractor) build(branchPC uint64, tag Tag) (*Chain, error) {
	// Unify any duplicate live-in requests for the same register: they all
	// denote "the value of r at chain entry".
	regs := x.searchRegs()
	for _, r := range regs {
		first := -1
		for i := range x.search {
			if x.search[i].reg != r {
				continue
			}
			if first == -1 {
				first = i
				continue
			}
			from, to := x.resolve(x.search[i].vid), x.resolve(x.search[first].vid)
			if from != to {
				x.alias[from] = to
			}
		}
	}

	clear(x.local) // canonical vid -> local register

	ch := &x.chain
	ch.BranchPC, ch.Tag, ch.Loads = branchPC, tag, x.loads
	ch.Uops = ch.Uops[:0]
	ch.LiveIns = ch.LiveIns[:0]
	ch.LiveOuts = ch.LiveOuts[:0]
	// Reverse into program order.
	for i := len(x.emitted) - 1; i >= 0; i-- {
		e := x.emitted[i]
		u := e.u
		ch.Uops = push(ch.Uops, ChainUop{
			Op:      u.Op,
			Dst:     x.assign(e.dstVid),
			Src1:    x.assign(e.s1Vid),
			Src2:    x.assign(e.s2Vid),
			Imm:     u.Imm,
			UseImm:  u.UseImm,
			Scale:   u.Scale,
			MemSize: u.MemSize,
			Signed:  u.Signed,
			Cond:    u.Cond,
			OrigPC:  u.PC,
		})
	}
	for _, r := range regs {
		// The first request for r denotes "the value of r at chain entry".
		for j := range x.search {
			if x.search[j].reg == r {
				ch.LiveIns = push(ch.LiveIns, LiveBinding{Arch: r, Local: x.assign(x.search[j].vid)})
				break
			}
		}
	}
	// liveOut is scratch, so it can be reordered in place: ascending
	// register order, matching the live-in convention.
	for i := 1; i < len(x.liveOut); i++ {
		for j := i; j > 0 && x.liveOut[j].reg < x.liveOut[j-1].reg; j-- {
			x.liveOut[j], x.liveOut[j-1] = x.liveOut[j-1], x.liveOut[j]
		}
	}
	for _, lo := range x.liveOut {
		ch.LiveOuts = push(ch.LiveOuts, LiveBinding{Arch: lo.reg, Local: x.assign(lo.vid)})
	}
	ch.NumLocals = len(x.local)

	// Simplicity guarantees (paper §1): short, store-free, no control flow
	// except the final branch.
	for i, u := range ch.Uops {
		if u.Op == isa.OpSt {
			return nil, errStoreSurvived
		}
		if u.Op.IsBranch() && i != len(ch.Uops)-1 {
			return nil, errInteriorCtl
		}
	}
	if len(ch.Uops) < 2 || !ch.Uops[len(ch.Uops)-1].Op.IsCondBranch() {
		return nil, errDegenerate
	}
	return ch, nil
}
