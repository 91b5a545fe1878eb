package bpred

// This file implements the TAGE component: a base bimodal table plus a set
// of partially-tagged tables indexed with geometrically increasing global
// history lengths, with usefulness-guided allocation (Seznec, "TAGE-SC-L
// Branch Predictors", CBP-4/CBP-5). Speculative history is maintained with
// incrementally folded registers that are checkpointed per branch and
// restored on pipeline flushes.

// tageEntry is one tagged-table entry.
type tageEntry struct {
	tag uint16
	ctr int8  // 3-bit signed: >= 0 predicts taken
	u   uint8 // 2-bit usefulness
}

// folded maintains an incrementally folded (XOR-compressed) view of the
// most recent origLen history bits in compLen bits.
type folded struct {
	comp     uint32
	compLen  uint32
	origLen  uint32
	outpoint uint32
}

func newFolded(origLen, compLen uint32) folded {
	if compLen == 0 {
		compLen = 1
	}
	return folded{compLen: compLen, origLen: origLen, outpoint: origLen % compLen}
}

// push updates the fold after bit b was inserted; dropped is the bit that
// fell out of the origLen-bit window (the bit origLen ago, post-insert).
func (f *folded) push(b, dropped uint32) {
	f.comp = (f.comp << 1) ^ b
	f.comp ^= dropped << f.outpoint
	f.comp ^= f.comp >> f.compLen
	f.comp &= (1 << f.compLen) - 1
}

// ghr is a long speculative global history register held in a circular
// buffer with enough slack that restoring an old head position is valid for
// any realistic pipeline depth.
type ghr struct {
	buf  []uint8
	mask uint64
	head uint64 // monotonically increasing insert position
}

func newGHR(maxHist int) *ghr {
	n := 1
	for n < maxHist+2048 {
		n <<= 1
	}
	return &ghr{buf: make([]uint8, n), mask: uint64(n - 1)}
}

// bitAgo returns the history bit inserted i steps ago (0 = newest).
func (g *ghr) bitAgo(i uint32) uint32 {
	return uint32(g.buf[(g.head-1-uint64(i))&g.mask])
}

func (g *ghr) push(b uint32) {
	g.buf[g.head&g.mask] = uint8(b)
	g.head++
}

// TageParams configures a TAGE instance.
type TageParams struct {
	// LogBase is log2 of the bimodal table size.
	LogBase uint
	// LogEntries holds log2 of each tagged table's entry count.
	LogEntries []uint
	// TagBits holds each tagged table's tag width.
	TagBits []uint
	// Hists holds each tagged table's history length (ascending).
	Hists []uint32
	// UResetPeriod is the commit count between usefulness-bit resets.
	UResetPeriod uint64
}

// tage is the TAGE core shared by TAGESCL and MTAGE.
type tage struct {
	params TageParams
	base   []ctr2
	tables [][]tageEntry
	idxF   []folded // per-table index folds
	tagF1  []folded // per-table tag folds
	tagF2  []folded
	hist   *ghr
	path   uint64 // path history (low PC bits)

	useAltOnNA int8 // chooses altpred when the provider entry is weak
	tick       uint64
	rng        xorshift64

	// extraFolds are additional folded registers owned by a composing
	// predictor (the statistical corrector); they ride along with
	// speculative updates and checkpoints.
	extraFolds []folded

	// snapPool recycles released checkpoints: the core takes one per
	// conditional-branch fetch, so without reuse the hot path allocates a
	// tageSnap plus its folds slice on every such fetch.
	snapPool []*tageSnap
}

func newTage(p TageParams) *tage {
	t := &tage{params: p, hist: newGHR(int(p.Hists[len(p.Hists)-1])), rng: 0x2545f4914f6cdd1d}
	t.base = make([]ctr2, 1<<p.LogBase)
	for i := range t.base {
		t.base[i] = 2
	}
	t.tables = make([][]tageEntry, len(p.LogEntries))
	t.idxF = make([]folded, len(p.LogEntries))
	t.tagF1 = make([]folded, len(p.LogEntries))
	t.tagF2 = make([]folded, len(p.LogEntries))
	for i := range p.LogEntries {
		t.tables[i] = make([]tageEntry, 1<<p.LogEntries[i])
		t.idxF[i] = newFolded(p.Hists[i], uint32(p.LogEntries[i]))
		t.tagF1[i] = newFolded(p.Hists[i], uint32(p.TagBits[i]))
		t.tagF2[i] = newFolded(p.Hists[i], uint32(p.TagBits[i])-1)
	}
	return t
}

func (t *tage) numTables() int { return len(t.tables) }

func (t *tage) index(table int, pc uint64) uint32 {
	logN := t.params.LogEntries[table]
	h := t.idxF[table].comp
	pmix := uint32(t.path) & ((1 << min(logN, 16)) - 1)
	v := uint32(pc) ^ uint32(pc>>uint64(logN)) ^ h ^ (pmix << 1)
	return v & ((1 << logN) - 1)
}

func (t *tage) tagOf(table int, pc uint64) uint16 {
	tb := t.params.TagBits[table]
	v := uint32(pc) ^ t.tagF1[table].comp ^ (t.tagF2[table].comp << 1)
	return uint16(v & ((1 << tb) - 1))
}

// tagePred captures the TAGE component's prediction-time state.
type tagePred struct {
	indices  []uint32
	tags     []uint16
	provider int  // -1 when no tagged table hit
	alt      int  // -1 when no second hit
	predDir  bool // final TAGE direction
	altDir   bool // alternate prediction direction
	provWeak bool
	baseIdx  uint64
}

func (t *tage) predict(pc uint64) *tagePred {
	p := new(tagePred)
	t.predictInto(p, pc)
	return p
}

// predictInto fills p with the prediction-time state for pc, reusing p's
// slices; it is the allocation-free path TAGESCL's info pool feeds.
func (t *tage) predictInto(p *tagePred, pc uint64) {
	n := t.numTables()
	if cap(p.indices) < n {
		// Cold-path pool fill: runs once per pooled tagePred, then the
		// slices are reused forever (TestTAGESCLInfoPoolNoAlloc).
		//brlint:allow hot-path-alloc
		p.indices = make([]uint32, n)
		p.tags = make([]uint16, n) //brlint:allow hot-path-alloc
	}
	p.indices = p.indices[:n]
	p.tags = p.tags[:n]
	p.provider = -1
	p.alt = -1
	for i := 0; i < n; i++ {
		p.indices[i] = t.index(i, pc)
		p.tags[i] = t.tagOf(i, pc)
	}
	for i := n - 1; i >= 0; i-- {
		if t.tables[i][p.indices[i]].tag == p.tags[i] {
			if p.provider < 0 {
				p.provider = i
			} else {
				p.alt = i
				break
			}
		}
	}
	p.baseIdx = pc & uint64(len(t.base)-1)
	basePred := t.base[p.baseIdx].taken()
	if p.alt >= 0 {
		p.altDir = t.tables[p.alt][p.indices[p.alt]].ctr >= 0
	} else {
		p.altDir = basePred
	}
	if p.provider >= 0 {
		e := &t.tables[p.provider][p.indices[p.provider]]
		p.provWeak = e.ctr == 0 || e.ctr == -1
		provDir := e.ctr >= 0
		if p.provWeak && t.useAltOnNA >= 0 {
			p.predDir = p.altDir
		} else {
			p.predDir = provDir
		}
	} else {
		p.predDir = basePred
	}
}

// commit performs the retire-time TAGE table update.
func (t *tage) commit(pc uint64, taken bool, p *tagePred) {
	n := t.numTables()
	// Allocation on a TAGE misprediction.
	if p.predDir != taken && p.provider < n-1 {
		t.allocate(p, taken)
	}
	if p.provider >= 0 {
		e := &t.tables[p.provider][p.indices[p.provider]]
		provDir := e.ctr >= 0
		// Train useAltOnNA when the provider was weak and the two
		// predictions disagreed.
		if p.provWeak && provDir != p.altDir {
			t.useAltOnNA = signedCtr(t.useAltOnNA, p.altDir == taken, 4)
		}
		// When the provider is weak, also train the alternate.
		if p.provWeak {
			if p.alt >= 0 {
				ae := &t.tables[p.alt][p.indices[p.alt]]
				ae.ctr = signedCtr(ae.ctr, taken, 3)
			} else {
				t.base[p.baseIdx] = t.base[p.baseIdx].update(taken)
			}
		}
		e.ctr = signedCtr(e.ctr, taken, 3)
		// Usefulness: provider differed from altpred.
		if provDir != p.altDir {
			if provDir == taken {
				if e.u < 3 {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
	} else {
		t.base[p.baseIdx] = t.base[p.baseIdx].update(taken)
	}
	// Graceful usefulness aging.
	t.tick++
	if t.params.UResetPeriod > 0 && t.tick%t.params.UResetPeriod == 0 {
		shift := uint8(1)
		if (t.tick/t.params.UResetPeriod)%2 == 0 {
			shift = 2
		}
		for i := range t.tables {
			tab := t.tables[i]
			for j := range tab {
				tab[j].u &^= shift
			}
		}
	}
}

func (t *tage) allocate(p *tagePred, taken bool) {
	n := t.numTables()
	start := p.provider + 1
	// Randomize the starting point a little so allocation spreads over the
	// candidate tables (mirrors the CBP reference implementation).
	if start < n-1 && t.rng.next()&3 == 0 {
		start++
	}
	allocated := false
	for i := start; i < n; i++ {
		e := &t.tables[i][p.indices[i]]
		if e.u == 0 {
			e.tag = p.tags[i]
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			e.u = 0
			allocated = true
			break
		}
	}
	if !allocated {
		for i := start; i < n; i++ {
			e := &t.tables[i][p.indices[i]]
			if e.u > 0 {
				e.u--
			}
		}
	}
}

// tageSnap checkpoints the speculative history state.
type tageSnap struct {
	head  uint64
	path  uint64
	folds []uint32 // idxF, tagF1, tagF2, extraFolds comps, concatenated
}

func (t *tage) checkpoint() *tageSnap {
	n := t.numTables()
	var s *tageSnap
	if last := len(t.snapPool) - 1; last >= 0 {
		s = t.snapPool[last]
		t.snapPool[last] = nil
		t.snapPool = t.snapPool[:last]
		s.head, s.path = t.hist.head, t.path
	} else {
		// Cold-path pool fill: runs once per pooled snapshot, then the
		// object is recycled forever (TestTAGECheckpointPoolNoAlloc).
		//brlint:allow hot-path-alloc
		s = &tageSnap{head: t.hist.head, path: t.path,
			folds: make([]uint32, 3*n+len(t.extraFolds))} //brlint:allow hot-path-alloc
	}
	for i := 0; i < n; i++ {
		s.folds[3*i] = t.idxF[i].comp
		s.folds[3*i+1] = t.tagF1[i].comp
		s.folds[3*i+2] = t.tagF2[i].comp
	}
	for i := range t.extraFolds {
		s.folds[3*n+i] = t.extraFolds[i].comp
	}
	return s
}

func (t *tage) restore(s *tageSnap) {
	// The circular buffer has enough slack that bits at positions older
	// than s.head are still intact; restoring head rewinds the history.
	t.hist.head = s.head
	t.path = s.path
	n := t.numTables()
	for i := 0; i < n; i++ {
		t.idxF[i].comp = s.folds[3*i]
		t.tagF1[i].comp = s.folds[3*i+1]
		t.tagF2[i].comp = s.folds[3*i+2]
	}
	for i := range t.extraFolds {
		t.extraFolds[i].comp = s.folds[3*n+i]
	}
}

// release returns a checkpoint to the pool for reuse by checkpoint().
func (t *tage) release(s *tageSnap) {
	if s == nil {
		return
	}
	// Pool growth is bounded by the in-flight branch count and amortizes
	// to zero (TestTAGECheckpointPoolNoAlloc).
	t.snapPool = append(t.snapPool, s) //brlint:allow hot-path-alloc
}

// onFetch pushes one speculative history bit.
func (t *tage) onFetch(pc uint64, dir bool) {
	var b uint32
	if dir {
		b = 1
	}
	t.hist.push(b)
	for i := range t.idxF {
		t.idxF[i].push(b, t.hist.bitAgo(t.idxF[i].origLen))
		t.tagF1[i].push(b, t.hist.bitAgo(t.tagF1[i].origLen))
		t.tagF2[i].push(b, t.hist.bitAgo(t.tagF2[i].origLen))
	}
	for i := range t.extraFolds {
		t.extraFolds[i].push(b, t.hist.bitAgo(t.extraFolds[i].origLen))
	}
	t.path = (t.path << 1) ^ (pc & 0xffff)
	t.path &= 0xffff
}

func (t *tage) storageBits() int {
	bits := 2 * len(t.base)
	for i := range t.tables {
		entry := int(t.params.TagBits[i]) + 3 + 2
		bits += entry * len(t.tables[i])
	}
	return bits
}

func min(a, b uint) uint {
	if a < b {
		return a
	}
	return b
}

// GeometricHists returns n history lengths growing geometrically from lo to
// hi inclusive.
func GeometricHists(n int, lo, hi float64) []uint32 {
	hs := make([]uint32, n)
	for i := 0; i < n; i++ {
		var f float64
		if n == 1 {
			f = lo
		} else {
			f = lo * powf(hi/lo, float64(i)/float64(n-1))
		}
		h := uint32(f + 0.5)
		if i > 0 && h <= hs[i-1] {
			h = hs[i-1] + 1
		}
		hs[i] = h
	}
	return hs
}

// copyFrom copies w's tables, folded registers, history, usefulness clock
// and allocation RNG into t. The folds' geometry is construction-derived,
// so only their compressed values move.
func (t *tage) copyFrom(w *tage) {
	copy(t.base, w.base)
	for i := range t.tables {
		copy(t.tables[i], w.tables[i])
	}
	copyFoldComps(t.idxF, w.idxF)
	copyFoldComps(t.tagF1, w.tagF1)
	copyFoldComps(t.tagF2, w.tagF2)
	copyFoldComps(t.extraFolds, w.extraFolds)
	copy(t.hist.buf, w.hist.buf)
	t.hist.head = w.hist.head
	t.path = w.path
	t.useAltOnNA = w.useAltOnNA
	t.tick = w.tick
	t.rng = w.rng
}

func copyFoldComps(dst, src []folded) {
	for i := range dst {
		dst[i].comp = src[i].comp
	}
}
