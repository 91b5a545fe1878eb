package bpred

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/program"
)

// LDBP implements Load Driven Branch Prediction (Sheikh & Hower, "Efficient
// Load Value Prediction Using Value Speculation and Branch Prediction"
// lineage; arXiv 2009.09064): many hard branches compare a
// strided-load value against a constant, so predicting the *load value*
// predicts the branch. LDBP watches the retired stream to associate each
// branch with its feeding load and compare recipe (a small provenance
// walk over a Register Transfer Table), tracks per-load strides in a
// Load Value Table, and at fetch extrapolates the next load value —
// stride times the number of in-flight instances ahead — to compute the
// branch outcome directly. A confident computed outcome overrides the
// TAGE-SC-L base prediction; everything else falls through.
//
// This is the closest competing-predictor relative of Branch Runahead:
// both execute the branch's dependence ahead of fetch, but LDBP only
// covers single-load, constant-stride, compare-immediate chains, while
// runahead executes arbitrary extracted chains.
//
// All LDBP-specific state (RTT, BTT, LVT) is retire-updated, so the
// predictor needs no speculative overlay of its own: checkpoint/restore
// delegate to the base predictor unchanged. Warmup sharing is safe
// because the predictor kind partitions the warmup key — an LDBP run
// never forks from another predictor's warm machine.
type LDBP struct {
	cfg  LDBPConfig
	base *TAGESCL
	prog *program.Program

	// rtt tracks, per architectural register, which load most recently
	// produced its value (through copies). It is the provenance walk of
	// the paper's Register Transfer Table, evaluated at retire.
	rtt [isa.NumRegs]rttEntry
	// flagsRecipe is the provenance of the condition codes: the feeding
	// load plus the immediate-compare recipe that produced them.
	flagsRecipe flagsProv
	btt         []bttEntry
	lvt         []lvtEntry

	// infoPool recycles per-prediction state; free lists are never part
	// of the architectural state.
	infoPool []*ldbpInfo //brlint:allow snapshot-coverage
}

// LDBPConfig sizes the LDBP tables and confidence thresholds.
type LDBPConfig struct {
	LogBTT uint // 2^n Branch Trigger Table entries (branch -> load+compare)
	LogLVT uint // 2^n Load Value Table entries (load -> last value+stride)

	ConfMax    int8 // branch confidence saturation
	ConfThresh int8 // minimum branch confidence to override the base

	StrideConfMax    int8 // stride confidence saturation
	StrideConfThresh int8 // minimum stride confidence to compute an outcome
}

// DefaultLDBPConfig returns the paper-scale configuration: 1K-entry
// trigger and value tables with conservative override thresholds.
func DefaultLDBPConfig() LDBPConfig {
	return LDBPConfig{
		LogBTT:           10,
		LogLVT:           10,
		ConfMax:          15,
		ConfThresh:       12,
		StrideConfMax:    7,
		StrideConfThresh: 3,
	}
}

// Validate checks the table geometry and the confidence ladders.
func (c LDBPConfig) Validate() error {
	if c.LogBTT < 1 || c.LogBTT > 20 {
		return fmt.Errorf("ldbp: log BTT entries %d out of range [1,20]", c.LogBTT)
	}
	if c.LogLVT < 1 || c.LogLVT > 20 {
		return fmt.Errorf("ldbp: log LVT entries %d out of range [1,20]", c.LogLVT)
	}
	if c.ConfMax < 1 || c.ConfThresh < 1 || c.ConfThresh > c.ConfMax {
		return fmt.Errorf("ldbp: branch confidence thresh %d / max %d invalid", c.ConfThresh, c.ConfMax)
	}
	if c.StrideConfMax < 1 || c.StrideConfThresh < 1 || c.StrideConfThresh > c.StrideConfMax {
		return fmt.Errorf("ldbp: stride confidence thresh %d / max %d invalid", c.StrideConfThresh, c.StrideConfMax)
	}
	return nil
}

type rttEntry struct {
	loadPC uint64
	valid  bool
}

type flagsProv struct {
	loadPC uint64
	op     isa.Op // OpCmp or OpTest (immediate form)
	imm    int64
	valid  bool
}

// bttEntry binds a branch to its feeding load and compare recipe.
type bttEntry struct {
	pc       uint64
	loadPC   uint64
	op       isa.Op
	imm      int64
	cond     isa.Cond
	conf     int8
	inflight int32 // predictions issued and not yet released
	valid    bool
}

// lvtEntry tracks one load's last retired value and its stride.
type lvtEntry struct {
	pc      uint64
	lastVal uint64
	stride  uint64 // two's-complement delta between consecutive values
	conf    int8
	valid   bool
}

// ldbpInfo is the pooled prediction-time state wrapping the base
// predictor's info.
type ldbpInfo struct {
	baseInfo Info
	basePred bool
	// Shadow outcome: computed whenever the recipe and stride were
	// confident enough to evaluate, even if confidence did not clear the
	// override bar. Commit trains branch confidence against it.
	shadowValid bool
	shadowDir   bool
	overrode    bool
	// bttIdx/bttPC locate the in-flight count to release (-1 when none);
	// the PC guards against the entry being reallocated mid-flight.
	bttIdx int32
	bttPC  uint64
}

// NewLDBP wraps base with load-driven branch prediction for prog.
func NewLDBP(cfg LDBPConfig, base *TAGESCL, prog *program.Program) *LDBP {
	if err := cfg.Validate(); err != nil {
		panic("bpred: " + err.Error())
	}
	return &LDBP{
		cfg:  cfg,
		base: base,
		prog: prog,
		btt:  make([]bttEntry, 1<<cfg.LogBTT),
		lvt:  make([]lvtEntry, 1<<cfg.LogLVT),
	}
}

// Name implements Predictor.
func (l *LDBP) Name() string { return "ldbp+" + l.base.Name() }

// evalCmpImm computes the branch outcome for a compare-immediate recipe
// applied to an estimated load value, using the exact architectural
// flag semantics.
func evalCmpImm(op isa.Op, val uint64, imm int64, cond isa.Cond) bool {
	var f isa.Flags
	if op == isa.OpTest {
		f = isa.TestFlags(val, uint64(imm))
	} else {
		f = isa.CompareFlags(val, uint64(imm))
	}
	return cond.Eval(f)
}

// Predict implements Predictor: the base predicts first; a confident
// load-computed outcome overrides it.
func (l *LDBP) Predict(pc uint64) (bool, Info) {
	basePred, baseInfo := l.base.Predict(pc)
	var info *ldbpInfo
	if n := len(l.infoPool); n > 0 {
		info = l.infoPool[n-1]
		l.infoPool = l.infoPool[:n-1]
	} else {
		// Cold-path pool fill: runs once per pooled info, then the object
		// is recycled forever.
		info = &ldbpInfo{} //brlint:allow hot-path-alloc
	}
	info.baseInfo = baseInfo
	info.basePred = basePred
	info.shadowValid = false
	info.overrode = false
	info.bttIdx = -1

	pred := basePred
	bi := pc & uint64(len(l.btt)-1)
	e := &l.btt[bi]
	if e.valid && e.pc == pc {
		lv := &l.lvt[e.loadPC&uint64(len(l.lvt)-1)]
		if lv.valid && lv.pc == e.loadPC && lv.conf >= l.cfg.StrideConfThresh {
			// Extrapolate past the in-flight instances of this branch:
			// each older unretired instance consumes one stride step.
			est := lv.lastVal + lv.stride*uint64(e.inflight+1)
			dir := evalCmpImm(e.op, est, e.imm, e.cond)
			info.shadowValid = true
			info.shadowDir = dir
			info.bttIdx = int32(bi)
			info.bttPC = pc
			e.inflight++
			if e.conf >= l.cfg.ConfThresh {
				pred = dir
				info.overrode = true
			}
		}
	}
	return pred, info
}

// OnFetch implements Predictor.
func (l *LDBP) OnFetch(pc uint64, dir bool) { l.base.OnFetch(pc, dir) }

// Checkpoint implements Predictor: LDBP keeps no speculative state of
// its own, so checkpoints are the base predictor's.
func (l *LDBP) Checkpoint() Snapshot { return l.base.Checkpoint() }

// Restore implements Predictor.
func (l *LDBP) Restore(s Snapshot) { l.base.Restore(s) }

// Release implements Predictor.
func (l *LDBP) Release(s Snapshot) { l.base.Release(s) }

// Commit implements Predictor: the base trains on its own prediction,
// and the branch's override confidence trains against the shadow
// outcome (computed at fetch whether or not it was used).
func (l *LDBP) Commit(pc uint64, taken, _ bool, info Info) {
	in := info.(*ldbpInfo)
	l.base.Commit(pc, taken, in.basePred, in.baseInfo)
	if !in.shadowValid {
		return
	}
	e := &l.btt[pc&uint64(len(l.btt)-1)]
	if !e.valid || e.pc != pc {
		return
	}
	if in.shadowDir == taken {
		if e.conf < l.cfg.ConfMax {
			e.conf++
		}
	} else {
		// A wrong computed outcome means the stride or recipe broke;
		// demand a fresh confidence run before overriding again.
		e.conf = 0
	}
}

// ReleaseInfo implements Predictor.
func (l *LDBP) ReleaseInfo(info Info) {
	in, ok := info.(*ldbpInfo)
	if !ok || in == nil {
		return
	}
	l.base.ReleaseInfo(in.baseInfo)
	in.baseInfo = nil
	if in.bttIdx >= 0 {
		// The PC guard drops the decrement if the entry was reallocated
		// to another branch mid-flight (its count restarted at zero).
		if e := &l.btt[in.bttIdx]; e.valid && e.pc == in.bttPC && e.inflight > 0 {
			e.inflight--
		}
	}
	// Pool growth is bounded by the in-flight branch count and amortizes
	// to zero.
	l.infoPool = append(l.infoPool, in) //brlint:allow hot-path-alloc
}

// ObserveRetire implements RetireObserver: the retired stream drives the
// RTT provenance walk, the stride tracker and trigger-table binding.
func (l *LDBP) ObserveRetire(pc uint64, value uint64) {
	u := l.prog.At(pc)
	switch u.Op {
	case isa.OpLd:
		l.rtt[u.Dst] = rttEntry{loadPC: pc, valid: true}
		l.trainLVT(pc, value)
	case isa.OpMov:
		l.rtt[u.Dst] = l.rtt[u.Src1]
	case isa.OpCmp, isa.OpTest:
		if u.UseImm {
			src := l.rtt[u.Src1]
			l.flagsRecipe = flagsProv{loadPC: src.loadPC, op: u.Op, imm: u.Imm, valid: src.valid}
		} else {
			// Register-register compares need two value predictions;
			// LDBP does not cover them.
			l.flagsRecipe.valid = false
		}
	case isa.OpBr:
		if l.flagsRecipe.valid {
			l.trainBTT(pc, u.Cond)
		}
	default:
		// Any other producer breaks direct load provenance (arithmetic
		// on a loaded value is outside LDBP's single-load recipe).
		if u.HasDst() {
			l.rtt[u.Dst].valid = false
		}
	}
}

func (l *LDBP) trainLVT(pc uint64, value uint64) {
	e := &l.lvt[pc&uint64(len(l.lvt)-1)]
	if !e.valid || e.pc != pc {
		*e = lvtEntry{pc: pc, lastVal: value, valid: true}
		return
	}
	stride := value - e.lastVal
	if stride == e.stride {
		if e.conf < l.cfg.StrideConfMax {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
	}
	e.lastVal = value
}

func (l *LDBP) trainBTT(pc uint64, cond isa.Cond) {
	r := &l.flagsRecipe
	e := &l.btt[pc&uint64(len(l.btt)-1)]
	if e.valid && e.pc == pc && e.loadPC == r.loadPC &&
		e.op == r.op && e.imm == r.imm && e.cond == cond {
		return // recipe confirmed; confidence trains in Commit
	}
	*e = bttEntry{pc: pc, loadPC: r.loadPC, op: r.op, imm: r.imm, cond: cond, valid: true}
}

// StorageBits implements Predictor: the base plus hardware-field-width
// accounting of the RTT (load PC + valid per register), the BTT (tag,
// load PC, recipe, confidence) and the LVT (tag, value, stride,
// confidence).
func (l *LDBP) StorageBits() int {
	bits := l.base.StorageBits()
	bits += len(l.rtt) * (32 + 1)
	bits += len(l.btt) * (32 + 32 + 1 + 32 + 3 + 4 + 6 + 1)
	bits += len(l.lvt) * (32 + 64 + 64 + 3 + 1)
	return bits
}

// CopyFrom copies w's provenance and table state, then its base
// predictor, into l. A drained warm LDBP has released every prediction, so
// each BTT entry's inflight count it copies is zero.
func (l *LDBP) CopyFrom(w *LDBP) {
	l.rtt = w.rtt
	l.flagsRecipe = w.flagsRecipe
	copy(l.btt, w.btt)
	copy(l.lvt, w.lvt)
	l.base.CopyFrom(w.base)
}
