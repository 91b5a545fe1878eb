package bpred

import "fmt"

// Bullseye (arXiv 2506.06773) concentrates extra prediction capacity on
// the few hard-to-predict (H2P) branches instead of spreading it across
// all of them: a misprediction-counting filter identifies H2P branches,
// and only those consult a dual perceptron — one over a long global
// history, one over the branch's own local history — that overrides the
// TAGE-SC-L base when its output is confident. The paper's insight is
// that H2P branches are rare and stable, so a small targeted structure
// beats enlarging the base predictor.
//
// The global perceptron dots against Bullseye's own speculative history
// register, which therefore needs checkpoint/restore treatment alongside
// the base predictor's; snapshots are pooled composites. The filter,
// weights and local histories are retire-updated.
type Bullseye struct {
	cfg  BullseyeConfig
	base *TAGESCL

	filter []uint8 // per-branch misprediction counters (H2P when saturated past the threshold)
	// gw is flattened: entry e occupies the (GHistLen+1)-wide row
	// starting at e*(GHistLen+1); slot 0 is the bias weight.
	gw []int8
	// lw is flattened likewise over LHistLen local-history weights
	// (bias lives in gw).
	lw        []int8
	localHist []uint16 // per-branch history patterns, retire-updated
	hist      uint64   // own speculative global history

	// infoPool/snapPool recycle per-prediction state; free lists are
	// never part of the architectural state.
	infoPool []*bullInfo //brlint:allow snapshot-coverage
	snapPool []*bullSnap //brlint:allow snapshot-coverage
}

// BullseyeConfig sizes the H2P filter and the dual perceptron.
type BullseyeConfig struct {
	LogFilter    uint  // 2^n misprediction counters
	FilterThresh uint8 // misprediction count classifying a branch as H2P
	LogPercep    uint  // 2^n dual-perceptron rows
	GHistLen     uint  // global history weights per row
	LHistLen     uint  // local history weights per row
	LogLocalHist uint  // 2^n local history entries
	Theta        int32 // override/training confidence threshold
}

// DefaultBullseyeConfig returns a configuration in the paper's spirit:
// a 4K-branch filter and 1K dual-perceptron rows over 24 global and 10
// local history bits, with the classical theta for the combined length.
func DefaultBullseyeConfig() BullseyeConfig {
	return BullseyeConfig{
		LogFilter:    12,
		FilterThresh: 4,
		LogPercep:    10,
		GHistLen:     24,
		LHistLen:     10,
		LogLocalHist: 10,
		// theta = floor(1.93*(G+L)) + 14 for the combined history length.
		Theta: 193*(24+10)/100 + 14,
	}
}

// Validate checks the geometry: histories must fit their registers and
// the filter threshold must be reachable by a uint8 counter.
func (c BullseyeConfig) Validate() error {
	if c.LogFilter < 1 || c.LogFilter > 24 {
		return fmt.Errorf("bullseye: log filter entries %d out of range [1,24]", c.LogFilter)
	}
	if c.FilterThresh < 1 {
		return fmt.Errorf("bullseye: filter threshold must be >= 1")
	}
	if c.LogPercep < 1 || c.LogPercep > 20 {
		return fmt.Errorf("bullseye: log perceptron entries %d out of range [1,20]", c.LogPercep)
	}
	if c.GHistLen < 1 || c.GHistLen > 63 {
		return fmt.Errorf("bullseye: global history length %d out of range [1,63]", c.GHistLen)
	}
	if c.LHistLen < 1 || c.LHistLen > 16 {
		return fmt.Errorf("bullseye: local history length %d out of range [1,16]", c.LHistLen)
	}
	if c.LogLocalHist < 1 || c.LogLocalHist > 20 {
		return fmt.Errorf("bullseye: log local-history entries %d out of range [1,20]", c.LogLocalHist)
	}
	if c.Theta < 1 {
		return fmt.Errorf("bullseye: theta must be >= 1")
	}
	return nil
}

// bullInfo is the pooled prediction-time state wrapping the base
// predictor's info.
type bullInfo struct {
	baseInfo Info
	basePred bool
	active   bool // branch was H2P-classified and the perceptron consulted
	sum      int32
	hist     uint64 // global history the sum was computed with
	lPat     uint64 // local pattern the sum was computed with
	overrode bool
}

// bullSnap is a pooled composite checkpoint: the base predictor's
// snapshot plus Bullseye's own speculative history.
type bullSnap struct {
	baseSnap Snapshot
	hist     uint64
}

// NewBullseye wraps base with the H2P-targeted dual perceptron.
func NewBullseye(cfg BullseyeConfig, base *TAGESCL) *Bullseye {
	if err := cfg.Validate(); err != nil {
		panic("bpred: " + err.Error())
	}
	n := 1 << cfg.LogPercep
	return &Bullseye{
		cfg:       cfg,
		base:      base,
		filter:    make([]uint8, 1<<cfg.LogFilter),
		gw:        make([]int8, n*int(cfg.GHistLen+1)),
		lw:        make([]int8, n*int(cfg.LHistLen)),
		localHist: make([]uint16, 1<<cfg.LogLocalHist),
	}
}

// Name implements Predictor.
func (b *Bullseye) Name() string { return "bullseye+" + b.base.Name() }

func (b *Bullseye) gRow(pc uint64) []int8 {
	w := int(b.cfg.GHistLen + 1)
	i := int(pc&uint64((1<<b.cfg.LogPercep)-1)) * w
	return b.gw[i : i+w]
}

func (b *Bullseye) lRow(pc uint64) []int8 {
	w := int(b.cfg.LHistLen)
	i := int(pc&uint64((1<<b.cfg.LogPercep)-1)) * w
	return b.lw[i : i+w]
}

// Predict implements Predictor: the base predicts every branch; H2P
// branches additionally consult the dual perceptron, which overrides
// when its output clears theta.
func (b *Bullseye) Predict(pc uint64) (bool, Info) {
	basePred, baseInfo := b.base.Predict(pc)
	var info *bullInfo
	if n := len(b.infoPool); n > 0 {
		info = b.infoPool[n-1]
		b.infoPool = b.infoPool[:n-1]
	} else {
		// Cold-path pool fill: runs once per pooled info, then the object
		// is recycled forever.
		info = &bullInfo{} //brlint:allow hot-path-alloc
	}
	info.baseInfo = baseInfo
	info.basePred = basePred
	info.active = false
	info.overrode = false

	pred := basePred
	if b.filter[pc&uint64(len(b.filter)-1)] >= b.cfg.FilterThresh {
		gw := b.gRow(pc)
		sum := int32(gw[0])
		for i := uint(0); i < b.cfg.GHistLen; i++ {
			if b.hist&(1<<i) != 0 {
				sum += int32(gw[i+1])
			} else {
				sum -= int32(gw[i+1])
			}
		}
		lPat := uint64(b.localHist[pc&uint64(len(b.localHist)-1)])
		lw := b.lRow(pc)
		for i := uint(0); i < b.cfg.LHistLen; i++ {
			if lPat&(1<<i) != 0 {
				sum += int32(lw[i])
			} else {
				sum -= int32(lw[i])
			}
		}
		info.active = true
		info.sum = sum
		info.hist = b.hist
		info.lPat = lPat
		if abs32(sum) >= b.cfg.Theta {
			pred = sum >= 0
			info.overrode = true
		}
	}
	return pred, info
}

// OnFetch implements Predictor: both the base's history and Bullseye's
// own advance with the fetched direction.
func (b *Bullseye) OnFetch(pc uint64, dir bool) {
	b.base.OnFetch(pc, dir)
	b.hist <<= 1
	if dir {
		b.hist |= 1
	}
	b.hist &= (1 << b.cfg.GHistLen) - 1
}

// Checkpoint implements Predictor.
func (b *Bullseye) Checkpoint() Snapshot {
	var s *bullSnap
	if n := len(b.snapPool); n > 0 {
		s = b.snapPool[n-1]
		b.snapPool = b.snapPool[:n-1]
	} else {
		// Cold-path pool fill, recycled forever after.
		s = &bullSnap{} //brlint:allow hot-path-alloc
	}
	s.baseSnap = b.base.Checkpoint()
	s.hist = b.hist
	return s
}

// Restore implements Predictor.
func (b *Bullseye) Restore(s Snapshot) {
	sn := s.(*bullSnap)
	b.base.Restore(sn.baseSnap)
	b.hist = sn.hist
}

// Release implements Predictor.
func (b *Bullseye) Release(s Snapshot) {
	sn, ok := s.(*bullSnap)
	if !ok || sn == nil {
		return
	}
	b.base.Release(sn.baseSnap)
	sn.baseSnap = nil
	// Pool growth is bounded by the in-flight branch count and amortizes
	// to zero.
	b.snapPool = append(b.snapPool, sn) //brlint:allow hot-path-alloc
}

// Commit implements Predictor: the base trains on its own prediction,
// the filter counts base mispredictions, the dual perceptron trains on
// wrong or weak outputs, and the local history advances.
func (b *Bullseye) Commit(pc uint64, taken, _ bool, info Info) {
	in := info.(*bullInfo)
	b.base.Commit(pc, taken, in.basePred, in.baseInfo)

	fi := pc & uint64(len(b.filter)-1)
	if in.basePred != taken {
		if b.filter[fi] < 255 {
			b.filter[fi]++
		}
	} else if b.filter[fi] > 0 && !in.active {
		// Easy branches decay out of the filter; classified H2P branches
		// stay targeted even through correct streaks.
		b.filter[fi]--
	}

	if in.active {
		out := in.sum >= 0
		if out != taken || abs32(in.sum) <= b.cfg.Theta {
			gw := b.gRow(pc)
			gw[0] = signedCtr(gw[0], taken, 8)
			for i := uint(0); i < b.cfg.GHistLen; i++ {
				agree := (in.hist&(1<<i) != 0) == taken
				gw[i+1] = signedCtr(gw[i+1], agree, 8)
			}
			lw := b.lRow(pc)
			for i := uint(0); i < b.cfg.LHistLen; i++ {
				agree := (in.lPat&(1<<i) != 0) == taken
				lw[i] = signedCtr(lw[i], agree, 8)
			}
		}
	}

	li := pc & uint64(len(b.localHist)-1)
	pat := uint64(b.localHist[li]) << 1
	if taken {
		pat |= 1
	}
	b.localHist[li] = uint16(pat & ((1 << b.cfg.LHistLen) - 1))
}

// ReleaseInfo implements Predictor.
func (b *Bullseye) ReleaseInfo(info Info) {
	in, ok := info.(*bullInfo)
	if !ok || in == nil {
		return
	}
	b.base.ReleaseInfo(in.baseInfo)
	in.baseInfo = nil
	// Pool growth is bounded by the in-flight branch count and amortizes
	// to zero.
	b.infoPool = append(b.infoPool, in) //brlint:allow hot-path-alloc
}

// StorageBits implements Predictor.
func (b *Bullseye) StorageBits() int {
	return b.base.StorageBits() +
		8*len(b.filter) +
		8*len(b.gw) + 8*len(b.lw) +
		int(b.cfg.LHistLen)*len(b.localHist) +
		int(b.cfg.GHistLen)
}

// CopyFrom copies w's filter, weights, local histories and own history,
// then its base predictor, into b.
func (b *Bullseye) CopyFrom(w *Bullseye) {
	copy(b.filter, w.filter)
	copy(b.gw, w.gw)
	copy(b.lw, w.lw)
	copy(b.localHist, w.localHist)
	b.hist = w.hist
	b.base.CopyFrom(w.base)
}
