package bpred

import "fmt"

// Perceptron is the classical global-history perceptron predictor
// (Jiménez & Lin, HPCA 2001): a PC-indexed table of signed weight vectors
// dotted against the global history register. It is one of the classical
// baselines of the competing-predictor comparison — perceptrons capture
// linearly separable correlations over long histories, exactly the
// regime TAGE also covers, and fail on the data-dependent branches the
// paper targets.
type Perceptron struct {
	cfg PerceptronConfig
	// weights is flattened: entry e occupies the (HistLen+1)-wide row
	// starting at e*(HistLen+1); slot 0 is the bias weight.
	weights []int8
	mask    uint64
	theta   int32
	hist    uint64 // speculative global history, bit 0 = most recent

	// infoPool/snapPool recycle per-prediction state; free lists are
	// never part of the architectural state.
	infoPool []*percInfo //brlint:allow snapshot-coverage
	snapPool []*percSnap //brlint:allow snapshot-coverage
}

// PerceptronConfig sizes the perceptron predictor.
type PerceptronConfig struct {
	LogEntries uint // 2^LogEntries weight vectors
	HistLen    uint // global history bits (one weight each, plus a bias)
}

// DefaultPerceptronConfig returns the classical ~64KB configuration: 2048
// perceptrons of 31 history weights plus a bias (2048 * 32 bytes).
func DefaultPerceptronConfig() PerceptronConfig {
	return PerceptronConfig{LogEntries: 11, HistLen: 31}
}

// Validate checks the table geometry: the history must fit the 64-bit
// history register and the flattened weight table must stay addressable.
func (c PerceptronConfig) Validate() error {
	if c.LogEntries < 1 || c.LogEntries > 24 {
		return fmt.Errorf("perceptron: log entries %d out of range [1,24]", c.LogEntries)
	}
	if c.HistLen < 1 || c.HistLen > 63 {
		return fmt.Errorf("perceptron: history length %d out of range [1,63]", c.HistLen)
	}
	return nil
}

// percInfo is the pooled prediction-time state: the dot-product sum and
// the history the prediction was made with (training uses both).
type percInfo struct {
	sum  int32
	hist uint64
}

// percSnap is a pooled speculative-history checkpoint.
type percSnap struct{ hist uint64 }

// NewPerceptron returns a perceptron predictor for cfg.
func NewPerceptron(cfg PerceptronConfig) *Perceptron {
	if err := cfg.Validate(); err != nil {
		panic("bpred: " + err.Error())
	}
	n := 1 << cfg.LogEntries
	return &Perceptron{
		cfg:     cfg,
		weights: make([]int8, n*int(cfg.HistLen+1)),
		mask:    uint64(n - 1),
		// The classical training threshold: theta = 1.93*h + 14.
		theta: int32(1.93*float64(cfg.HistLen)) + 14,
	}
}

// Name implements Predictor.
func (p *Perceptron) Name() string { return "perceptron" }

func (p *Perceptron) row(pc uint64) []int8 {
	w := int(p.cfg.HistLen + 1)
	i := int(pc&p.mask) * w
	return p.weights[i : i+w]
}

// Predict implements Predictor.
func (p *Perceptron) Predict(pc uint64) (bool, Info) {
	var info *percInfo
	if n := len(p.infoPool); n > 0 {
		info = p.infoPool[n-1]
		p.infoPool = p.infoPool[:n-1]
	} else {
		// Cold-path pool fill: runs once per pooled info, then the object
		// is recycled forever.
		info = &percInfo{} //brlint:allow hot-path-alloc
	}
	w := p.row(pc)
	sum := int32(w[0])
	for i := uint(0); i < p.cfg.HistLen; i++ {
		if p.hist&(1<<i) != 0 {
			sum += int32(w[i+1])
		} else {
			sum -= int32(w[i+1])
		}
	}
	info.sum = sum
	info.hist = p.hist
	return sum >= 0, info
}

// OnFetch implements Predictor.
func (p *Perceptron) OnFetch(_ uint64, dir bool) {
	p.hist <<= 1
	if dir {
		p.hist |= 1
	}
	p.hist &= (1 << p.cfg.HistLen) - 1
}

// Checkpoint implements Predictor.
func (p *Perceptron) Checkpoint() Snapshot {
	var s *percSnap
	if n := len(p.snapPool); n > 0 {
		s = p.snapPool[n-1]
		p.snapPool = p.snapPool[:n-1]
	} else {
		// Cold-path pool fill, recycled forever after.
		s = &percSnap{} //brlint:allow hot-path-alloc
	}
	s.hist = p.hist
	return s
}

// Restore implements Predictor.
func (p *Perceptron) Restore(s Snapshot) { p.hist = s.(*percSnap).hist }

// Release implements Predictor.
func (p *Perceptron) Release(s Snapshot) {
	if sn, ok := s.(*percSnap); ok && sn != nil {
		// Pool growth is bounded by the in-flight branch count and
		// amortizes to zero.
		p.snapPool = append(p.snapPool, sn) //brlint:allow hot-path-alloc
	}
}

// Commit implements Predictor: the classical rule trains on a wrong
// output or a weakly confident correct one, moving each weight toward
// agreement with the resolved direction.
func (p *Perceptron) Commit(pc uint64, taken, _ bool, info Info) {
	in := info.(*percInfo)
	out := in.sum >= 0
	if out == taken && abs32(in.sum) > p.theta {
		return
	}
	w := p.row(pc)
	w[0] = signedCtr(w[0], taken, 8)
	for i := uint(0); i < p.cfg.HistLen; i++ {
		agree := (in.hist&(1<<i) != 0) == taken
		w[i+1] = signedCtr(w[i+1], agree, 8)
	}
}

// ReleaseInfo implements Predictor.
func (p *Perceptron) ReleaseInfo(info Info) {
	if in, ok := info.(*percInfo); ok && in != nil {
		// Pool growth is bounded by the in-flight branch count and
		// amortizes to zero.
		p.infoPool = append(p.infoPool, in) //brlint:allow hot-path-alloc
	}
}

// StorageBits implements Predictor.
func (p *Perceptron) StorageBits() int {
	return 8*len(p.weights) + int(p.cfg.HistLen)
}

// CopyFrom copies w's weights and history into p.
func (p *Perceptron) CopyFrom(w *Perceptron) {
	copy(p.weights, w.weights)
	p.hist = w.hist
}
