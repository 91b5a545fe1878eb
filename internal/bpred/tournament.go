package bpred

import "fmt"

// Tournament is an Alpha 21264-style hybrid: a two-level local predictor
// (per-branch history patterns indexing a counter table) and a global
// predictor compete, and a global-history-indexed chooser picks between
// them per prediction. It is the classical "competing predictors"
// baseline of the head-to-head comparison.
//
// Simplification, documented: the local history table is updated at
// retirement rather than speculatively (the 21264 updates and repairs it
// speculatively). Local history only diverges under multiple in-flight
// instances of the same branch, and the chooser learns around the noise;
// the global side keeps the full speculative checkpoint/restore
// treatment.
type Tournament struct {
	cfg TournamentConfig

	localHist []uint16 // per-branch history patterns, retire-updated
	localPHT  []int8   // 3-bit signed counters indexed by local pattern
	globalPHT []ctr2   // indexed by global history
	chooser   []ctr2   // indexed by global history; taken selects global
	hist      uint64   // speculative global history

	// infoPool/snapPool recycle per-prediction state; free lists are
	// never part of the architectural state.
	infoPool []*tournInfo //brlint:allow snapshot-coverage
	snapPool []*tournSnap //brlint:allow snapshot-coverage
}

// TournamentConfig sizes the tournament predictor.
type TournamentConfig struct {
	LogLocalHist   uint // 2^n local history entries
	LocalHistBits  uint // local history bits per branch (local PHT has 2^bits entries)
	LogGlobalPHT   uint // 2^n global 2-bit counters
	LogChooser     uint // 2^n chooser 2-bit counters
	GlobalHistBits uint // global history length
}

// DefaultTournamentConfig returns the Alpha 21264 geometry: 1K x 10-bit
// local histories into 1K 3-bit counters, 4K global and 4K chooser 2-bit
// counters over 12 bits of global history (~29Kbit).
func DefaultTournamentConfig() TournamentConfig {
	return TournamentConfig{
		LogLocalHist:   10,
		LocalHistBits:  10,
		LogGlobalPHT:   12,
		LogChooser:     12,
		GlobalHistBits: 12,
	}
}

// Validate checks the table geometry: local patterns must fit their
// 16-bit storage and the global history must cover both PHT indices.
func (c TournamentConfig) Validate() error {
	if c.LogLocalHist < 1 || c.LogLocalHist > 20 {
		return fmt.Errorf("tournament: log local-history entries %d out of range [1,20]", c.LogLocalHist)
	}
	if c.LocalHistBits < 1 || c.LocalHistBits > 16 {
		return fmt.Errorf("tournament: local history bits %d out of range [1,16]", c.LocalHistBits)
	}
	if c.LogGlobalPHT < 1 || c.LogGlobalPHT > 24 {
		return fmt.Errorf("tournament: log global-PHT entries %d out of range [1,24]", c.LogGlobalPHT)
	}
	if c.LogChooser < 1 || c.LogChooser > 24 {
		return fmt.Errorf("tournament: log chooser entries %d out of range [1,24]", c.LogChooser)
	}
	if c.GlobalHistBits < c.LogGlobalPHT || c.GlobalHistBits < c.LogChooser || c.GlobalHistBits > 63 {
		return fmt.Errorf("tournament: global history %d bits must cover the PHT and chooser indices and fit a register",
			c.GlobalHistBits)
	}
	return nil
}

// tournInfo is the pooled prediction-time state: the indices consulted
// and both component predictions, for retire-time training.
type tournInfo struct {
	lIdx, lPat, gIdx, cIdx uint64
	lPred, gPred           bool
}

// tournSnap is a pooled speculative-history checkpoint.
type tournSnap struct{ hist uint64 }

// NewTournament returns a tournament predictor for cfg.
func NewTournament(cfg TournamentConfig) *Tournament {
	if err := cfg.Validate(); err != nil {
		panic("bpred: " + err.Error())
	}
	t := &Tournament{
		cfg:       cfg,
		localHist: make([]uint16, 1<<cfg.LogLocalHist),
		localPHT:  make([]int8, 1<<cfg.LocalHistBits),
		globalPHT: make([]ctr2, 1<<cfg.LogGlobalPHT),
		chooser:   make([]ctr2, 1<<cfg.LogChooser),
	}
	for i := range t.globalPHT {
		t.globalPHT[i] = 2 // weakly taken
	}
	for i := range t.chooser {
		t.chooser[i] = 2 // weakly global
	}
	return t
}

// Name implements Predictor.
func (t *Tournament) Name() string { return "tournament" }

// Predict implements Predictor.
func (t *Tournament) Predict(pc uint64) (bool, Info) {
	var info *tournInfo
	if n := len(t.infoPool); n > 0 {
		info = t.infoPool[n-1]
		t.infoPool = t.infoPool[:n-1]
	} else {
		// Cold-path pool fill: runs once per pooled info, then the object
		// is recycled forever.
		info = &tournInfo{} //brlint:allow hot-path-alloc
	}
	info.lIdx = pc & uint64(len(t.localHist)-1)
	info.lPat = uint64(t.localHist[info.lIdx])
	info.lPred = t.localPHT[info.lPat] >= 0
	info.gIdx = t.hist & uint64(len(t.globalPHT)-1)
	info.gPred = t.globalPHT[info.gIdx].taken()
	info.cIdx = t.hist & uint64(len(t.chooser)-1)
	if t.chooser[info.cIdx].taken() {
		return info.gPred, info
	}
	return info.lPred, info
}

// OnFetch implements Predictor.
func (t *Tournament) OnFetch(_ uint64, dir bool) {
	t.hist <<= 1
	if dir {
		t.hist |= 1
	}
	t.hist &= (1 << t.cfg.GlobalHistBits) - 1
}

// Checkpoint implements Predictor.
func (t *Tournament) Checkpoint() Snapshot {
	var s *tournSnap
	if n := len(t.snapPool); n > 0 {
		s = t.snapPool[n-1]
		t.snapPool = t.snapPool[:n-1]
	} else {
		// Cold-path pool fill, recycled forever after.
		s = &tournSnap{} //brlint:allow hot-path-alloc
	}
	s.hist = t.hist
	return s
}

// Restore implements Predictor.
func (t *Tournament) Restore(s Snapshot) { t.hist = s.(*tournSnap).hist }

// Release implements Predictor.
func (t *Tournament) Release(s Snapshot) {
	if sn, ok := s.(*tournSnap); ok && sn != nil {
		// Pool growth is bounded by the in-flight branch count and
		// amortizes to zero.
		t.snapPool = append(t.snapPool, sn) //brlint:allow hot-path-alloc
	}
}

// Commit implements Predictor: both components train on the outcome, the
// chooser trains only when they disagreed (toward whichever was right),
// and the branch's local history pattern advances.
func (t *Tournament) Commit(_ uint64, taken, _ bool, info Info) {
	in := info.(*tournInfo)
	if in.lPred != in.gPred {
		t.chooser[in.cIdx] = t.chooser[in.cIdx].update(in.gPred == taken)
	}
	t.localPHT[in.lPat] = signedCtr(t.localPHT[in.lPat], taken, 3)
	t.globalPHT[in.gIdx] = t.globalPHT[in.gIdx].update(taken)
	pat := in.lPat << 1
	if taken {
		pat |= 1
	}
	t.localHist[in.lIdx] = uint16(pat & ((1 << t.cfg.LocalHistBits) - 1))
}

// ReleaseInfo implements Predictor.
func (t *Tournament) ReleaseInfo(info Info) {
	if in, ok := info.(*tournInfo); ok && in != nil {
		// Pool growth is bounded by the in-flight branch count and
		// amortizes to zero.
		t.infoPool = append(t.infoPool, in) //brlint:allow hot-path-alloc
	}
}

// StorageBits implements Predictor.
func (t *Tournament) StorageBits() int {
	return int(t.cfg.LocalHistBits)*len(t.localHist) +
		3*len(t.localPHT) +
		2*len(t.globalPHT) +
		2*len(t.chooser) +
		int(t.cfg.GlobalHistBits)
}

// CopyFrom copies w's local, global and chooser tables and history into t.
func (t *Tournament) CopyFrom(w *Tournament) {
	copy(t.localHist, w.localHist)
	copy(t.localPHT, w.localPHT)
	copy(t.globalPHT, w.globalPHT)
	copy(t.chooser, w.chooser)
	t.hist = w.hist
}
