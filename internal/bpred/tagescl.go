package bpred

// TAGESCL composes the TAGE core with a loop predictor and a GEHL-style
// statistical corrector, mirroring the structure of Seznec's TAGE-SC-L.
// Three stock configurations reproduce the paper's predictors:
//
//	NewTAGESCL64() — the 64KB-class baseline (CBP-2016 limited category)
//	NewTAGESCL80() — the 80KB-class iso-storage comparison (Figure 10)
//	NewMTAGE()     — the effectively unlimited MTAGE-SC (CBP-2016 unlimited)
type TAGESCL struct {
	name string
	t    *tage
	loop *loopPredictor

	// Statistical corrector: a bias table plus GEHL tables over several
	// global history lengths. Each GEHL fold lives in t.extraFolds so it
	// is checkpointed with the TAGE history.
	scBias    []int8
	scTables  [][]int8
	scLens    []uint32
	scThresh  int32
	scLogSize uint

	// infoPool recycles sclInfo objects (and the tagePred plus index
	// slices inside them) between Predict and ReleaseInfo: Predict runs
	// once per fetched conditional branch, the hottest predictor path.
	// A free list is never part of the architectural state.
	infoPool []*sclInfo //brlint:allow snapshot-coverage
}

// sclInfo is the prediction-time state handed back at Commit.
type sclInfo struct {
	tp        *tagePred
	loopDir   bool
	loopConf  bool
	scSum     int32
	scIdx     []uint32
	scBiasIdx uint32
	final     bool
}

// NewTAGESCL builds a TAGE-SC-L from explicit TAGE parameters.
func NewTAGESCL(name string, p TageParams, scLogSize uint, scLens []uint32) *TAGESCL {
	s := &TAGESCL{
		name:      name,
		t:         newTage(p),
		loop:      newLoopPredictor(6),
		scLens:    scLens,
		scThresh:  6,
		scLogSize: scLogSize,
	}
	s.scBias = make([]int8, 1<<(scLogSize+1))
	s.scTables = make([][]int8, len(scLens))
	for i := range scLens {
		s.scTables[i] = make([]int8, 1<<scLogSize)
		s.t.extraFolds = append(s.t.extraFolds, newFolded(scLens[i], uint32(scLogSize)))
	}
	return s
}

// NewTAGESCL64 returns the 64KB-class TAGE-SC-L baseline.
func NewTAGESCL64() *TAGESCL {
	n := 12
	logEnt := make([]uint, n)
	tagBits := make([]uint, n)
	for i := 0; i < n; i++ {
		if i < 6 {
			logEnt[i] = 11
		} else {
			logEnt[i] = 10
		}
		tagBits[i] = uint(8 + i/2)
	}
	p := TageParams{
		LogBase:      14,
		LogEntries:   logEnt,
		TagBits:      tagBits,
		Hists:        GeometricHists(n, 4, 640),
		UResetPeriod: 1 << 19,
	}
	return NewTAGESCL("tage-sc-l-64kb", p, 11, []uint32{8, 16, 32, 64})
}

// NewTAGESCL80 returns the 80KB-class TAGE-SC-L used by Figure 10 as an
// iso-storage alternative to Mini Branch Runahead.
func NewTAGESCL80() *TAGESCL {
	n := 12
	logEnt := make([]uint, n)
	tagBits := make([]uint, n)
	for i := 0; i < n; i++ {
		if i < 8 {
			logEnt[i] = 11
		} else {
			logEnt[i] = 10
		}
		tagBits[i] = uint(9 + i/2)
	}
	p := TageParams{
		LogBase:      15,
		LogEntries:   logEnt,
		TagBits:      tagBits,
		Hists:        GeometricHists(n, 4, 1000),
		UResetPeriod: 1 << 19,
	}
	return NewTAGESCL("tage-sc-l-80kb", p, 12, []uint32{8, 16, 32, 64})
}

// NewMTAGE returns the unlimited-storage MTAGE-SC stand-in: many large
// tagged tables with very long histories. It demonstrates the paper's
// Figure 1/11 point — unlimited history capacity still cannot predict
// data-dependent branches.
func NewMTAGE() *TAGESCL {
	n := 20
	logEnt := make([]uint, n)
	tagBits := make([]uint, n)
	for i := 0; i < n; i++ {
		logEnt[i] = 16
		tagBits[i] = 15
	}
	p := TageParams{
		LogBase:      20,
		LogEntries:   logEnt,
		TagBits:      tagBits,
		Hists:        GeometricHists(n, 4, 3000),
		UResetPeriod: 1 << 20,
	}
	return NewTAGESCL("mtage-sc-unlimited", p, 16, []uint32{8, 16, 32, 64, 128, 256})
}

// Name implements Predictor.
func (s *TAGESCL) Name() string { return s.name }

func (s *TAGESCL) scIndex(i int, pc uint64) uint32 {
	f := s.t.extraFolds[i].comp
	return (uint32(pc) ^ uint32(pc>>s.scLogSize) ^ f) & ((1 << s.scLogSize) - 1)
}

// Predict implements Predictor.
func (s *TAGESCL) Predict(pc uint64) (bool, Info) {
	var info *sclInfo
	if n := len(s.infoPool); n > 0 {
		info = s.infoPool[n-1]
		s.infoPool = s.infoPool[:n-1]
	} else {
		// Cold-path pool fill: runs once per pooled info, then the object
		// is recycled forever (TestTAGESCLInfoPoolNoAlloc).
		//brlint:allow hot-path-alloc
		info = &sclInfo{tp: new(tagePred)}
	}
	s.t.predictInto(info.tp, pc)
	pred := info.tp.predDir

	// Loop predictor override.
	info.loopDir, info.loopConf = s.loop.predict(pc)
	if info.loopConf {
		pred = info.loopDir
	}

	// Statistical corrector.
	var sum int32
	info.scBiasIdx = uint32(pc<<1) & uint32(len(s.scBias)-1)
	if pred {
		info.scBiasIdx |= 1
	}
	sum += 2*int32(s.scBias[info.scBiasIdx]) + 1
	if cap(info.scIdx) < len(s.scTables) {
		// Cold-path pool fill, reused forever after the first Predict.
		//brlint:allow hot-path-alloc
		info.scIdx = make([]uint32, len(s.scTables))
	}
	info.scIdx = info.scIdx[:len(s.scTables)]
	for i := range s.scTables {
		idx := s.scIndex(i, pc)
		info.scIdx[i] = idx
		sum += 2*int32(s.scTables[i][idx]) + 1
	}
	info.scSum = sum
	scPred := sum >= 0
	if scPred != pred && abs32(sum) >= s.scThresh {
		pred = scPred
	}
	info.final = pred
	return pred, info
}

// OnFetch implements Predictor.
func (s *TAGESCL) OnFetch(pc uint64, dir bool) { s.t.onFetch(pc, dir) }

// Checkpoint implements Predictor.
func (s *TAGESCL) Checkpoint() Snapshot { return s.t.checkpoint() }

// Restore implements Predictor.
func (s *TAGESCL) Restore(snap Snapshot) { s.t.restore(snap.(*tageSnap)) }

// Release implements Predictor: retired/squashed checkpoints go back to
// the pool checkpoint() allocates from.
func (s *TAGESCL) Release(snap Snapshot) {
	if snap != nil {
		s.t.release(snap.(*tageSnap))
	}
}

// Commit implements Predictor.
func (s *TAGESCL) Commit(pc uint64, taken, _ bool, info Info) {
	in := info.(*sclInfo)
	s.t.commit(pc, taken, in.tp)
	s.loop.commit(pc, taken)

	// Train the corrector when it was wrong or weakly confident.
	scPred := in.scSum >= 0
	if scPred != taken || abs32(in.scSum) < s.scThresh+4 {
		s.scBias[in.scBiasIdx] = signedCtr(s.scBias[in.scBiasIdx], taken, 6)
		for i, idx := range in.scIdx {
			s.scTables[i][idx] = signedCtr(s.scTables[i][idx], taken, 6)
		}
	}
}

// ReleaseInfo implements Predictor: retired and squashed prediction state
// goes back to the pool Predict draws from. The slices inside are kept for
// reuse; every scalar field is overwritten by the next Predict.
func (s *TAGESCL) ReleaseInfo(info Info) {
	if in, ok := info.(*sclInfo); ok && in != nil {
		// Pool growth is bounded by the in-flight branch count and
		// amortizes to zero (TestTAGESCLInfoPoolNoAlloc).
		s.infoPool = append(s.infoPool, in) //brlint:allow hot-path-alloc
	}
}

// StorageBits implements Predictor.
func (s *TAGESCL) StorageBits() int {
	bits := s.t.storageBits() + s.loop.storageBits()
	bits += 6 * len(s.scBias)
	for _, t := range s.scTables {
		bits += 6 * len(t)
	}
	return bits
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// CopyFrom copies w's TAGE, loop and statistical-corrector state into s.
// The 64KB and 80KB configurations and MTAGE-SC share this type; they
// never copy into each other, because their warmup keys differ.
func (s *TAGESCL) CopyFrom(w *TAGESCL) {
	s.t.copyFrom(w.t)
	s.loop.copyFrom(w.loop)
	copy(s.scBias, w.scBias)
	for i := range s.scTables {
		copy(s.scTables[i], w.scTables[i])
	}
}
