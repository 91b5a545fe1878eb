package bpred

import (
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// ldbpTestProgram is the minimal load/compare/branch kernel LDBP covers:
// a strided load feeding a compare-immediate feeding a conditional branch.
func ldbpTestProgram() *program.Program {
	b := program.NewBuilder("ldbp-test")
	b.Label("loop")
	b.Ld(2, 1, 0, 8, false)  // pc 0: r2 <- [r1]
	b.CmpI(2, 100)           // pc 1: flags <- r2 - 100
	b.Br(isa.CondLT, "loop") // pc 2: branch on r2 < 100
	b.Halt()
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// TestLDBPLearnsStridedLoadBranch drives the retired stream of the test
// kernel through ObserveRetire and checks that LDBP binds the branch to
// its feeding load, learns the stride, gains override confidence, and
// keeps its in-flight bookkeeping balanced — then copies the warm tables
// into a fresh instance.
func TestLDBPLearnsStridedLoadBranch(t *testing.T) {
	const brPC, ldPC = 2, 0
	l := NewLDBP(DefaultLDBPConfig(), NewTAGESCL64(), ldbpTestProgram())

	value := uint64(0)
	for i := 0; i < 64; i++ {
		// Retire the load and the compare, then predict and retire the
		// branch (prediction for the next instance happens after the
		// previous one retired, so inflight is exercised at depth 1).
		l.ObserveRetire(ldPC, value)
		l.ObserveRetire(1, 0)
		taken := value < 100
		dir, info := l.Predict(brPC)
		l.OnFetch(brPC, dir)
		l.Commit(brPC, taken, dir == taken, info)
		l.ReleaseInfo(info)
		l.ObserveRetire(brPC, 0)
		value += 8
	}

	lv := &l.lvt[ldPC&uint64(len(l.lvt)-1)]
	if !lv.valid || lv.pc != ldPC || lv.stride != 8 || lv.conf != l.cfg.StrideConfMax {
		t.Fatalf("LVT did not learn the stride: %+v", *lv)
	}
	e := &l.btt[brPC&uint64(len(l.btt)-1)]
	if !e.valid || e.pc != brPC || e.loadPC != ldPC ||
		e.op != isa.OpCmp || e.imm != 100 || e.cond != isa.CondLT {
		t.Fatalf("BTT did not bind the recipe: %+v", *e)
	}
	if e.conf < l.cfg.ConfThresh {
		t.Fatalf("branch confidence %d below override threshold %d", e.conf, l.cfg.ConfThresh)
	}
	if e.inflight != 0 {
		t.Fatalf("in-flight count %d not balanced after release", e.inflight)
	}

	// Overlapping predictions: each in-flight instance must extrapolate
	// one stride further, and releases must restore the count.
	d1, i1 := l.Predict(brPC)
	d2, i2 := l.Predict(brPC)
	if e.inflight != 2 {
		t.Fatalf("in-flight count %d after two predictions, want 2", e.inflight)
	}
	// value is the next unretired load value; the older prediction sees
	// lastVal+stride = value, the younger lastVal+2*stride = value+8.
	if want := (value-8)+8 < 100; d1 != want {
		t.Fatalf("first overlapped prediction %v, want %v", d1, want)
	}
	if want := (value-8)+16 < 100; d2 != want {
		t.Fatalf("second overlapped prediction %v, want %v", d2, want)
	}
	l.ReleaseInfo(i1)
	l.ReleaseInfo(i2)
	if e.inflight != 0 {
		t.Fatalf("in-flight count %d after releases, want 0", e.inflight)
	}

	// Copy the warm tables; every prediction is released, so the copied
	// inflight counts are zero.
	fresh := NewLDBP(DefaultLDBPConfig(), NewTAGESCL64(), ldbpTestProgram())
	fresh.CopyFrom(l)
	normalize(l)
	normalize(fresh)
	if !reflect.DeepEqual(l, fresh) {
		t.Fatal("copied LDBP state differs from the original")
	}
}

// TestLDBPRecipeInvalidation checks the provenance rules that bound
// LDBP's coverage: arithmetic on a loaded value, register-register
// compares, and reallocation of a BTT entry all invalidate cleanly.
func TestLDBPRecipeInvalidation(t *testing.T) {
	b := program.NewBuilder("ldbp-inval")
	b.Label("loop")
	b.Ld(2, 1, 0, 8, false)  // pc 0
	b.AddI(2, 2, 1)          // pc 1: arithmetic breaks provenance
	b.CmpI(2, 100)           // pc 2
	b.Br(isa.CondLT, "loop") // pc 3
	b.Cmp(2, 3)              // pc 4: reg-reg compare
	b.Br(isa.CondEQ, "loop") // pc 5
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	l := NewLDBP(DefaultLDBPConfig(), NewTAGESCL64(), prog)

	for i := 0; i < 8; i++ {
		l.ObserveRetire(0, uint64(8*i))
		l.ObserveRetire(1, uint64(8*i+1))
		l.ObserveRetire(2, 0)
		l.ObserveRetire(3, 0)
	}
	if e := &l.btt[3&uint64(len(l.btt)-1)]; e.valid {
		t.Fatalf("BTT bound a branch through arithmetic provenance: %+v", *e)
	}

	// A register-register compare invalidates the flags recipe.
	l.ObserveRetire(0, 0)
	l.ObserveRetire(4, 0)
	l.ObserveRetire(5, 0)
	if e := &l.btt[5&uint64(len(l.btt)-1)]; e.valid {
		t.Fatalf("BTT bound a branch to a register-register compare: %+v", *e)
	}
}

// TestBullseyeFilterAndOverride checks the H2P classification flow: the
// filter counts base mispredictions, classified branches consult the
// dual perceptron, and a trained perceptron overrides past theta.
func TestBullseyeFilterAndOverride(t *testing.T) {
	b := NewBullseye(DefaultBullseyeConfig(), NewTAGESCL64())
	const pc = 0x40
	fi := pc & uint64(len(b.filter)-1)

	// Below the threshold the perceptron is never consulted.
	_, info := b.Predict(pc)
	if info.(*bullInfo).active {
		t.Fatal("perceptron consulted for an unclassified branch")
	}
	b.ReleaseInfo(info)

	// Drive base mispredictions; the filter must count them.
	for b.filter[fi] < b.cfg.FilterThresh {
		dir, info := b.Predict(pc)
		b.OnFetch(pc, !dir)
		b.Commit(pc, !dir, false, info)
		b.ReleaseInfo(info)
	}

	// Classified: the perceptron is consulted, and training on a
	// history-correlated pattern (repeat the previous direction) builds
	// weights until the output clears theta and overrides.
	overrode := false
	prev := true
	for i := 0; i < 4096 && !overrode; i++ {
		dir, info := b.Predict(pc)
		in := info.(*bullInfo)
		if !in.active {
			t.Fatal("perceptron not consulted for a classified branch")
		}
		overrode = in.overrode
		taken := prev
		b.OnFetch(pc, dir)
		b.Commit(pc, taken, dir == taken, info)
		b.ReleaseInfo(info)
		prev = taken
	}
	if !overrode {
		t.Fatal("trained perceptron never overrode the base prediction")
	}
}

// TestFrontierConfigValidate exercises every rejection branch of the new
// predictor configurations, and that the defaults are accepted.
func TestFrontierConfigValidate(t *testing.T) {
	if err := DefaultPerceptronConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DefaultTournamentConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DefaultLDBPConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DefaultBullseyeConfig().Validate(); err != nil {
		t.Fatal(err)
	}

	perc := func(mut func(*PerceptronConfig)) error {
		c := DefaultPerceptronConfig()
		mut(&c)
		return c.Validate()
	}
	tourn := func(mut func(*TournamentConfig)) error {
		c := DefaultTournamentConfig()
		mut(&c)
		return c.Validate()
	}
	ldbp := func(mut func(*LDBPConfig)) error {
		c := DefaultLDBPConfig()
		mut(&c)
		return c.Validate()
	}
	bull := func(mut func(*BullseyeConfig)) error {
		c := DefaultBullseyeConfig()
		mut(&c)
		return c.Validate()
	}

	cases := []struct {
		name string
		err  error
	}{
		{"perc/entries-low", perc(func(c *PerceptronConfig) { c.LogEntries = 0 })},
		{"perc/entries-high", perc(func(c *PerceptronConfig) { c.LogEntries = 25 })},
		{"perc/hist-low", perc(func(c *PerceptronConfig) { c.HistLen = 0 })},
		{"perc/hist-high", perc(func(c *PerceptronConfig) { c.HistLen = 64 })},
		{"tourn/lhist-entries", tourn(func(c *TournamentConfig) { c.LogLocalHist = 0 })},
		{"tourn/lhist-bits", tourn(func(c *TournamentConfig) { c.LocalHistBits = 17 })},
		{"tourn/gpht", tourn(func(c *TournamentConfig) { c.LogGlobalPHT = 25 })},
		{"tourn/chooser", tourn(func(c *TournamentConfig) { c.LogChooser = 0 })},
		{"tourn/ghist-short", tourn(func(c *TournamentConfig) { c.GlobalHistBits = 4 })},
		{"tourn/ghist-long", tourn(func(c *TournamentConfig) { c.GlobalHistBits = 64 })},
		{"ldbp/btt", ldbp(func(c *LDBPConfig) { c.LogBTT = 21 })},
		{"ldbp/lvt", ldbp(func(c *LDBPConfig) { c.LogLVT = 0 })},
		{"ldbp/conf-order", ldbp(func(c *LDBPConfig) { c.ConfThresh = c.ConfMax + 1 })},
		{"ldbp/conf-zero", ldbp(func(c *LDBPConfig) { c.ConfThresh = 0 })},
		{"ldbp/stride-order", ldbp(func(c *LDBPConfig) { c.StrideConfThresh = c.StrideConfMax + 1 })},
		{"ldbp/stride-zero", ldbp(func(c *LDBPConfig) { c.StrideConfMax = 0 })},
		{"bull/filter-entries", bull(func(c *BullseyeConfig) { c.LogFilter = 0 })},
		{"bull/filter-thresh", bull(func(c *BullseyeConfig) { c.FilterThresh = 0 })},
		{"bull/percep", bull(func(c *BullseyeConfig) { c.LogPercep = 21 })},
		{"bull/ghist", bull(func(c *BullseyeConfig) { c.GHistLen = 64 })},
		{"bull/lhist", bull(func(c *BullseyeConfig) { c.LHistLen = 17 })},
		{"bull/lhist-entries", bull(func(c *BullseyeConfig) { c.LogLocalHist = 0 })},
		{"bull/theta", bull(func(c *BullseyeConfig) { c.Theta = 0 })},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: invalid configuration accepted", tc.name)
		}
	}
}
