package runahead

import (
	"testing"

	"repro/internal/isa"
)

// pushSeq populates a CEB with the given micro-ops oldest-first, then the
// hard branch last (as the newest retired micro-op).
func buildCEB(t *testing.T, uops []isa.Uop, takens []bool, addrs []uint64) *CEB {
	t.Helper()
	ceb := NewCEB(512)
	for i := range uops {
		taken := false
		if takens != nil {
			taken = takens[i]
		}
		var addr uint64
		if addrs != nil {
			addr = addrs[i]
		}
		u := uops[i]
		ceb.Push(&u, taken, addr)
	}
	return ceb
}

func miniCfg() Config { return Mini() }

// TestExtractFigure9 replays the paper's Figure 9 walk: a loop iteration
// ADD -> LD -> ADD -> MOV -> LD -> CMP -> BR, between two instances of the
// branch. The extracted chain must be the backward slice with the MOV
// eliminated, terminated at the second (older) branch instance.
func TestExtractFigure9(t *testing.T) {
	// PCs mirror Figure 9: 0x7 branch; 0xA add; 0xC ld; 0xD add; 0x1 mov;
	// 0x3 ld; 0x5 cmp.
	loop := []isa.Uop{
		{PC: 7, Op: isa.OpBr, Cond: isa.CondNE, Imm: 0},                          // older instance
		{PC: 10, Op: isa.OpAdd, Dst: isa.R3, Src1: isa.R3, Imm: 4, UseImm: true}, // P3 += 4
		{PC: 12, Op: isa.OpLd, Dst: isa.R7, Src1: isa.R3, MemSize: 8},            // P7 = [P3]
		{PC: 13, Op: isa.OpAdd, Dst: isa.R7, Src1: isa.R7, Src2: isa.R5},         // P7 += P5
		{PC: 1, Op: isa.OpMov, Dst: isa.R2, Src1: isa.R7},                        // P2 = P7
		{PC: 3, Op: isa.OpLd, Dst: isa.R0, Src1: isa.R2, MemSize: 8},             // P0 = [P2]
		{PC: 5, Op: isa.OpCmp, Src1: isa.R0, Imm: 2, UseImm: true},               // cmp P0, 2
		{PC: 7, Op: isa.OpBr, Cond: isa.CondNE, Imm: 0},                          // the hard branch
	}
	cfg := miniCfg()
	ceb := buildCEB(t, loop, nil, nil)
	ch, err := newExtractor().extract(ceb, &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Tag != (Tag{PC: 7, Out: OutWildcard}) {
		t.Fatalf("tag = %s, want <7,*>", ch.Tag)
	}
	// Expected slice in program order, with the MOV eliminated:
	// add(10), ld(12), add(13), ld(3), cmp(5), br(7).
	wantPCs := []uint64{10, 12, 13, 3, 5, 7}
	if len(ch.Uops) != len(wantPCs) {
		t.Fatalf("chain length %d, want %d:\n%s", len(ch.Uops), len(wantPCs), ch)
	}
	for i, pc := range wantPCs {
		if ch.Uops[i].OrigPC != pc {
			t.Fatalf("uop %d pc = %d, want %d:\n%s", i, ch.Uops[i].OrigPC, pc, ch)
		}
	}
	// Live-ins: R3 (the pointer) and R5 (the offset).
	liveIns := map[isa.Reg]bool{}
	for _, li := range ch.LiveIns {
		liveIns[li.Arch] = true
	}
	if !liveIns[isa.R3] || !liveIns[isa.R5] {
		t.Fatalf("live-ins %v, want R3 and R5:\n%s", ch.LiveIns, ch)
	}
	// The mov elimination must wire ld(3)'s base directly to add(13)'s dst.
	addDst := ch.Uops[2].Dst
	ldBase := ch.Uops[3].Src1
	if addDst != ldBase {
		t.Fatalf("move not eliminated: add dst %d, ld base %d:\n%s", addDst, ldBase, ch)
	}
	// R3 must be both live-in and live-out (loop-carried induction).
	liveOuts := map[isa.Reg]bool{}
	for _, lo := range ch.LiveOuts {
		liveOuts[lo.Arch] = true
	}
	if !liveOuts[isa.R3] {
		t.Fatalf("live-outs %v, want R3 (loop-carried):\n%s", ch.LiveOuts, ch)
	}
}

// TestExtractStoreLoadPairElimination: a store followed by a load of the
// same address collapses to a direct use of the store's data register, so
// the chain contains no store.
func TestExtractStoreLoadPairElimination(t *testing.T) {
	seq := []isa.Uop{
		{PC: 7, Op: isa.OpBr, Cond: isa.CondEQ, Imm: 0},
		{PC: 1, Op: isa.OpAdd, Dst: isa.R4, Src1: isa.R4, Imm: 1, UseImm: true}, // data producer
		{PC: 2, Op: isa.OpSt, Dst: isa.R4, Src1: isa.R1, MemSize: 8},            // [R1] = R4
		{PC: 3, Op: isa.OpLd, Dst: isa.R5, Src1: isa.R1, MemSize: 8},            // R5 = [R1]
		{PC: 5, Op: isa.OpCmp, Src1: isa.R5, Imm: 0, UseImm: true},
		{PC: 7, Op: isa.OpBr, Cond: isa.CondEQ, Imm: 0},
	}
	addrs := []uint64{0, 0, 0x100, 0x100, 0, 0}
	cfg := miniCfg()
	ch, err := newExtractor().extract(buildCEB(t, seq, nil, addrs), &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range ch.Uops {
		if u.Op == isa.OpSt || u.Op == isa.OpLd {
			t.Fatalf("store-load pair not eliminated:\n%s", ch)
		}
	}
	// The add must feed the cmp directly.
	if ch.Uops[0].Op != isa.OpAdd || ch.Uops[1].Op != isa.OpCmp {
		t.Fatalf("unexpected chain shape:\n%s", ch)
	}
	if ch.Uops[0].Dst != ch.Uops[1].Src1 {
		t.Fatalf("data register not wired through the eliminated pair:\n%s", ch)
	}
}

// TestExtractTerminatesAtGuard: a branch in the hard branch's AG set
// terminates the walk with a directional tag (the paper's <A,NT> chain for
// B).
func TestExtractTerminatesAtGuard(t *testing.T) {
	seq := []isa.Uop{
		{PC: 40, Op: isa.OpBr, Cond: isa.CondNE, Imm: 0},              // guard (not taken)
		{PC: 41, Op: isa.OpLd, Dst: isa.R2, Src1: isa.R9, MemSize: 4}, // guarded body
		{PC: 42, Op: isa.OpCmp, Src1: isa.R2, Imm: 1, UseImm: true},
		{PC: 43, Op: isa.OpBr, Cond: isa.CondLE, Imm: 0}, // the hard branch B
	}
	takens := []bool{false, false, false, false}
	cfg := miniCfg()
	ch, err := newExtractor().extract(buildCEB(t, seq, takens, nil), &cfg, []uint64{40})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Tag != (Tag{PC: 40, Out: OutNotTaken}) {
		t.Fatalf("tag = %s, want <40,NT>", ch.Tag)
	}
	if ch.BranchPC != 43 {
		t.Fatalf("branch pc = %d", ch.BranchPC)
	}
}

// TestExtractRejectsExpensiveOps: integer divide in the slice aborts
// extraction (the paper's chain simplicity guarantee).
func TestExtractRejectsExpensiveOps(t *testing.T) {
	seq := []isa.Uop{
		{PC: 7, Op: isa.OpBr, Cond: isa.CondEQ, Imm: 0},
		{PC: 1, Op: isa.OpDiv, Dst: isa.R2, Src1: isa.R3, Src2: isa.R4},
		{PC: 5, Op: isa.OpCmp, Src1: isa.R2, Imm: 0, UseImm: true},
		{PC: 7, Op: isa.OpBr, Cond: isa.CondEQ, Imm: 0},
	}
	cfg := miniCfg()
	if _, err := newExtractor().extract(buildCEB(t, seq, nil, nil), &cfg, nil); err == nil {
		t.Fatal("expected extraction to reject a divide in the slice")
	}
}

// TestExtractRejectsOverlongChains: more producers than MaxChainLen aborts.
func TestExtractRejectsOverlongChains(t *testing.T) {
	var seq []isa.Uop
	seq = append(seq, isa.Uop{PC: 99, Op: isa.OpBr, Cond: isa.CondEQ, Imm: 0})
	// A 20-deep dependent ALU chain feeding the compare.
	for i := 0; i < 20; i++ {
		seq = append(seq, isa.Uop{PC: uint64(i + 1), Op: isa.OpAdd,
			Dst: isa.R2, Src1: isa.R2, Imm: 1, UseImm: true})
	}
	seq = append(seq,
		isa.Uop{PC: 50, Op: isa.OpCmp, Src1: isa.R2, Imm: 0, UseImm: true},
		isa.Uop{PC: 99, Op: isa.OpBr, Cond: isa.CondEQ, Imm: 0},
	)
	cfg := miniCfg()
	cfg.MaxChainLen = 16
	if _, err := newExtractor().extract(buildCEB(t, seq, nil, nil), &cfg, nil); err == nil {
		t.Fatal("expected extraction to reject an overlong chain")
	}
}

// TestExtractSkipsUnrelatedUops: micro-ops outside the slice must not
// appear in the chain.
func TestExtractSkipsUnrelatedUops(t *testing.T) {
	seq := []isa.Uop{
		{PC: 7, Op: isa.OpBr, Cond: isa.CondEQ, Imm: 0},
		{PC: 1, Op: isa.OpAdd, Dst: isa.R9, Src1: isa.R9, Imm: 1, UseImm: true}, // unrelated
		{PC: 2, Op: isa.OpMul, Dst: isa.R10, Src1: isa.R9, Src2: isa.R9},        // unrelated
		{PC: 3, Op: isa.OpAdd, Dst: isa.R2, Src1: isa.R2, Imm: 1, UseImm: true}, // in slice
		{PC: 4, Op: isa.OpSt, Dst: isa.R10, Src1: isa.R9, MemSize: 8},           // unrelated store
		{PC: 5, Op: isa.OpCmp, Src1: isa.R2, Imm: 5, UseImm: true},
		{PC: 7, Op: isa.OpBr, Cond: isa.CondEQ, Imm: 0},
	}
	cfg := miniCfg()
	ch, err := newExtractor().extract(buildCEB(t, seq, nil, nil), &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range ch.Uops {
		if u.OrigPC == 1 || u.OrigPC == 2 || u.OrigPC == 4 {
			t.Fatalf("unrelated uop pc=%d in slice:\n%s", u.OrigPC, ch)
		}
	}
	if len(ch.Uops) != 3 { // add, cmp, br
		t.Fatalf("chain length %d, want 3:\n%s", len(ch.Uops), ch)
	}
}

// TestExtractorSteadyStateAllocs pins the extractor's free-list discipline:
// after the first walk warms the scratch high-water marks, a reused
// extractor builds its chain in place and allocates nothing, and installing
// the unchanged chain it rebuilds allocates nothing either.
func TestExtractorSteadyStateAllocs(t *testing.T) {
	loop := []isa.Uop{
		{PC: 7, Op: isa.OpBr, Cond: isa.CondNE, Imm: 0},
		{PC: 10, Op: isa.OpAdd, Dst: isa.R3, Src1: isa.R3, Imm: 4, UseImm: true},
		{PC: 12, Op: isa.OpLd, Dst: isa.R7, Src1: isa.R3, MemSize: 8},
		{PC: 13, Op: isa.OpAdd, Dst: isa.R7, Src1: isa.R7, Src2: isa.R5},
		{PC: 3, Op: isa.OpLd, Dst: isa.R0, Src1: isa.R7, MemSize: 8},
		{PC: 5, Op: isa.OpCmp, Src1: isa.R0, Imm: 2, UseImm: true},
		{PC: 7, Op: isa.OpBr, Cond: isa.CondNE, Imm: 0},
	}
	cfg := miniCfg()
	ceb := buildCEB(t, loop, nil, nil)
	x := newExtractor()
	if _, err := x.extract(ceb, &cfg, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := x.extract(ceb, &cfg, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state extraction allocates %.0f times per walk, want 0", allocs)
	}

	cc := NewChainCache(cfg.ChainCacheSize)
	ch, err := x.extract(ceb, &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cc.Install(ch) {
		t.Fatal("first install of the chain did not report it new")
	}
	allocs = testing.AllocsPerRun(200, func() {
		ch, err := x.extract(ceb, &cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cc.Install(ch) {
			t.Fatal("refresh of an unchanged chain reported it new")
		}
	})
	if allocs != 0 {
		t.Fatalf("a walk plus the install of its unchanged chain allocates %.0f times, want 0", allocs)
	}
}

// TestExtractorReuseMatchesFresh: a reused extractor must produce chains
// bit-identical to a fresh one — the scratch reuse must not leak state
// between walks.
func TestExtractorReuseMatchesFresh(t *testing.T) {
	seqs := [][]isa.Uop{
		{
			{PC: 7, Op: isa.OpBr, Cond: isa.CondNE, Imm: 0},
			{PC: 10, Op: isa.OpAdd, Dst: isa.R3, Src1: isa.R3, Imm: 4, UseImm: true},
			{PC: 12, Op: isa.OpLd, Dst: isa.R7, Src1: isa.R3, MemSize: 8},
			{PC: 5, Op: isa.OpCmp, Src1: isa.R7, Imm: 2, UseImm: true},
			{PC: 7, Op: isa.OpBr, Cond: isa.CondNE, Imm: 0},
		},
		{
			{PC: 9, Op: isa.OpBr, Cond: isa.CondEQ, Imm: 0},
			{PC: 1, Op: isa.OpAdd, Dst: isa.R4, Src1: isa.R4, Src2: isa.R5},
			{PC: 2, Op: isa.OpMov, Dst: isa.R2, Src1: isa.R4},
			{PC: 3, Op: isa.OpTest, Src1: isa.R2, Src2: isa.R2},
			{PC: 9, Op: isa.OpBr, Cond: isa.CondEQ, Imm: 0},
		},
	}
	cfg := miniCfg()
	x := newExtractor()
	for round := 0; round < 3; round++ {
		for i, seq := range seqs {
			ceb := buildCEB(t, seq, nil, nil)
			reused, err := x.extract(ceb, &cfg, nil)
			if err != nil {
				t.Fatalf("round %d seq %d: reused: %v", round, i, err)
			}
			fresh, err := newExtractor().extract(ceb, &cfg, nil)
			if err != nil {
				t.Fatalf("round %d seq %d: fresh: %v", round, i, err)
			}
			if !reused.sameBody(fresh) {
				t.Fatalf("round %d seq %d: reused extractor diverged:\nreused: %sfresh: %s",
					round, i, reused, fresh)
			}
		}
	}
}

func TestTagMatching(t *testing.T) {
	wild := Tag{PC: 10, Out: OutWildcard}
	tk := Tag{PC: 10, Out: OutTaken}
	nt := Tag{PC: 10, Out: OutNotTaken}
	if !wild.Matches(10, true) || !wild.Matches(10, false) {
		t.Fatal("wildcard must match both outcomes")
	}
	if wild.Matches(11, true) {
		t.Fatal("wildcard must not match other PCs")
	}
	if !tk.Matches(10, true) || tk.Matches(10, false) {
		t.Fatal("taken tag")
	}
	if !nt.Matches(10, false) || nt.Matches(10, true) {
		t.Fatal("not-taken tag")
	}
}

func TestCEBWrapAround(t *testing.T) {
	ceb := NewCEB(4)
	for i := 0; i < 10; i++ {
		u := isa.Uop{PC: uint64(i), Op: isa.OpNop}
		ceb.Push(&u, false, 0)
	}
	if ceb.Len() != 4 {
		t.Fatalf("len = %d", ceb.Len())
	}
	for i := 0; i < 4; i++ {
		if got := ceb.at(i).u.PC; got != uint64(9-i) {
			t.Fatalf("at(%d) = pc %d, want %d", i, got, 9-i)
		}
	}
}
