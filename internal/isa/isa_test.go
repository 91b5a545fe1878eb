package isa

import (
	"testing"
	"testing/quick"
)

func TestCondEval(t *testing.T) {
	cases := []struct {
		a, b uint64
		cond Cond
		want bool
	}{
		{5, 5, CondEQ, true},
		{5, 6, CondEQ, false},
		{5, 6, CondNE, true},
		{5, 6, CondLT, true},
		{6, 5, CondLT, false},
		{5, 5, CondLE, true},
		{6, 5, CondGT, true},
		{5, 5, CondGE, true},
		{^uint64(0), 1, CondLT, true},   // -1 < 1 signed
		{^uint64(0), 1, CondULT, false}, // max > 1 unsigned
		{1, ^uint64(0), CondULT, true},
		{1, 1, CondUGE, true},
	}
	for _, c := range cases {
		f := CompareFlags(c.a, c.b)
		if got := c.cond.Eval(f); got != c.want {
			t.Errorf("cmp(%d,%d) %s = %v, want %v", c.a, c.b, c.cond, got, c.want)
		}
	}
}

func TestFlagsPackRoundTrip(t *testing.T) {
	check := func(z, lts, ltu bool) bool {
		f := Flags{Zero: z, LTs: lts, LTu: ltu}
		return UnpackFlags(f.Pack()) == f
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareFlagsConsistency(t *testing.T) {
	// Property: exactly one of LT/EQ/GT holds under signed comparison.
	check := func(a, b uint64) bool {
		f := CompareFlags(a, b)
		lt := CondLT.Eval(f)
		eq := CondEQ.Eval(f)
		gt := CondGT.Eval(f)
		count := 0
		for _, v := range []bool{lt, eq, gt} {
			if v {
				count++
			}
		}
		if count != 1 {
			return false
		}
		// LE == LT || EQ; GE == !LT.
		return CondLE.Eval(f) == (lt || eq) && CondGE.Eval(f) == !lt
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestALUResultBasics(t *testing.T) {
	neg5 := uint64(0)
	neg5 -= 5
	cases := []struct {
		op   Op
		a, b uint64
		imm  int64
		want uint64
	}{
		{OpAdd, 3, 4, 0, 7},
		{OpSub, 10, 4, 0, 6},
		{OpAnd, 0b1100, 0b1010, 0, 0b1000},
		{OpOr, 0b1100, 0b1010, 0, 0b1110},
		{OpXor, 0b1100, 0b1010, 0, 0b0110},
		{OpShl, 1, 4, 0, 16},
		{OpShr, 16, 4, 0, 1},
		{OpSar, ^uint64(0) - 7, 1, 0, ^uint64(0) - 3}, // -8 >> 1 = -4
		{OpMul, 7, 6, 0, 42},
		{OpMov, 99, 0, 0, 99},
		{OpMovI, 0, 0, -5, neg5},
		{OpSext, 0xFF, 0, 1, ^uint64(0)},
		{OpSext, 0x7F, 0, 1, 0x7F},
		{OpDiv, 42, 6, 0, 7},
		{OpDiv, 42, 0, 0, 0}, // divide by zero yields zero
	}
	for _, c := range cases {
		if got := ALUResult(c.op, c.a, c.b, c.imm); got != c.want {
			t.Errorf("%s(%d,%d,imm=%d) = %d, want %d", c.op, c.a, c.b, c.imm, got, c.want)
		}
	}
}

func TestSrcDstRegs(t *testing.T) {
	var src [4]Reg
	var dst [2]Reg
	ld := Uop{Op: OpLd, Dst: R1, Src1: R2, Src2: R3, Scale: 4, MemSize: 4}
	if n := ld.SrcRegN(&src); n != 2 || src[0] != R2 || src[1] != R3 {
		t.Fatalf("load srcs = %v", src[:n])
	}
	if n := ld.DstRegN(&dst); n != 1 || dst[0] != R1 {
		t.Fatalf("load dsts = %v", dst[:n])
	}

	st := Uop{Op: OpSt, Dst: R4, Src1: R5, MemSize: 8}
	if n := st.SrcRegN(&src); n != 2 || src[0] != R5 || src[1] != R4 {
		t.Fatalf("store srcs = %v (data register must be a source)", src[:n])
	}
	if n := st.DstRegN(&dst); n != 0 {
		t.Fatalf("store dsts = %v, want none", dst[:n])
	}

	cmp := Uop{Op: OpCmp, Src1: R1, Src2: R2}
	if n := cmp.DstRegN(&dst); n != 1 || dst[0] != RegFlags {
		t.Fatalf("cmp dsts = %v, want flags", dst[:n])
	}
	br := Uop{Op: OpBr, Cond: CondEQ}
	if n := br.SrcRegN(&src); n != 1 || src[0] != RegFlags {
		t.Fatalf("branch srcs = %v, want flags", src[:n])
	}
}

func TestUopValidate(t *testing.T) {
	good := Uop{Op: OpAdd, Dst: R1, Src1: R2, Src2: R3}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Uop{
		{Op: OpLd, Dst: R1, Src1: R2, MemSize: 3},                          // bad size
		{Op: OpLd, Dst: R1, Src1: RegNone, MemSize: 4},                     // no base
		{Op: OpLd, Dst: R1, Src1: R2, Src2: RegNone, Scale: 4, MemSize: 4}, // scaled, no index
		{Op: OpSext, Dst: R1, Src1: R2, Imm: 3},                            // bad width
		{Op: OpBr, Imm: -1, Cond: CondEQ},                                  // negative target
		{Op: OpAdd, Dst: RegNone, Src1: R1, Src2: R2},                      // no dst
		{Op: OpCmp, Src1: RegNone, Src2: R1},                               // no src
	}
	for i, u := range bad {
		if err := u.Validate(); err == nil {
			t.Errorf("case %d (%v): expected validation error", i, u.Op)
		}
	}
}

func TestOpClassification(t *testing.T) {
	if !OpBr.IsCondBranch() || !OpBr.IsBranch() {
		t.Fatal("OpBr classification")
	}
	if OpJmp.IsCondBranch() || !OpJmp.IsBranch() {
		t.Fatal("OpJmp classification")
	}
	if !OpLd.IsLoad() || !OpLd.IsMem() || OpLd.IsStore() {
		t.Fatal("OpLd classification")
	}
	if !OpSt.IsStore() || !OpSt.IsMem() || OpSt.IsLoad() {
		t.Fatal("OpSt classification")
	}
	for _, op := range []Op{OpDiv, OpFAdd, OpFMul} {
		if !op.IsExpensive() {
			t.Fatalf("%s must be excluded from chains", op)
		}
	}
	for _, op := range []Op{OpAdd, OpMul, OpLd, OpCmp} {
		if op.IsExpensive() {
			t.Fatalf("%s must be chain-eligible", op)
		}
	}
	if !OpCmp.WritesFlags() || !OpTest.WritesFlags() || OpAdd.WritesFlags() {
		t.Fatal("flag-writer classification")
	}
}
