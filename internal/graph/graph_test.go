package graph

import "testing"

func TestCSRWellFormed(t *testing.T) {
	for _, g := range []*CSR{PowerLaw(256, 8, 1), PowerLaw(256, 8, 2)} {
		if len(g.RowPtr) != g.N+1 {
			t.Fatalf("rowptr len %d, want %d", len(g.RowPtr), g.N+1)
		}
		if g.RowPtr[0] != 0 || int(g.RowPtr[g.N]) != len(g.ColIdx) {
			t.Fatalf("rowptr endpoints %d..%d, %d edges", g.RowPtr[0], g.RowPtr[g.N], len(g.ColIdx))
		}
		for v := 0; v < g.N; v++ {
			if g.RowPtr[v] > g.RowPtr[v+1] {
				t.Fatalf("rowptr not monotone at %d", v)
			}
		}
		for _, u := range g.ColIdx {
			if int(u) >= g.N {
				t.Fatalf("edge endpoint %d out of range", u)
			}
		}
		if len(g.Weights) != len(g.ColIdx) {
			t.Fatal("weights not parallel to edges")
		}
		for _, w := range g.Weights {
			if w == 0 {
				t.Fatal("zero edge weight (sssp relies on positive weights)")
			}
		}
	}
}

func TestAdjacencySorted(t *testing.T) {
	g := PowerLaw(512, 10, 3)
	for v := 0; v < g.N; v++ {
		for i := g.RowPtr[v] + 1; i < g.RowPtr[v+1]; i++ {
			if g.ColIdx[i-1] > g.ColIdx[i] {
				t.Fatalf("adjacency of %d unsorted (tc needs sorted lists)", v)
			}
		}
	}
}

func TestPowerLawSkew(t *testing.T) {
	g := PowerLaw(1024, 12, 4)
	maxDeg, sum := 0, 0
	for v := 0; v < g.N; v++ {
		d := int(g.RowPtr[v+1] - g.RowPtr[v])
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(sum) / float64(g.N)
	if float64(maxDeg) < 4*avg {
		t.Fatalf("max degree %d vs avg %.1f: no heavy hitters; not power-law-ish", maxDeg, avg)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := PowerLaw(128, 6, 7)
	b := PowerLaw(128, 6, 7)
	if len(a.ColIdx) != len(b.ColIdx) {
		t.Fatal("edge counts differ for identical seeds")
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] || a.Weights[i] != b.Weights[i] {
			t.Fatal("graphs differ for identical seeds")
		}
	}
}
