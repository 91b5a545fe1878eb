// Package graph generates the input graphs for the GAP-suite workload
// kernels (bfs, cc, tc, bc, pr, sssp). The paper runs GAP with "-g 19"
// (a 2^19-node Kronecker graph); we generate smaller power-law graphs in
// CSR form, sized so adjacency and property arrays exceed branch
// predictor capacity while staying laptop-friendly.
package graph

import "math/rand"

// CSR is a graph in compressed sparse row form.
type CSR struct {
	N       int      // number of vertices
	RowPtr  []uint32 // len N+1
	ColIdx  []uint32 // len M
	Weights []uint32 // len M, parallel to ColIdx (for sssp)
}

// PowerLaw generates a graph with a skewed degree distribution reminiscent
// of the Kronecker graphs GAP uses: a few heavy hitters and a long tail.
func PowerLaw(n, avgDeg int, seed int64) *CSR {
	r := rand.New(rand.NewSource(seed))
	adj := make([][]uint32, n)
	m := n * avgDeg
	for e := 0; e < m; e++ {
		// Preferential-attachment-flavoured endpoint selection: squaring a
		// uniform sample skews toward low vertex ids.
		f := r.Float64()
		src := int(f * f * float64(n))
		if src >= n {
			src = n - 1
		}
		dst := uint32(r.Intn(n))
		adj[src] = append(adj[src], dst)
	}
	return fromAdj(adj, r)
}

func fromAdj(adj [][]uint32, r *rand.Rand) *CSR {
	n := len(adj)
	g := &CSR{N: n, RowPtr: make([]uint32, n+1)}
	for v := 0; v < n; v++ {
		sortU32(adj[v])
		g.RowPtr[v+1] = g.RowPtr[v] + uint32(len(adj[v]))
		g.ColIdx = append(g.ColIdx, adj[v]...)
	}
	g.Weights = make([]uint32, len(g.ColIdx))
	for i := range g.Weights {
		g.Weights[i] = uint32(1 + r.Intn(255))
	}
	return g
}

func sortU32(a []uint32) {
	// Insertion sort: adjacency lists are short.
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
