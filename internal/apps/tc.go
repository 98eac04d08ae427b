package apps

import (
	"sort"

	"grasp/internal/graph"
	"grasp/internal/ligra"
	"grasp/internal/mem"
)

// TC counts triangles in the undirected simple graph underlying the CSR,
// using the standard degree-ordered orientation (GAP's "tc", Ligra's
// Triangle): every undirected edge {u, v} is kept only in the direction of
// increasing degree rank, which makes the orientation acyclic and bounds
// every out-list by O(sqrt(m)); each triangle then survives as exactly one
// directed wedge and is found by sorted-list intersection. Construction
// (symmetrize, dedup, orient) happens in NewTC; Run performs — and traces —
// the intersection phase over the derived adjacency. An extension workload
// beyond the paper's five applications.
type TC struct {
	fg *ligra.Graph

	// Count[v] is the number of triangles whose lowest-ranked vertex is v;
	// Total is their sum, the triangle count of the graph.
	Count []uint64
	Total uint64

	oriIndex []uint64
	oriAdj   []graph.VertexID

	idxArr   *mem.Array
	adjArr   *mem.Array
	countArr *mem.Array
}

var (
	pcTCIdx     = mem.PC("tc.read.index")
	pcTCAdj     = mem.PC("tc.read.adj")
	pcTCCountWr = mem.PC("tc.write.count")
)

// NewTC creates a triangle-counting instance, building the degree-ordered
// oriented adjacency (sorted neighbor lists, self-loops and parallel edges
// dropped).
func NewTC(fg *ligra.Graph) *TC {
	g := fg.C
	n := g.NumVertices()
	tc := &TC{fg: fg, Count: make([]uint64, n)}

	// Rank vertices by undirected degree (ties by ID) — the "degree
	// ordering" that keeps oriented out-lists short on skewed graphs.
	rank := make([]uint32, n)
	order := make([]graph.VertexID, n)
	for v := uint32(0); v < n; v++ {
		order[v] = v
	}
	deg := func(v graph.VertexID) uint64 {
		return uint64(g.OutDegree(v)) + uint64(g.InDegree(v))
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := deg(order[i]), deg(order[j])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	for r, v := range order {
		rank[v] = uint32(r)
	}

	// Oriented adjacency: for every undirected edge {v, u} keep v -> u iff
	// rank(v) < rank(u), deduplicated and sorted by neighbor ID so the
	// intersection below is a linear merge.
	tc.oriIndex = make([]uint64, n+1)
	var adj []graph.VertexID
	var nb []graph.VertexID
	for v := uint32(0); v < n; v++ {
		nb = nb[:0]
		for _, u := range g.OutNeighbors(v) {
			if u != v && rank[u] > rank[v] {
				nb = append(nb, u)
			}
		}
		for _, u := range g.InNeighbors(v) {
			if u != v && rank[u] > rank[v] {
				nb = append(nb, u)
			}
		}
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		last := ^graph.VertexID(0)
		for _, u := range nb {
			if u != last {
				adj = append(adj, u)
				last = u
			}
		}
		tc.oriIndex[v+1] = uint64(len(adj))
	}
	tc.oriAdj = adj

	tc.idxArr = fg.RegisterAux("tc.index", 8, uint64(n)+1)
	tc.adjArr = fg.RegisterAux("tc.adj", 4, uint64(len(adj)))
	tc.countArr = fg.RegisterProperty("tc.count", 8)
	return tc
}

// ABRArrays implements App.
func (tc *TC) ABRArrays() []*mem.Array { return []*mem.Array{tc.countArr} }

// Run implements App.
func (tc *TC) Run(t *ligra.Tracer) {
	n := tc.fg.C.NumVertices()
	tc.Total = 0
	for v := range tc.Count {
		tc.Count[v] = 0
	}
	for u := uint32(0); u < n; u++ {
		t.Read(tc.idxArr, uint64(u), pcTCIdx)
		t.Read(tc.idxArr, uint64(u)+1, pcTCIdx)
		uLo, uHi := tc.oriIndex[u], tc.oriIndex[u+1]
		for e := uLo; e < uHi; e++ {
			t.Read(tc.adjArr, e, pcTCAdj)
			v := tc.oriAdj[e]
			t.Read(tc.idxArr, uint64(v), pcTCIdx)
			t.Read(tc.idxArr, uint64(v)+1, pcTCIdx)
			vLo, vHi := tc.oriIndex[v], tc.oriIndex[v+1]
			// Merge-intersect N+(u) and N+(v): every common w closes the
			// wedge u -> v, u -> w, v -> w. An element is loaded (and
			// traced) only when its pointer advances; the stationary side
			// stays in a register, as in the real merge.
			i, j := uLo, vLo
			if i < uHi && j < vHi {
				t.Read(tc.adjArr, i, pcTCAdj)
				t.Read(tc.adjArr, j, pcTCAdj)
			}
			for i < uHi && j < vHi {
				a, b := tc.oriAdj[i], tc.oriAdj[j]
				switch {
				case a == b:
					tc.Count[u]++
					tc.Total++
					t.Write(tc.countArr, uint64(u), pcTCCountWr)
					i++
					j++
					if i < uHi {
						t.Read(tc.adjArr, i, pcTCAdj)
					}
					if j < vHi {
						t.Read(tc.adjArr, j, pcTCAdj)
					}
				case a < b:
					i++
					if i < uHi {
						t.Read(tc.adjArr, i, pcTCAdj)
					}
				default:
					j++
					if j < vHi {
						t.Read(tc.adjArr, j, pcTCAdj)
					}
				}
			}
		}
	}
}
