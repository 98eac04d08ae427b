// Package graph provides the graph substrate for the GRASP reproduction:
// a Compressed Sparse Row (CSR) representation with both in- and out-edge
// views, synthetic dataset generators matched to the degree-distribution
// shapes of the paper's datasets, degree statistics and skew metrics
// (Table I of the paper), and binary serialization.
//
// Vertex IDs are dense uint32 values in [0, NumVertices). Edges are
// directed; undirected graphs are represented by symmetric edge pairs.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// VertexID identifies a vertex. Dense, zero-based.
type VertexID = uint32

// Edge is a directed edge with an optional weight (used by SSSP).
type Edge struct {
	Src    VertexID
	Dst    VertexID
	Weight int32
}

// CSR holds a directed graph in Compressed Sparse Row form, encoding both
// out-edges (for push-based computations) and in-edges (for pull-based
// computations), mirroring the layout described in Sec. II-B of the paper.
//
// For every vertex v, OutIndex[v]..OutIndex[v+1] delimits its out-neighbors
// in OutEdges; likewise for in-edges. Weights are parallel to the edge
// arrays and may be nil for unweighted graphs.
type CSR struct {
	n uint32 // number of vertices
	m uint64 // number of directed edges

	OutIndex []uint64   // len n+1
	OutEdges []VertexID // len m, destination of each out-edge, grouped by source
	InIndex  []uint64   // len n+1
	InEdges  []VertexID // len m, source of each in-edge, grouped by destination

	OutWeights []int32 // nil if unweighted; parallel to OutEdges
	InWeights  []int32 // nil if unweighted; parallel to InEdges
}

// NumVertices returns the number of vertices.
func (g *CSR) NumVertices() uint32 { return g.n }

// NumEdges returns the number of directed edges.
func (g *CSR) NumEdges() uint64 { return g.m }

// Weighted reports whether the graph carries edge weights.
func (g *CSR) Weighted() bool { return g.OutWeights != nil }

// OutDegree returns the out-degree of v.
func (g *CSR) OutDegree(v VertexID) uint32 {
	return uint32(g.OutIndex[v+1] - g.OutIndex[v])
}

// InDegree returns the in-degree of v.
func (g *CSR) InDegree(v VertexID) uint32 {
	return uint32(g.InIndex[v+1] - g.InIndex[v])
}

// OutNeighbors returns the out-neighbor slice of v. The slice aliases the
// CSR edge array and must not be modified.
func (g *CSR) OutNeighbors(v VertexID) []VertexID {
	return g.OutEdges[g.OutIndex[v]:g.OutIndex[v+1]]
}

// InNeighbors returns the in-neighbor slice of v. The slice aliases the
// CSR edge array and must not be modified.
func (g *CSR) InNeighbors(v VertexID) []VertexID {
	return g.InEdges[g.InIndex[v]:g.InIndex[v+1]]
}

// OutNeighborWeights returns the weights parallel to OutNeighbors(v).
func (g *CSR) OutNeighborWeights(v VertexID) []int32 {
	return g.OutWeights[g.OutIndex[v]:g.OutIndex[v+1]]
}

// InNeighborWeights returns the weights parallel to InNeighbors(v).
func (g *CSR) InNeighborWeights(v VertexID) []int32 {
	return g.InWeights[g.InIndex[v]:g.InIndex[v+1]]
}

// Footprint returns the approximate resident bytes of the CSR's arrays —
// the quantity the byte-budget caches (graph registry, exp.Session) charge
// per retained graph.
func (g *CSR) Footprint() int64 {
	n := 8 * (int64(len(g.OutIndex)) + int64(len(g.InIndex)))
	n += 4 * (int64(len(g.OutEdges)) + int64(len(g.InEdges)))
	n += 4 * (int64(len(g.OutWeights)) + int64(len(g.InWeights)))
	return n
}

// AvgDegree returns the average (out-)degree.
func (g *CSR) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.m) / float64(g.n)
}

// String implements fmt.Stringer with a one-line summary.
func (g *CSR) String() string {
	return fmt.Sprintf("CSR{vertices: %d, edges: %d, avg degree: %.1f, weighted: %v}",
		g.n, g.m, g.AvgDegree(), g.Weighted())
}

// FromEdges builds a CSR from a directed edge list. Self-loops are kept;
// parallel edges are kept (multigraphs arise naturally from generators and
// are harmless to the algorithms). Edges referencing vertices >= n are
// rejected. Every neighbor list comes out sorted ascending.
//
// Unweighted input is built in O(n+m) by three counting scatters and no
// sort: the in-lists in input order; the out-lists by walking those in
// ascending destination, so each out-list is sorted by construction; then
// the in-lists again by walking the out-lists in ascending source.
// Weighted input scatters once and sorts each list with its weights
// (sortAdjacency), because the order it leaves among parallel edges of
// different weight is part of SSSP's golden output.
func FromEdges(n uint32, edges []Edge, weighted bool) (*CSR, error) {
	for _, e := range edges {
		if e.Src >= n || e.Dst >= n {
			return nil, fmt.Errorf("graph: edge (%d -> %d) out of range for %d vertices", e.Src, e.Dst, n)
		}
	}
	g := &CSR{n: n, m: uint64(len(edges))}
	g.OutIndex = make([]uint64, n+1)
	g.InIndex = make([]uint64, n+1)
	for _, e := range edges {
		g.OutIndex[e.Src+1]++
		g.InIndex[e.Dst+1]++
	}
	for i := uint32(0); i < n; i++ {
		g.OutIndex[i+1] += g.OutIndex[i]
		g.InIndex[i+1] += g.InIndex[i]
	}
	g.OutEdges = make([]VertexID, len(edges))
	g.InEdges = make([]VertexID, len(edges))
	// outAt[v] and inAt[v] are the write cursors of v's two lists.
	outAt := slices.Clone(g.OutIndex[:n])
	inAt := slices.Clone(g.InIndex[:n])
	if weighted {
		g.OutWeights = make([]int32, len(edges))
		g.InWeights = make([]int32, len(edges))
		for _, e := range edges {
			g.OutEdges[outAt[e.Src]], g.OutWeights[outAt[e.Src]] = e.Dst, e.Weight
			g.InEdges[inAt[e.Dst]], g.InWeights[inAt[e.Dst]] = e.Src, e.Weight
			outAt[e.Src]++
			inAt[e.Dst]++
		}
		g.sortAdjacency()
		return g, nil
	}
	for _, e := range edges {
		g.InEdges[inAt[e.Dst]] = e.Src
		inAt[e.Dst]++
	}
	for d := uint32(0); d < n; d++ {
		for _, s := range g.InNeighbors(d) {
			g.OutEdges[outAt[s]] = d
			outAt[s]++
		}
	}
	copy(inAt, g.InIndex)
	for s := uint32(0); s < n; s++ {
		for _, d := range g.OutNeighbors(s) {
			g.InEdges[inAt[d]] = s
			inAt[d]++
		}
	}
	return g, nil
}

// sortAdjacency sorts each vertex's neighbor list together with its
// weights, for deterministic iteration order of a weighted graph. The tie
// order it leaves among parallel edges of different weight is part of
// SSSP's golden output, and it is whatever sort.Slice's swaps make of the
// scattered order. Each list is sorted as one reused slice of (neighbor,
// weight) pairs, by neighbor alone: sort.Slice sees the same less outcomes,
// and so makes the same swaps, as it would sorting an index permutation of
// the list by neighbor, the form the tests keep as the reference.
func (g *CSR) sortAdjacency() {
	type adjPair struct {
		v VertexID
		w int32
	}
	var pairs []adjPair
	sortSide := func(index []uint64, edges []VertexID, weights []int32) {
		for v := uint32(0); v < g.n; v++ {
			lo, hi := index[v], index[v+1]
			if hi-lo < 2 {
				continue
			}
			nb := edges[lo:hi]
			w := weights[lo:hi]
			pairs = pairs[:0]
			for i, u := range nb {
				pairs = append(pairs, adjPair{u, w[i]})
			}
			sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
			for i, p := range pairs {
				nb[i], w[i] = p.v, p.w
			}
		}
	}
	sortSide(g.OutIndex, g.OutEdges, g.OutWeights)
	sortSide(g.InIndex, g.InEdges, g.InWeights)
}

// Edges reconstructs the directed edge list (grouped by source, neighbors
// in sorted order). Intended for tests and small graphs.
func (g *CSR) Edges() []Edge {
	edges := make([]Edge, 0, g.m)
	for v := uint32(0); v < g.n; v++ {
		nb := g.OutNeighbors(v)
		for i, u := range nb {
			e := Edge{Src: v, Dst: u}
			if g.OutWeights != nil {
				e.Weight = g.OutNeighborWeights(v)[i]
			}
			edges = append(edges, e)
		}
	}
	return edges
}

// Transpose returns the graph with every edge reversed. In/out views swap.
func (g *CSR) Transpose() *CSR {
	t := &CSR{
		n:        g.n,
		m:        g.m,
		OutIndex: g.InIndex, OutEdges: g.InEdges, OutWeights: g.InWeights,
		InIndex: g.OutIndex, InEdges: g.OutEdges, InWeights: g.OutWeights,
	}
	return t
}

// Validate checks structural invariants of the CSR encoding. It returns a
// descriptive error for the first violation found, or nil. Used heavily by
// tests (including property-based tests).
func (g *CSR) Validate() error {
	if uint64(len(g.OutIndex)) != uint64(g.n)+1 || uint64(len(g.InIndex)) != uint64(g.n)+1 {
		return fmt.Errorf("graph: index arrays must have n+1 entries")
	}
	if g.OutIndex[0] != 0 || g.InIndex[0] != 0 {
		return fmt.Errorf("graph: index arrays must start at 0")
	}
	if g.OutIndex[g.n] != g.m || g.InIndex[g.n] != g.m {
		return fmt.Errorf("graph: index arrays must end at m=%d (got out=%d in=%d)", g.m, g.OutIndex[g.n], g.InIndex[g.n])
	}
	if uint64(len(g.OutEdges)) != g.m || uint64(len(g.InEdges)) != g.m {
		return fmt.Errorf("graph: edge arrays must have m entries")
	}
	for v := uint32(0); v < g.n; v++ {
		if g.OutIndex[v] > g.OutIndex[v+1] {
			return fmt.Errorf("graph: OutIndex not monotonic at vertex %d", v)
		}
		if g.InIndex[v] > g.InIndex[v+1] {
			return fmt.Errorf("graph: InIndex not monotonic at vertex %d", v)
		}
	}
	for i, u := range g.OutEdges {
		if u >= g.n {
			return fmt.Errorf("graph: OutEdges[%d]=%d out of range", i, u)
		}
	}
	for i, u := range g.InEdges {
		if u >= g.n {
			return fmt.Errorf("graph: InEdges[%d]=%d out of range", i, u)
		}
	}
	if (g.OutWeights == nil) != (g.InWeights == nil) {
		return fmt.Errorf("graph: weight arrays must both be present or both nil")
	}
	if g.OutWeights != nil && (uint64(len(g.OutWeights)) != g.m || uint64(len(g.InWeights)) != g.m) {
		return fmt.Errorf("graph: weight arrays must have m entries")
	}
	// Each edge must appear in both views: compare multisets of (src,dst).
	if g.m <= 1<<22 { // guard cost on huge graphs
		fwd := make([]uint64, 0, g.m)
		bwd := make([]uint64, 0, g.m)
		for v := uint32(0); v < g.n; v++ {
			for _, u := range g.OutNeighbors(v) {
				fwd = append(fwd, uint64(v)<<32|uint64(u))
			}
			for _, u := range g.InNeighbors(v) {
				bwd = append(bwd, uint64(u)<<32|uint64(v))
			}
		}
		sort.Slice(fwd, func(i, j int) bool { return fwd[i] < fwd[j] })
		sort.Slice(bwd, func(i, j int) bool { return bwd[i] < bwd[j] })
		for i := range fwd {
			if fwd[i] != bwd[i] {
				return fmt.Errorf("graph: in/out edge views disagree at position %d", i)
			}
		}
	}
	return nil
}
