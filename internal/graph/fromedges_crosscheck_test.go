package graph

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// This file keeps the scatter-then-sort build FromEdges used before its
// unweighted path became three counting scatters, as the reference the
// production build is cross-checked against: every index, edge and weight
// array must be identical, on the generated datasets with their edges
// shuffled, on degenerate inputs and under fuzzing. For weighted input the
// reference is also the spec of the tie order among parallel edges of
// different weight, which SSSP's golden output depends on; its weighted
// sort, kept as sortAdjacencyReference, is also cross-checked alone.

// fromEdgesReference scatters every edge into both views in input order,
// then sorts each neighbor list: slices.Sort when unweighted,
// sortAdjacencyReference when weighted.
func fromEdgesReference(n uint32, edges []Edge, weighted bool) *CSR {
	g := scatterEdges(n, edges, weighted)
	if weighted {
		sortAdjacencyReference(g)
		return g
	}
	for v := uint32(0); v < n; v++ {
		slices.Sort(g.OutNeighbors(v))
		slices.Sort(g.InNeighbors(v))
	}
	return g
}

// scatterEdges builds both views with every list in input order.
func scatterEdges(n uint32, edges []Edge, weighted bool) *CSR {
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
	if weighted {
		g.OutWeights = make([]int32, len(edges))
		g.InWeights = make([]int32, len(edges))
	}
	outPos := make([]uint64, n)
	inPos := make([]uint64, n)
	for _, e := range edges {
		op := g.OutIndex[e.Src] + outPos[e.Src]
		g.OutEdges[op] = e.Dst
		ip := g.InIndex[e.Dst] + inPos[e.Dst]
		g.InEdges[ip] = e.Src
		if weighted {
			g.OutWeights[op] = e.Weight
			g.InWeights[ip] = e.Weight
		}
		outPos[e.Src]++
		inPos[e.Dst]++
	}
	return g
}

// sortAdjacencyReference is CSR.sortAdjacency as it was before it sorted
// (neighbor, weight) pairs in one reused slice: per list, it allocates an
// index permutation, sorts it by neighbor with sort.Slice and gathers both
// arrays through it.
func sortAdjacencyReference(g *CSR) {
	sortSide := func(index []uint64, edges []VertexID, weights []int32) {
		for v := uint32(0); v < g.n; v++ {
			lo, hi := index[v], index[v+1]
			if hi-lo < 2 {
				continue
			}
			nb := edges[lo:hi]
			w := weights[lo:hi]
			idx := make([]int, len(nb))
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(i, j int) bool { return nb[idx[i]] < nb[idx[j]] })
			nb2 := make([]VertexID, len(nb))
			w2 := make([]int32, len(w))
			for i, k := range idx {
				nb2[i] = nb[k]
				w2[i] = w[k]
			}
			copy(nb, nb2)
			copy(w, w2)
		}
	}
	sortSide(g.OutIndex, g.OutEdges, g.OutWeights)
	sortSide(g.InIndex, g.InEdges, g.InWeights)
}

// diffCSR names the first array on which got and want differ, or returns
// "" when they are identical.
func diffCSR(got, want *CSR) string {
	if got.n != want.n || got.m != want.m {
		return fmt.Sprintf("size: got n=%d m=%d, want n=%d m=%d", got.n, got.m, want.n, want.m)
	}
	if (got.OutWeights == nil) != (want.OutWeights == nil) || (got.InWeights == nil) != (want.InWeights == nil) {
		return "weightedness differs"
	}
	for _, d := range []struct {
		name string
		at   int
	}{
		{"OutIndex", firstDiff(got.OutIndex, want.OutIndex)},
		{"InIndex", firstDiff(got.InIndex, want.InIndex)},
		{"OutEdges", firstDiff(got.OutEdges, want.OutEdges)},
		{"InEdges", firstDiff(got.InEdges, want.InEdges)},
		{"OutWeights", firstDiff(got.OutWeights, want.OutWeights)},
		{"InWeights", firstDiff(got.InWeights, want.InWeights)},
	} {
		if d.at >= 0 {
			return fmt.Sprintf("%s differs at %d", d.name, d.at)
		}
	}
	return ""
}

// firstDiff returns the first index at which a and b differ (a length
// mismatch counts at the shorter length), or -1.
func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// crossCheckFromEdges requires FromEdges to build exactly the reference's
// arrays from edges.
func crossCheckFromEdges(t *testing.T, n uint32, edges []Edge, weighted bool) {
	t.Helper()
	got, err := FromEdges(n, edges, weighted)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffCSR(got, fromEdgesReference(n, edges, weighted)); d != "" {
		t.Fatalf("FromEdges(n=%d, m=%d, weighted=%v) != reference: %s", n, len(edges), weighted, d)
	}
}

// shuffledEdges returns g's edge list in a seeded random order, so a build
// cannot lean on the generators' or Edges()' ordering.
func shuffledEdges(g *CSR, seed uint64) []Edge {
	edges := g.Edges()
	r := NewRNG(seed)
	for i := len(edges) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
	return edges
}

// TestFromEdgesCrossCheck runs the cross-check on every generated dataset
// at scales 64, 16 and (unless -short) 4, both weightednesses, with the
// edges shuffled.
func TestFromEdgesCrossCheck(t *testing.T) {
	for _, d := range Datasets() {
		for _, scale := range []uint32{64, 16, 4} {
			for _, weighted := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s@%d/weighted=%v", d.Name, scale, weighted), func(t *testing.T) {
					if testing.Short() && scale < 16 {
						t.Skip("scale 4 builds a million edges twice")
					}
					g := d.Generate(weighted, scale)
					crossCheckFromEdges(t, g.NumVertices(), shuffledEdges(g, uint64(scale)), weighted)
				})
			}
		}
	}
}

// TestFromEdgesCrossCheckDegenerate covers the inputs no generator makes:
// no vertices, one vertex, and lists made only of duplicates and
// self-loops, with parallel edges of different weight in the weighted
// case.
func TestFromEdgesCrossCheckDegenerate(t *testing.T) {
	cases := []struct {
		n     uint32
		edges []Edge
	}{
		{0, nil},
		{1, nil},
		{1, []Edge{{0, 0, 5}}},
		{1, []Edge{{0, 0, 3}, {0, 0, 1}, {0, 0, 3}, {0, 0, 2}}},
		{2, []Edge{{1, 1, 4}, {1, 0, 2}, {0, 1, 9}, {1, 0, 1}, {1, 1, 4}, {0, 0, 7}, {1, 0, 2}}},
		{5, nil},
	}
	for i, c := range cases {
		for _, weighted := range []bool{false, true} {
			t.Run(fmt.Sprintf("%d/weighted=%v", i, weighted), func(t *testing.T) {
				crossCheckFromEdges(t, c.n, c.edges, weighted)
			})
		}
	}
}

// crossCheckSortAdjacency requires sortAdjacency to leave exactly the
// reference's arrays on the weighted lists scattered from edges.
func crossCheckSortAdjacency(t *testing.T, n uint32, edges []Edge) {
	t.Helper()
	got := scatterEdges(n, edges, true)
	want := scatterEdges(n, edges, true)
	got.sortAdjacency()
	sortAdjacencyReference(want)
	if d := diffCSR(got, want); d != "" {
		t.Fatalf("sortAdjacency(n=%d, m=%d) != reference: %s", n, len(edges), d)
	}
}

// TestSortAdjacencyCrossCheck runs the weighted sort against the
// reference on random multigraphs whose lists are long runs of parallel
// edges, every edge with its own weight, so any change in the order left
// among ties shows; and on every dataset, weighted, at scales 64 and 16
// with the edges shuffled.
func TestSortAdjacencyCrossCheck(t *testing.T) {
	for _, c := range []struct{ n, m uint32 }{{1, 2000}, {2, 300}, {3, 5000}, {16, 700}, {64, 20000}, {1000, 3000}} {
		t.Run(fmt.Sprintf("multigraph/n=%d/m=%d", c.n, c.m), func(t *testing.T) {
			r := NewRNG(uint64(c.n)<<32 | uint64(c.m))
			edges := make([]Edge, c.m)
			for i := range edges {
				edges[i] = Edge{Src: r.Uint32n(c.n), Dst: r.Uint32n(c.n), Weight: int32(i)}
			}
			crossCheckSortAdjacency(t, c.n, edges)
		})
	}
	for _, d := range Datasets() {
		for _, scale := range []uint32{64, 16} {
			t.Run(fmt.Sprintf("%s@%d", d.Name, scale), func(t *testing.T) {
				g := d.Generate(true, scale)
				crossCheckSortAdjacency(t, g.NumVertices(), shuffledEdges(g, uint64(scale)))
			})
		}
	}
}

// FuzzFromEdges decodes arbitrary bytes into a graph of at most 64
// vertices — byte 0 picks n, byte 1's low bit the weightedness, each later
// 3-byte group one edge (source, destination, signed weight) — and
// requires FromEdges to build the reference's arrays and a valid CSR whose
// lists are sorted.
func FuzzFromEdges(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0, 0, 3, 0, 0, 1, 0, 0, 3})
	f.Add([]byte{8, 0, 7, 0, 0, 7, 1, 0, 0, 7, 0, 3, 3, 0})
	f.Add([]byte{64, 1, 63, 0, 0xff, 0, 63, 1, 63, 0, 0x80, 63, 0, 0xff, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := uint32(data[0]) % 65
		weighted := data[1]&1 == 1
		var edges []Edge
		if n > 0 {
			for rec := data[2:]; len(rec) >= 3; rec = rec[3:] {
				edges = append(edges, Edge{Src: uint32(rec[0]) % n, Dst: uint32(rec[1]) % n, Weight: int32(int8(rec[2]))})
			}
		}
		got, err := FromEdges(n, edges, weighted)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffCSR(got, fromEdgesReference(n, edges, weighted)); d != "" {
			t.Fatalf("FromEdges != reference: %s", d)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		for v := uint32(0); v < n; v++ {
			if !slices.IsSorted(got.OutNeighbors(v)) || !slices.IsSorted(got.InNeighbors(v)) {
				t.Fatalf("vertex %d: unsorted neighbor list", v)
			}
		}
	})
}

// BenchmarkFromEdges is the build's curve over problem size, unweighted
// and from shuffled edges (the order ingest and stream snapshots hand it):
//
//	go test ./internal/graph -run '^$' -bench FromEdges -benchtime 5x
//
// ns/edge flat across scales means the build is linear in the graph.
func BenchmarkFromEdges(b *testing.B) {
	for _, name := range []string{"lj", "tw"} {
		for _, scale := range []uint32{4, 1} {
			b.Run(fmt.Sprintf("%s/scale%d", name, scale), func(b *testing.B) {
				d, err := DatasetByName(name)
				if err != nil {
					b.Fatal(err)
				}
				g := d.Generate(false, scale)
				edges := shuffledEdges(g, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if fromEdgesSink, err = FromEdges(g.NumVertices(), edges, false); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(edges)), "ns/edge")
			})
		}
	}
}

var fromEdgesSink *CSR
