package graph

import "sort"

// SkewStats quantifies degree skew as in Table I of the paper: a vertex is
// "hot" if its degree is greater than or equal to the average degree; edge
// coverage is the fraction of edges incident (on the corresponding side) to
// hot vertices. The higher the skew, the lower the hot-vertex percentage
// and the higher the edge coverage.
type SkewStats struct {
	HotVertexPct float64 // % of vertices with degree >= average
	EdgeCoverPct float64 // % of edges connected to hot vertices
	AvgDegree    float64
	MaxDegree    uint32
}

// InSkew computes skew statistics over in-degrees (row #2/#3 of Table I).
func InSkew(g *CSR) SkewStats { return skew(g, g.InDegree) }

// OutSkew computes skew statistics over out-degrees (row #4/#5 of Table I).
func OutSkew(g *CSR) SkewStats { return skew(g, g.OutDegree) }

func skew(g *CSR, degree func(VertexID) uint32) SkewStats {
	n := g.NumVertices()
	if n == 0 {
		return SkewStats{}
	}
	var total uint64
	var maxDeg uint32
	for v := uint32(0); v < n; v++ {
		d := degree(v)
		total += uint64(d)
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(total) / float64(n)
	var hot, coveredEdges uint64
	for v := uint32(0); v < n; v++ {
		d := degree(v)
		if float64(d) >= avg {
			hot++
			coveredEdges += uint64(d)
		}
	}
	s := SkewStats{AvgDegree: avg, MaxDegree: maxDeg}
	s.HotVertexPct = 100 * float64(hot) / float64(n)
	if total > 0 {
		s.EdgeCoverPct = 100 * float64(coveredEdges) / float64(total)
	}
	return s
}

// GiniCoefficient computes the Gini coefficient of the degree distribution
// on the given side — an aggregate skew measure in [0,1) used by tests to
// verify that generated datasets have the intended relative skew ordering
// (e.g. kr > lj > fr > uni).
func GiniCoefficient(g *CSR, useIn bool) float64 {
	degree := g.OutDegree
	if useIn {
		degree = g.InDegree
	}
	n := int(g.NumVertices())
	if n == 0 {
		return 0
	}
	degs := make([]uint32, n)
	var total uint64
	for v := 0; v < n; v++ {
		degs[v] = degree(uint32(v))
		total += uint64(degs[v])
	}
	if total == 0 {
		return 0
	}
	sort.Slice(degs, func(i, j int) bool { return degs[i] < degs[j] })
	// Gini = (2*sum(i*x_i))/(n*sum(x)) - (n+1)/n with 1-based i on sorted x.
	var weighted float64
	for i, d := range degs {
		weighted += float64(i+1) * float64(d)
	}
	return 2*weighted/(float64(n)*float64(total)) - float64(n+1)/float64(n)
}
