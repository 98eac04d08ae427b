// Package reorder implements the vertex reordering techniques evaluated in
// the paper (Sec. IV-B): Sort, HubSort, DBG (skew-aware, lightweight) and
// Gorder (complex, structure-aware), plus the identity baseline.
//
// A reordering is a Permutation p with p[old] = new. GRASP relies on the
// property, shared by all skew-aware techniques, that after reordering the
// hottest vertices occupy a contiguous region at the beginning of the
// vertex ID space (and hence of the Property Array).
package reorder

import (
	"fmt"
	"sort"
	"time"

	"grasp/internal/graph"
)

// Permutation maps old vertex IDs to new vertex IDs.
type Permutation []graph.VertexID

// Identity returns the identity permutation on n vertices.
func Identity(n uint32) Permutation {
	p := make(Permutation, n)
	for i := range p {
		p[i] = uint32(i)
	}
	return p
}

// Inverse returns the inverse permutation (new -> old).
func (p Permutation) Inverse() Permutation {
	inv := make(Permutation, len(p))
	for old, new := range p {
		inv[new] = uint32(old)
	}
	return inv
}

// Validate checks that p is a bijection on [0, len(p)).
func (p Permutation) Validate() error {
	seen := make([]bool, len(p))
	for old, new := range p {
		if int(new) >= len(p) {
			return fmt.Errorf("reorder: p[%d]=%d out of range", old, new)
		}
		if seen[new] {
			return fmt.Errorf("reorder: duplicate target %d", new)
		}
		seen[new] = true
	}
	return nil
}

// Apply relabels the graph according to p, producing a new CSR in which
// old vertex v is now p[v]. Edge weights are preserved.
func Apply(g *graph.CSR, p Permutation) *graph.CSR {
	n := g.NumVertices()
	edges := make([]graph.Edge, 0, g.NumEdges())
	weighted := g.Weighted()
	for v := uint32(0); v < n; v++ {
		nb := g.OutNeighbors(v)
		var w []int32
		if weighted {
			w = g.OutNeighborWeights(v)
		}
		for i, u := range nb {
			e := graph.Edge{Src: p[v], Dst: p[u]}
			if weighted {
				e.Weight = w[i]
			}
			edges = append(edges, e)
		}
	}
	out, err := graph.FromEdges(n, edges, weighted)
	if err != nil {
		panic(err) // permutation preserves range by construction
	}
	return out
}

// DegreeSource selects which degree drives hotness classification. The
// paper's skew-aware techniques sort by the degree that predicts Property
// Array reuse: out-degree for pull-based computations and in-degree for
// push-based ones. Sum is a robust default for frameworks that switch
// directions (Ligra).
type DegreeSource int

// Degree sources.
const (
	BySum DegreeSource = iota
	ByIn
	ByOut
)

func degreeFunc(g *graph.CSR, src DegreeSource) func(graph.VertexID) uint32 {
	switch src {
	case ByIn:
		return g.InDegree
	case ByOut:
		return g.OutDegree
	default:
		return func(v graph.VertexID) uint32 { return g.InDegree(v) + g.OutDegree(v) }
	}
}

func avgDegree(n uint32, degree func(graph.VertexID) uint32) float64 {
	if n == 0 {
		return 0
	}
	var total uint64
	for v := uint32(0); v < n; v++ {
		total += uint64(degree(v))
	}
	return float64(total) / float64(n)
}

// Sort reorders vertices by sorting them in descending order of degree
// (ties broken by original ID for determinism). Effective at improving
// spatial locality but maximally destructive to existing graph structure.
func Sort(g *graph.CSR, src DegreeSource) Permutation {
	n := g.NumVertices()
	degree := degreeFunc(g, src)
	order := make([]graph.VertexID, n)
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := degree(order[i]), degree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	p := make(Permutation, n)
	for newID, old := range order {
		p[old] = uint32(newID)
	}
	return p
}

// HubSort segregates hot vertices (degree >= average) at the start of the
// ID space, sorted in descending order of degree, while preserving the
// relative order of cold vertices [Zhang et al., Big Data'17]. It sorts
// only the hot minority, keeping reordering cost low and cold-vertex
// structure intact.
func HubSort(g *graph.CSR, src DegreeSource) Permutation {
	n := g.NumVertices()
	degree := degreeFunc(g, src)
	avg := avgDegree(n, degree)
	var hot []graph.VertexID
	for v := uint32(0); v < n; v++ {
		if float64(degree(v)) >= avg {
			hot = append(hot, v)
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		di, dj := degree(hot[i]), degree(hot[j])
		if di != dj {
			return di > dj
		}
		return hot[i] < hot[j]
	})
	p := make(Permutation, n)
	for i := range p {
		p[i] = ^uint32(0)
	}
	next := uint32(0)
	for _, v := range hot {
		p[v] = next
		next++
	}
	for v := uint32(0); v < n; v++ {
		if p[v] == ^uint32(0) {
			p[v] = next
			next++
		}
	}
	return p
}

// DBGGroups is the number of degree groups used by DBG. The DBG paper
// (Faldu et al., IISWC'19) uses a small constant number of groups (8).
const DBGGroups = 8

// DBG implements Degree-Based Grouping: vertices are coarsely partitioned
// into DBGGroups groups by degree thresholds that double starting at the
// average degree; within each group the original vertex order is preserved
// (maintaining community structure), and groups are laid out from hottest
// to coldest. No sorting is involved, so the reordering cost is a linear
// scan.
func DBG(g *graph.CSR, src DegreeSource) Permutation {
	return dbg(g.NumVertices(), degreeFunc(g, src))
}

// dbg is DBG over n vertices given only their degrees: the grouping reads
// nothing else of the graph.
func dbg(n uint32, degree func(graph.VertexID) uint32) Permutation {
	avg := avgDegree(n, degree)
	// Group 0: deg >= avg*2^(DBGGroups-2) ... Group DBGGroups-2: deg >= avg,
	// Group DBGGroups-1: deg < avg (the cold tail).
	groupOf := func(d uint32) int {
		if float64(d) < avg {
			return DBGGroups - 1
		}
		t := avg
		for i := DBGGroups - 2; i > 0; i-- {
			if float64(d) < t*2 {
				return i
			}
			t *= 2
		}
		return 0
	}
	counts := make([]uint32, DBGGroups)
	for v := uint32(0); v < n; v++ {
		counts[groupOf(degree(v))]++
	}
	// Hottest group first; sloppy counting sort preserving in-group order.
	starts := make([]uint32, DBGGroups)
	var acc uint32
	for i := 0; i < DBGGroups; i++ {
		starts[i] = acc
		acc += counts[i]
	}
	p := make(Permutation, n)
	for v := uint32(0); v < n; v++ {
		grp := groupOf(degree(v))
		p[v] = starts[grp]
		starts[grp]++
	}
	return p
}

// Technique names a reordering algorithm for experiment harnesses.
type Technique struct {
	Name string
	Run  func(g *graph.CSR, src DegreeSource) Permutation
}

// Techniques returns the reordering techniques evaluated in Fig. 10 of the
// paper, in its order: Sort, HubSort, DBG, Gorder.
func Techniques() []Technique {
	return []Technique{
		{Name: "Sort", Run: Sort},
		{Name: "HubSort", Run: HubSort},
		{Name: "DBG", Run: DBG},
		{Name: "Gorder", Run: func(g *graph.CSR, src DegreeSource) Permutation {
			return Gorder(g, DefaultGorderWindow)
		}},
	}
}

// ByName returns the named technique ("Sort", "HubSort", "DBG", "Gorder",
// "Gorder+DBG" or "Identity"). Each technique has exactly one name: it is
// part of a job's content address.
func ByName(name string) (Technique, error) {
	if name == "Identity" {
		return Technique{Name: "Identity", Run: func(g *graph.CSR, _ DegreeSource) Permutation {
			return Identity(g.NumVertices())
		}}, nil
	}
	if name == "Gorder+DBG" {
		return Technique{Name: "Gorder+DBG", Run: func(g *graph.CSR, src DegreeSource) Permutation {
			return GorderThenDBG(g, DefaultGorderWindow, src)
		}}, nil
	}
	for _, t := range Techniques() {
		if t.Name == name {
			return t, nil
		}
	}
	return Technique{}, fmt.Errorf("reorder: unknown technique %q", name)
}

// Timed runs a technique and reports the permutation together with the
// wall-clock reordering cost, used by the Fig. 10a experiment to account
// for reordering overhead in end-to-end speed-ups.
func Timed(t Technique, g *graph.CSR, src DegreeSource) (Permutation, time.Duration) {
	start := time.Now()
	p := t.Run(g, src)
	return p, time.Since(start)
}
