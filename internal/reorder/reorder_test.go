package reorder

import (
	"testing"
	"testing/quick"

	"grasp/internal/graph"
)

func TestIdentity(t *testing.T) {
	p := Identity(10)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, v := range p {
		if uint32(i) != v {
			t.Fatalf("identity broken at %d", i)
		}
	}
}

func TestInverse(t *testing.T) {
	g := graph.GenZipf(500, 8, 0.7, 1, false)
	p := Sort(g, BySum)
	inv := p.Inverse()
	for old := range p {
		if inv[p[old]] != uint32(old) {
			t.Fatalf("inverse broken at %d", old)
		}
	}
}

func TestValidateCatchesBadPerms(t *testing.T) {
	bad := Permutation{0, 0, 2} // duplicate
	if bad.Validate() == nil {
		t.Fatal("expected duplicate error")
	}
	bad2 := Permutation{0, 5, 2} // out of range
	if bad2.Validate() == nil {
		t.Fatal("expected range error")
	}
	good := Permutation{2, 0, 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

// checkTechnique verifies that a technique yields a valid permutation and
// that relabeling preserves graph size and degree multiset.
func checkTechnique(t *testing.T, name string, g *graph.CSR, p Permutation) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rg := Apply(g, p)
	if rg.NumVertices() != g.NumVertices() || rg.NumEdges() != g.NumEdges() {
		t.Fatalf("%s: size changed", name)
	}
	if err := rg.Validate(); err != nil {
		t.Fatalf("%s: relabeled graph invalid: %v", name, err)
	}
	// Degree preserved under relabeling: deg_new(p[v]) == deg_old(v).
	for v := uint32(0); v < g.NumVertices(); v++ {
		if rg.OutDegree(p[v]) != g.OutDegree(v) {
			t.Fatalf("%s: out-degree not preserved at %d", name, v)
		}
		if rg.InDegree(p[v]) != g.InDegree(v) {
			t.Fatalf("%s: in-degree not preserved at %d", name, v)
		}
	}
}

func TestAllTechniquesValid(t *testing.T) {
	g := graph.GenZipf(800, 10, 0.75, 3, true)
	for _, tech := range Techniques() {
		p := tech.Run(g, BySum)
		checkTechnique(t, tech.Name, g, p)
	}
}

func TestSortDescendingDegree(t *testing.T) {
	g := graph.GenZipf(1000, 12, 0.8, 5, false)
	p := Sort(g, BySum)
	rg := Apply(g, p)
	deg := func(v graph.VertexID) uint32 { return rg.InDegree(v) + rg.OutDegree(v) }
	for v := uint32(1); v < rg.NumVertices(); v++ {
		if deg(v-1) < deg(v) {
			t.Fatalf("degrees not descending at %d: %d < %d", v, deg(v-1), deg(v))
		}
	}
}

func TestSortByInAndOut(t *testing.T) {
	g := graph.GenZipf(500, 10, 0.8, 6, false)
	for _, src := range []DegreeSource{ByIn, ByOut} {
		p := Sort(g, src)
		rg := Apply(g, p)
		deg := rg.InDegree
		if src == ByOut {
			deg = rg.OutDegree
		}
		for v := uint32(1); v < rg.NumVertices(); v++ {
			if deg(v-1) < deg(v) {
				t.Fatalf("src=%v: degrees not descending at %d", src, v)
			}
		}
	}
}

func TestHubSortSegregatesHot(t *testing.T) {
	g := graph.GenZipf(1000, 12, 0.8, 5, false)
	p := HubSort(g, BySum)
	checkTechnique(t, "HubSort", g, p)
	rg := Apply(g, p)
	deg := func(v graph.VertexID) uint32 { return rg.InDegree(v) + rg.OutDegree(v) }
	var total uint64
	for v := uint32(0); v < rg.NumVertices(); v++ {
		total += uint64(deg(v))
	}
	avg := float64(total) / float64(rg.NumVertices())
	// All hot vertices must precede all cold vertices.
	seenCold := false
	for v := uint32(0); v < rg.NumVertices(); v++ {
		isHot := float64(deg(v)) >= avg
		if isHot && seenCold {
			t.Fatalf("hot vertex %d appears after a cold vertex", v)
		}
		if !isHot {
			seenCold = true
		}
	}
	// Hot prefix is degree-sorted.
	for v := uint32(1); v < rg.NumVertices(); v++ {
		if float64(deg(v)) >= avg && deg(v-1) < deg(v) {
			t.Fatalf("hot prefix not sorted at %d", v)
		}
	}
}

func TestHubSortPreservesColdOrder(t *testing.T) {
	g := graph.GenZipf(1000, 12, 0.8, 5, false)
	p := HubSort(g, BySum)
	deg := func(v graph.VertexID) uint32 { return g.InDegree(v) + g.OutDegree(v) }
	var total uint64
	for v := uint32(0); v < g.NumVertices(); v++ {
		total += uint64(deg(v))
	}
	avg := float64(total) / float64(g.NumVertices())
	lastNew := int64(-1)
	for v := uint32(0); v < g.NumVertices(); v++ {
		if float64(deg(v)) < avg {
			if int64(p[v]) < lastNew {
				t.Fatalf("cold relative order broken at %d", v)
			}
			lastNew = int64(p[v])
		}
	}
}

func TestDBGGroupsMonotonic(t *testing.T) {
	g := graph.GenZipf(2000, 12, 0.75, 7, false)
	p := DBG(g, BySum)
	checkTechnique(t, "DBG", g, p)
	rg := Apply(g, p)
	deg := func(v graph.VertexID) uint32 { return rg.InDegree(v) + rg.OutDegree(v) }
	var total uint64
	for v := uint32(0); v < rg.NumVertices(); v++ {
		total += uint64(deg(v))
	}
	avg := float64(total) / float64(rg.NumVertices())
	// Once we enter the cold tail (deg < avg), no hot vertex may follow.
	seenCold := false
	for v := uint32(0); v < rg.NumVertices(); v++ {
		if float64(deg(v)) < avg {
			seenCold = true
		} else if seenCold {
			t.Fatalf("hot vertex at %d after cold tail began", v)
		}
	}
}

func TestDBGPreservesOrderWithinColdGroup(t *testing.T) {
	g := graph.GenZipf(1000, 12, 0.8, 9, false)
	p := DBG(g, BySum)
	deg := func(v graph.VertexID) uint32 { return g.InDegree(v) + g.OutDegree(v) }
	var total uint64
	for v := uint32(0); v < g.NumVertices(); v++ {
		total += uint64(deg(v))
	}
	avg := float64(total) / float64(g.NumVertices())
	lastNew := int64(-1)
	for v := uint32(0); v < g.NumVertices(); v++ {
		if float64(deg(v)) < avg {
			if int64(p[v]) < lastNew {
				t.Fatalf("cold in-group order broken at %d", v)
			}
			lastNew = int64(p[v])
		}
	}
}

func TestGorderSmallGraph(t *testing.T) {
	g := graph.GenGrid(8, 8)
	p := Gorder(g, DefaultGorderWindow)
	checkTechnique(t, "Gorder", g, p)
}

func TestGorderPlacesNeighborsNearby(t *testing.T) {
	// On a path graph, Gorder should essentially follow the path: the
	// average |p[u]-p[v]| over edges must be far below random (~n/3).
	g := graph.GenPath(200)
	p := Gorder(g, DefaultGorderWindow)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	var dist, count float64
	for v := uint32(0); v < g.NumVertices(); v++ {
		for _, u := range g.OutNeighbors(v) {
			d := int64(p[v]) - int64(p[u])
			if d < 0 {
				d = -d
			}
			dist += float64(d)
			count++
		}
	}
	if avg := dist / count; avg > 20 {
		t.Fatalf("gorder average edge distance %.1f on a path, want small", avg)
	}
}

func TestGorderThenDBG(t *testing.T) {
	g := graph.GenZipf(600, 10, 0.8, 11, false)
	p := GorderThenDBG(g, DefaultGorderWindow, BySum)
	checkTechnique(t, "Gorder+DBG", g, p)
	// Hot vertices must be segregated at the front (the DBG property).
	rg := Apply(g, p)
	deg := func(v graph.VertexID) uint32 { return rg.InDegree(v) + rg.OutDegree(v) }
	var total uint64
	for v := uint32(0); v < rg.NumVertices(); v++ {
		total += uint64(deg(v))
	}
	avg := float64(total) / float64(rg.NumVertices())
	seenCold := false
	for v := uint32(0); v < rg.NumVertices(); v++ {
		if float64(deg(v)) < avg {
			seenCold = true
		} else if seenCold {
			t.Fatalf("hot vertex after cold tail at %d", v)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"Sort", "HubSort", "DBG", "Gorder", "Gorder+DBG", "Identity"} {
		tech, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tech.Run == nil {
			t.Fatalf("%s: nil Run", name)
		}
	}
	// A second name for a technique would give one job two content addresses.
	for _, name := range []string{"bogus", "none"} {
		if _, err := ByName(name); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestTimedReportsDuration(t *testing.T) {
	g := graph.GenZipf(500, 8, 0.8, 13, false)
	tech, _ := ByName("DBG")
	p, d := Timed(tech, g, BySum)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if d < 0 {
		t.Fatal("negative duration")
	}
}

func TestApplyPreservesWeights(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1, Weight: 42}, {Src: 1, Dst: 2, Weight: 7}}
	g, err := graph.FromEdges(3, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	p := Permutation{2, 1, 0} // reverse
	rg := Apply(g, p)
	// Old edge 0->1 (w 42) becomes 2->1.
	nb, w := rg.OutNeighbors(2), rg.OutNeighborWeights(2)
	if len(nb) != 1 || nb[0] != 1 || w[0] != 42 {
		t.Fatalf("weight lost: %v %v", nb, w)
	}
}

// Property: every technique produces a valid permutation on random graphs.
func TestTechniquesQuick(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := uint32(nRaw%100) + 5
		g := graph.GenUniform(n, 4, seed, false)
		for _, tech := range Techniques() {
			if tech.Name == "Gorder" && n > 60 {
				continue // keep quick-check fast
			}
			p := tech.Run(g, BySum)
			if p.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSortStableTieBreak(t *testing.T) {
	// A cycle has all-equal degrees; Sort must fall back to ID order,
	// i.e. produce the identity.
	g := graph.GenCycle(50)
	p := Sort(g, BySum)
	for i, v := range p {
		if uint32(i) != v {
			t.Fatalf("tie-break not by ID at %d -> %d", i, v)
		}
	}
}
