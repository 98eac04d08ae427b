package stream

import (
	"testing"
	"testing/quick"

	"grasp/internal/graph"
	"grasp/internal/reorder"
)

func TestAddRemoveEdge(t *testing.T) {
	d := NewDynamicGraph(4, true)
	if err := d.AddEdge(graph.Edge{Src: 0, Dst: 1, Weight: 5}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(graph.Edge{Src: 0, Dst: 2, Weight: 3}); err != nil {
		t.Fatal(err)
	}
	if d.NumEdges() != 2 || d.OutDegree(0) != 2 {
		t.Fatalf("edge bookkeeping wrong: m=%d deg=%d", d.NumEdges(), d.OutDegree(0))
	}
	if !d.RemoveEdge(graph.Edge{Src: 0, Dst: 1, Weight: 5}) {
		t.Fatal("failed to remove existing edge")
	}
	if d.RemoveEdge(graph.Edge{Src: 0, Dst: 1, Weight: 5}) {
		t.Fatal("removed an absent edge")
	}
	if d.NumEdges() != 1 {
		t.Fatalf("m=%d after removal, want 1", d.NumEdges())
	}
	if err := d.AddEdge(graph.Edge{Src: 0, Dst: 9}); err == nil {
		t.Fatal("expected range error")
	}
}

func TestAddVertex(t *testing.T) {
	d := NewDynamicGraph(2, false)
	v := d.AddVertex()
	if v != 2 || d.NumVertices() != 3 {
		t.Fatalf("AddVertex -> %d (n=%d)", v, d.NumVertices())
	}
	if err := d.AddEdge(graph.Edge{Src: v, Dst: 0}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := graph.GenZipf(300, 8, 0.9, 3, true)
	d := FromCSR(g)
	if d.NumEdges() != g.NumEdges() {
		t.Fatalf("FromCSR lost edges: %d vs %d", d.NumEdges(), g.NumEdges())
	}
	snap := d.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if snap.NumEdges() != g.NumEdges() {
		t.Fatal("snapshot edge count differs")
	}
	// Snapshot of an unmodified graph reproduces the original adjacency.
	for v := uint32(0); v < g.NumVertices(); v++ {
		a, b := g.OutNeighbors(v), snap.OutNeighbors(v)
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("neighbor mismatch at %d[%d]", v, i)
			}
		}
	}
}

func TestApplyBatch(t *testing.T) {
	d := NewDynamicGraph(10, true)
	batch := []Update{
		{Add: true, Edge: graph.Edge{Src: 1, Dst: 2, Weight: 1}},
		{Add: true, Edge: graph.Edge{Src: 2, Dst: 3, Weight: 1}},
		{Add: false, Edge: graph.Edge{Src: 1, Dst: 2, Weight: 1}},
		{Add: false, Edge: graph.Edge{Src: 5, Dst: 6, Weight: 1}}, // absent: ignored
	}
	if err := d.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if d.NumEdges() != 1 {
		t.Fatalf("m=%d after batch, want 1", d.NumEdges())
	}
}

func TestGenUpdateBatchShape(t *testing.T) {
	g := graph.GenZipf(500, 10, 0.9, 7, true)
	d := FromCSR(g)
	batch := GenUpdateBatch(d, graph.NewZipfSampler(d.NumVertices(), 0.9), 200, 0.7, 11)
	adds, removes := 0, 0
	for _, u := range batch {
		if u.Add {
			adds++
		} else {
			removes++
		}
	}
	if adds != 140 {
		t.Fatalf("adds=%d, want 140", adds)
	}
	if removes == 0 {
		t.Fatal("no removals generated")
	}
	if err := d.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixCoverage(t *testing.T) {
	// On a DBG-reordered skewed graph, a small prefix covers a large edge
	// share; the same prefix on the shuffled original covers ~prefix/n.
	g := graph.GenZipf(2000, 12, 1.0, 5, false)
	prefix := uint32(200) // 10% of vertices
	shuffled := PrefixCoverage(g, prefix)
	ordered := PrefixCoverage(reorder.Apply(g, reorder.DBG(g, reorder.BySum)), prefix)
	if ordered < 2*shuffled {
		t.Fatalf("DBG prefix coverage %.2f not much better than shuffled %.2f", ordered, shuffled)
	}
	if ordered < 0.5 {
		t.Fatalf("DBG prefix coverage %.2f unexpectedly low", ordered)
	}
	// Degenerate prefixes.
	if PrefixCoverage(g, 0) != 0 {
		t.Fatal("empty prefix must cover nothing")
	}
	if PrefixCoverage(g, g.NumVertices()+100) != 1 {
		t.Fatal("full prefix must cover everything")
	}
}

func TestStalenessStudySlowDrift(t *testing.T) {
	// The Sec. VI claim: after modest update batches the stale ordering's
	// prefix coverage stays close to fresh reordering.
	g := graph.GenZipf(2000, 12, 1.0, 9, true)
	g = reorder.Apply(g, reorder.DBG(g, reorder.BySum))
	points := StalenessStudy(g, 200, 5, 500, 0.7, 1.0, 42)
	if len(points) != 5 {
		t.Fatalf("want 5 points, got %d", len(points))
	}
	for _, p := range points {
		if p.FreshCoverage < p.StaleCoverage-1e-9 {
			t.Fatalf("batch %d: fresh coverage %.3f below stale %.3f", p.Batch, p.FreshCoverage, p.StaleCoverage)
		}
		if p.StaleCoverage < 0.6*p.FreshCoverage {
			t.Fatalf("batch %d: stale ordering degraded too fast (%.3f vs %.3f)",
				p.Batch, p.StaleCoverage, p.FreshCoverage)
		}
	}
	// Degradation is monotone-ish: last stale coverage <= first (drift).
	if points[len(points)-1].StaleCoverage > points[0].StaleCoverage+0.05 {
		t.Fatal("stale coverage increased implausibly")
	}
}

// Property: ApplyBatch never corrupts the structure (snapshot validates,
// edge count matches adds minus successful removals).
func TestDynamicGraphQuick(t *testing.T) {
	f := func(seed uint64, nOps uint8) bool {
		r := graph.NewRNG(seed)
		d := NewDynamicGraph(50, false)
		var m uint64
		for i := 0; i < int(nOps); i++ {
			if r.Uint32n(3) > 0 { // 2/3 adds
				e := graph.Edge{Src: r.Uint32n(50), Dst: r.Uint32n(50)}
				if d.AddEdge(e) == nil {
					m++
				}
			} else {
				e := graph.Edge{Src: r.Uint32n(50), Dst: r.Uint32n(50)}
				if d.RemoveEdge(e) {
					m--
				}
			}
		}
		if d.NumEdges() != m {
			return false
		}
		return d.Snapshot().Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
