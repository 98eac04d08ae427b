package apps

import (
	"container/heap"
	"math"
	"reflect"
	"testing"

	"grasp/internal/graph"
	"grasp/internal/ligra"
	"grasp/internal/mem"
)

func nativeTracer() *ligra.Tracer { return ligra.NewTracer(nil) }

// --- Reference implementations for correctness checks ---

// refPageRank is a direct power-iteration PageRank (no framework).
func refPageRank(c *graph.CSR, iters int) []float64 {
	n := c.NumVertices()
	inv := 1 / float64(n)
	rank := make([]float64, n)
	next := make([]float64, n)
	for v := range rank {
		rank[v] = inv
	}
	for it := 0; it < iters; it++ {
		for v := range next {
			next[v] = 0
		}
		for v := uint32(0); v < n; v++ {
			if d := c.OutDegree(v); d > 0 {
				share := rank[v] / float64(d)
				for _, u := range c.OutNeighbors(v) {
					next[u] += share
				}
			}
		}
		for v := range rank {
			rank[v] = (1-Damping)*inv + Damping*next[v]
		}
	}
	return rank
}

// refDijkstra computes exact shortest distances with a binary heap.
func refDijkstra(c *graph.CSR, root graph.VertexID) []int64 {
	n := c.NumVertices()
	dist := make([]int64, n)
	for v := range dist {
		dist[v] = InfDist
	}
	dist[root] = 0
	pq := &distHeap{{v: root, d: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		w := c.OutNeighborWeights(it.v)
		for i, u := range c.OutNeighbors(it.v) {
			if nd := it.d + int64(w[i]); nd < dist[u] {
				dist[u] = nd
				heap.Push(pq, distItem{v: u, d: nd})
			}
		}
	}
	return dist
}

type distItem struct {
	v graph.VertexID
	d int64
}
type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// refBFSLevels computes BFS levels over out-edges.
func refBFSLevels(c *graph.CSR, root graph.VertexID) []int32 {
	n := c.NumVertices()
	lvl := make([]int32, n)
	for v := range lvl {
		lvl[v] = -1
	}
	lvl[root] = 0
	cur := []graph.VertexID{root}
	for depth := int32(1); len(cur) > 0; depth++ {
		var next []graph.VertexID
		for _, v := range cur {
			for _, u := range c.OutNeighbors(v) {
				if lvl[u] < 0 {
					lvl[u] = depth
					next = append(next, u)
				}
			}
		}
		cur = next
	}
	return lvl
}

// refSigma counts shortest paths per vertex from root via level-ordered DP.
func refSigma(c *graph.CSR, root graph.VertexID) []float64 {
	n := c.NumVertices()
	lvl := refBFSLevels(c, root)
	sigma := make([]float64, n)
	sigma[root] = 1
	// Process vertices in level order.
	maxLvl := int32(0)
	for _, l := range lvl {
		if l > maxLvl {
			maxLvl = l
		}
	}
	for depth := int32(1); depth <= maxLvl; depth++ {
		for v := uint32(0); v < n; v++ {
			if lvl[v] != depth {
				continue
			}
			for _, u := range c.InNeighbors(v) {
				if lvl[u] == depth-1 {
					sigma[v] += sigma[u]
				}
			}
		}
	}
	return sigma
}

// --- Tests ---

func testGraph(weighted bool) *ligra.Graph {
	c := graph.GenZipf(600, 8, 0.7, 99, weighted)
	return ligra.NewGraph(c)
}

func TestPRMatchesReference(t *testing.T) {
	for _, layout := range []Layout{LayoutMerged, LayoutSplit} {
		fg := testGraph(false)
		pr := NewPR(fg, 3, layout)
		pr.Run(nativeTracer())
		want := refPageRank(fg.C, 3)
		for v := range want {
			if math.Abs(pr.Rank[v]-want[v]) > 1e-12 {
				t.Fatalf("layout %v: rank[%d] = %g, want %g", layout, v, pr.Rank[v], want[v])
			}
		}
	}
}

func TestPRRankSumIsOne(t *testing.T) {
	fg := testGraph(false)
	pr := NewPR(fg, 5, LayoutMerged)
	pr.Run(nativeTracer())
	var sum float64
	for _, r := range pr.Rank {
		sum += r
	}
	// Dangling vertices leak rank mass; with few of them sum stays near 1.
	if sum < 0.5 || sum > 1.01 {
		t.Fatalf("rank sum = %f, want (0.5, 1.01]", sum)
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	for _, layout := range []Layout{LayoutMerged, LayoutSplit} {
		fg := testGraph(true)
		ss := NewSSSP(fg, 0, layout)
		ss.Run(nativeTracer())
		want := refDijkstra(fg.C, 0)
		for v := range want {
			if ss.Dist[v] != want[v] {
				t.Fatalf("layout %v: dist[%d] = %d, want %d", layout, v, ss.Dist[v], want[v])
			}
		}
	}
}

func TestSSSPOnPath(t *testing.T) {
	c := graph.GenPath(10)
	fg := ligra.NewGraph(c)
	ss := NewSSSP(fg, 0, LayoutMerged)
	ss.Run(nativeTracer())
	for v := uint32(0); v < 10; v++ {
		if ss.Dist[v] != int64(v) {
			t.Fatalf("dist[%d] = %d, want %d", v, ss.Dist[v], v)
		}
	}
}

func TestBCForwardSigma(t *testing.T) {
	fg := testGraph(false)
	bc := NewBC(fg, 0)
	bc.Run(nativeTracer())
	wantLvl := refBFSLevels(fg.C, 0)
	wantSigma := refSigma(fg.C, 0)
	for v := range wantLvl {
		if bc.level[v] != wantLvl[v] {
			t.Fatalf("level[%d] = %d, want %d", v, bc.level[v], wantLvl[v])
		}
		if math.Abs(bc.Sigma[v]-wantSigma[v]) > 1e-9 {
			t.Fatalf("sigma[%d] = %g, want %g", v, bc.Sigma[v], wantSigma[v])
		}
	}
}

func TestBCDependencyOnPath(t *testing.T) {
	// On a directed path 0->1->2->3->4, dep[v] counts descendants:
	// dep[0]=4, dep[1]=3, dep[2]=2, dep[3]=1, dep[4]=0.
	c := graph.GenPath(5)
	fg := ligra.NewGraph(c)
	bc := NewBC(fg, 0)
	bc.Run(nativeTracer())
	want := []float64{4, 3, 2, 1, 0}
	for v, w := range want {
		if math.Abs(bc.Dep[v]-w) > 1e-9 {
			t.Fatalf("dep[%d] = %g, want %g", v, bc.Dep[v], w)
		}
	}
}

func TestBCDependencyDiamond(t *testing.T) {
	// Diamond: 0->1, 0->2, 1->3, 2->3. sigma[3] = 2 via two paths;
	// dep[1] = dep[2] = sigma/sigma * (1+dep[3]) = 1/2.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}}
	c, err := graph.FromEdges(4, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	fg := ligra.NewGraph(c)
	bc := NewBC(fg, 0)
	bc.Run(nativeTracer())
	if bc.Sigma[3] != 2 {
		t.Fatalf("sigma[3] = %g, want 2", bc.Sigma[3])
	}
	if math.Abs(bc.Dep[1]-0.5) > 1e-9 || math.Abs(bc.Dep[2]-0.5) > 1e-9 {
		t.Fatalf("dep[1]=%g dep[2]=%g, want 0.5 each", bc.Dep[1], bc.Dep[2])
	}
	// Brandes: dep[0] = (1+dep[1]) + (1+dep[2]) = 3 (one unit per
	// reachable target 1, 2 and 3).
	if math.Abs(bc.Dep[0]-3) > 1e-9 {
		t.Fatalf("dep[0] = %g, want 3", bc.Dep[0])
	}
}

func TestRadiiOnCycle(t *testing.T) {
	// On a directed cycle every BFS eventually reaches every vertex; radius
	// estimates are bounded by n and positive for non-source vertices.
	c := graph.GenCycle(32)
	fg := ligra.NewGraph(c)
	r := NewRadii(fg, 4)
	r.Run(nativeTracer())
	for v := uint32(0); v < 32; v++ {
		if r.Radii[v] < 0 || r.Radii[v] > 32 {
			t.Fatalf("radii[%d] = %d out of range", v, r.Radii[v])
		}
	}
}

func TestRadiiMatchesBFSDepthSingleSample(t *testing.T) {
	// With one sample rooted at 0, the final radius of the last-reached
	// vertex equals its BFS level.
	c := graph.GenPath(8)
	fg := ligra.NewGraph(c)
	r := NewRadii(fg, 1)
	r.Run(nativeTracer())
	want := refBFSLevels(c, 0)
	for v := uint32(0); v < 8; v++ {
		if want[v] >= 0 && r.Radii[v] != want[v] {
			t.Fatalf("radii[%d] = %d, want %d", v, r.Radii[v], want[v])
		}
	}
}

func TestRegistry(t *testing.T) {
	fg := testGraph(true)
	for _, name := range Names() {
		app, err := New(name, ligra.NewGraph(fg.C), LayoutMerged)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := reflect.TypeOf(app).Elem().Name(); got != name {
			t.Fatalf("New(%q) built a %s", name, got)
		}
		if len(app.ABRArrays()) == 0 || len(app.ABRArrays()) > 2 {
			t.Fatalf("%s: %d ABR arrays, want 1..2", name, len(app.ABRArrays()))
		}
	}
	if _, err := New("nope", fg, LayoutMerged); err == nil {
		t.Fatal("expected error for unknown app")
	}
}

func TestTracedRunsProduceAccesses(t *testing.T) {
	for _, name := range Names() {
		c := graph.GenZipf(300, 6, 0.7, 5, true)
		fg := ligra.NewGraph(c)
		app, err := New(name, fg, LayoutMerged)
		if err != nil {
			t.Fatal(err)
		}
		var sink mem.CountingSink
		app.Run(ligra.NewTracer(&sink))
		total := sink.Reads + sink.Writes
		if total == 0 {
			t.Fatalf("%s: no accesses traced", name)
		}
		if sink.PropertyN == 0 {
			t.Fatalf("%s: no Property Array accesses traced", name)
		}
		// Property Arrays dominate LLC accesses in the paper (78-94%);
		// at the raw (pre-cache-filter) level they are at least a
		// significant share.
		if float64(sink.PropertyN)/float64(total) < 0.10 {
			t.Fatalf("%s: property share %.2f suspiciously low", name,
				float64(sink.PropertyN)/float64(total))
		}
	}
}

func TestTracedEqualsNativeResults(t *testing.T) {
	// Tracing must not perturb results: run PR twice, traced and native.
	c := graph.GenZipf(400, 8, 0.75, 7, false)
	n1 := NewPR(ligra.NewGraph(c), 3, LayoutMerged)
	n1.Run(nativeTracer())
	var rec mem.Recorder
	n2 := NewPR(ligra.NewGraph(c), 3, LayoutMerged)
	n2.Run(ligra.NewTracer(&rec))
	for v := range n1.Rank {
		if n1.Rank[v] != n2.Rank[v] {
			t.Fatalf("tracing changed PR result at %d", v)
		}
	}
	if len(rec.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
}

func TestDeterministicTraces(t *testing.T) {
	// The same app on the same graph must produce identical access streams
	// (simulation reproducibility).
	c := graph.GenZipf(300, 6, 0.7, 11, true)
	var r1, r2 mem.Recorder
	a1, _ := New("SSSP", ligra.NewGraph(c), LayoutMerged)
	a1.Run(ligra.NewTracer(&r1))
	a2, _ := New("SSSP", ligra.NewGraph(c), LayoutMerged)
	a2.Run(ligra.NewTracer(&r2))
	if len(r1.Trace) != len(r2.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(r1.Trace), len(r2.Trace))
	}
	for i := range r1.Trace {
		if r1.Trace[i] != r2.Trace[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func TestLayoutString(t *testing.T) {
	if LayoutMerged.String() != "merged" || LayoutSplit.String() != "split" {
		t.Fatal("layout names wrong")
	}
}

func TestPRDRankApproximatesPR(t *testing.T) {
	// After enough iterations PRD's ranks approximate PR's.
	c := graph.GenZipf(500, 8, 0.7, 13, false)
	prd := NewPRD(ligra.NewGraph(c), 30, LayoutMerged)
	prd.Run(nativeTracer())
	want := refPageRank(c, 30)
	var maxErr float64
	for v := range want {
		if e := math.Abs(prd.Rank[v] - want[v]); e > maxErr {
			maxErr = e
		}
	}
	// PRD truncates small deltas, so allow a loose tolerance relative to
	// the uniform mass 1/n = 0.002.
	if maxErr > 1e-3 {
		t.Fatalf("PRD max error vs PR = %g", maxErr)
	}
}

func TestSSSPUnreachable(t *testing.T) {
	// Vertex with no in-edges from the root side remains at InfDist.
	edges := []graph.Edge{{Src: 0, Dst: 1, Weight: 2}}
	c, err := graph.FromEdges(3, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewSSSP(ligra.NewGraph(c), 0, LayoutSplit)
	ss.Run(nativeTracer())
	if ss.Dist[2] != InfDist {
		t.Fatalf("unreachable vertex dist = %d", ss.Dist[2])
	}
	if ss.Dist[1] != 2 {
		t.Fatalf("dist[1] = %d, want 2", ss.Dist[1])
	}
}
