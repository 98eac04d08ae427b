package graph

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestFromEdgesBasic(t *testing.T) {
	// The example graph from Fig. 1(a) of the paper.
	edges := []Edge{
		{Src: 3, Dst: 0}, {Src: 2, Dst: 1}, {Src: 0, Dst: 1},
		{Src: 5, Dst: 1}, {Src: 1, Dst: 2}, {Src: 5, Dst: 2},
		{Src: 4, Dst: 3}, {Src: 5, Dst: 3}, {Src: 2, Dst: 4},
		{Src: 5, Dst: 4},
	}
	g, err := FromEdges(6, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 6 || g.NumEdges() != 10 {
		t.Fatalf("got %d vertices %d edges, want 6/10", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// In-edge offsets in the spirit of Fig. 1(b): dest 0 has {3},
	// dest 1 has {0,2,5}, dest 2 has {1,5}, dest 3 has {4,5},
	// dest 4 has {2,5}, dest 5 has none.
	wantIn := []uint64{0, 1, 4, 6, 8, 10, 10}
	for i, w := range wantIn {
		if g.InIndex[i] != w {
			t.Errorf("InIndex[%d] = %d, want %d", i, g.InIndex[i], w)
		}
	}
	// In-neighbors of vertex 1 are {2, 0, 5} (sorted: 0,2,5).
	in1 := g.InNeighbors(1)
	want := []VertexID{0, 2, 5}
	if len(in1) != len(want) {
		t.Fatalf("in-neighbors of 1: %v, want %v", in1, want)
	}
	for i := range want {
		if in1[i] != want[i] {
			t.Fatalf("in-neighbors of 1: %v, want %v", in1, want)
		}
	}
	if g.OutDegree(5) != 4 {
		t.Errorf("out-degree of 5 = %d, want 4", g.OutDegree(5))
	}
	if g.InDegree(1) != 3 {
		t.Errorf("in-degree of 1 = %d, want 3", g.InDegree(1))
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	_, err := FromEdges(3, []Edge{{Src: 0, Dst: 3}}, false)
	if err == nil {
		t.Fatal("expected error for out-of-range edge")
	}
	_, err = FromEdges(3, []Edge{{Src: 7, Dst: 0}}, false)
	if err == nil {
		t.Fatal("expected error for out-of-range source")
	}
}

func TestFromEdgesEmpty(t *testing.T) {
	g, err := FromEdges(4, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("want 0 edges, got %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.OutNeighbors(2)) != 0 {
		t.Fatal("expected no neighbors")
	}
}

func TestSelfLoopsAndParallelEdges(t *testing.T) {
	edges := []Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 0, Dst: 1}}
	g, err := FromEdges(2, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(0) != 3 {
		t.Fatalf("out-degree 0 = %d, want 3 (self-loop + parallel kept)", g.OutDegree(0))
	}
	if g.InDegree(1) != 2 {
		t.Fatalf("in-degree 1 = %d, want 2", g.InDegree(1))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTranspose(t *testing.T) {
	g := GenPath(5)
	tr := g.Transpose()
	if tr.OutDegree(4) != 1 || tr.OutNeighbors(4)[0] != 3 {
		t.Fatalf("transpose: out-neighbors of 4 = %v, want [3]", tr.OutNeighbors(4))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Double transpose is the original.
	tt := tr.Transpose()
	if tt.OutDegree(0) != g.OutDegree(0) || tt.InDegree(0) != g.InDegree(0) {
		t.Fatal("double transpose differs from original")
	}
}

func TestWeightsParallelToEdges(t *testing.T) {
	edges := []Edge{
		{Src: 0, Dst: 2, Weight: 7},
		{Src: 0, Dst: 1, Weight: 3},
		{Src: 1, Dst: 2, Weight: 5},
	}
	g, err := FromEdges(3, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	nb := g.OutNeighbors(0)
	w := g.OutNeighborWeights(0)
	if nb[0] != 1 || w[0] != 3 || nb[1] != 2 || w[1] != 7 {
		t.Fatalf("sorted neighbors/weights mismatch: %v %v", nb, w)
	}
	// In-edge side: in-neighbors of 2 are 0 (w=7) and 1 (w=5).
	inb, iw := g.InNeighbors(2), g.InNeighborWeights(2)
	if inb[0] != 0 || iw[0] != 7 || inb[1] != 1 || iw[1] != 5 {
		t.Fatalf("in side weights mismatch: %v %v", inb, iw)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := GenRMATDefault(8, 4, 42, true)
	edges := g.Edges()
	g2, err := FromEdges(g.NumVertices(), edges, true)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count mismatch: %d vs %d", g2.NumEdges(), g.NumEdges())
	}
	e2 := g2.Edges()
	for i := range edges {
		if edges[i] != e2[i] {
			t.Fatalf("edge %d differs after round trip: %v vs %v", i, edges[i], e2[i])
		}
	}
}

// Property: FromEdges always produces a CSR satisfying Validate, with
// degree sums equal to the edge count on both sides.
func TestCSRInvariantsQuick(t *testing.T) {
	f := func(seed uint64, nRaw uint16, mRaw uint16) bool {
		n := uint32(nRaw%200) + 1
		m := int(mRaw % 1000)
		r := NewRNG(seed)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{Src: r.Uint32n(n), Dst: r.Uint32n(n), Weight: int32(r.Uint32n(100))}
		}
		g, err := FromEdges(n, edges, true)
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		var outSum, inSum uint64
		for v := uint32(0); v < n; v++ {
			outSum += uint64(g.OutDegree(v))
			inSum += uint64(g.InDegree(v))
		}
		return outSum == uint64(m) && inSum == uint64(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGenPathStructure(t *testing.T) {
	g := GenPath(10)
	for v := uint32(0); v < 9; v++ {
		if g.OutDegree(v) != 1 || g.OutNeighbors(v)[0] != v+1 {
			t.Fatalf("path broken at %d", v)
		}
	}
	if g.OutDegree(9) != 0 {
		t.Fatal("last vertex should have no out-edges")
	}
}

func TestGenCycleStructure(t *testing.T) {
	g := GenCycle(7)
	if g.NumEdges() != 7 {
		t.Fatalf("cycle edges = %d, want 7", g.NumEdges())
	}
	for v := uint32(0); v < 7; v++ {
		if g.OutDegree(v) != 1 || g.InDegree(v) != 1 {
			t.Fatalf("cycle degree broken at %d", v)
		}
	}
}

func TestGenStarSkew(t *testing.T) {
	g := GenStar(100)
	s := OutSkew(g)
	// Star: vertex 0 has degree 99, others 1; avg < 2, so all are "hot"
	// except... all leaves have degree 1 < avg(=1.98), so only hub is hot.
	if s.HotVertexPct > 2 {
		t.Fatalf("star hot-vertex pct = %.1f, want ~1", s.HotVertexPct)
	}
	if s.EdgeCoverPct < 49 {
		t.Fatalf("star edge coverage = %.1f, want ~50", s.EdgeCoverPct)
	}
	if s.MaxDegree != 99 {
		t.Fatalf("star max degree = %d, want 99", s.MaxDegree)
	}
}

func TestGenCompleteAndGrid(t *testing.T) {
	g := GenComplete(6)
	if g.NumEdges() != 30 {
		t.Fatalf("complete(6) edges = %d, want 30", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	gr := GenGrid(4, 5)
	if gr.NumVertices() != 20 {
		t.Fatalf("grid vertices = %d", gr.NumVertices())
	}
	// Interior vertex has degree 4 both ways.
	interior := uint32(1*5 + 2)
	if gr.OutDegree(interior) != 4 || gr.InDegree(interior) != 4 {
		t.Fatalf("grid interior degree = %d/%d, want 4/4", gr.OutDegree(interior), gr.InDegree(interior))
	}
	if err := gr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenUniformShape(t *testing.T) {
	g := GenUniform(2000, 16, 1, false)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.AvgDegree() < 15 || g.AvgDegree() > 17 {
		t.Fatalf("uniform avg degree = %.2f, want ~16", g.AvgDegree())
	}
	s := OutSkew(g)
	// Uniform: roughly half the vertices are at/above average and cover a
	// bit more than half the edges — i.e. essentially no skew.
	if s.HotVertexPct < 35 || s.HotVertexPct > 65 {
		t.Fatalf("uniform hot pct = %.1f, want ~50", s.HotVertexPct)
	}
	if s.EdgeCoverPct > 75 {
		t.Fatalf("uniform edge coverage = %.1f, want < 75", s.EdgeCoverPct)
	}
}

func TestGenZipfSkew(t *testing.T) {
	g := GenZipf(4000, 16, 0.75, 2, false)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := OutSkew(g)
	// Power-law: a small hot set covers most edges (Table I shape:
	// 9-26% of vertices cover 81-93% of edges).
	if s.HotVertexPct > 35 {
		t.Fatalf("zipf hot pct = %.1f, want < 35", s.HotVertexPct)
	}
	if s.EdgeCoverPct < 60 {
		t.Fatalf("zipf edge coverage = %.1f, want > 60", s.EdgeCoverPct)
	}
}

func TestGenRMATSkew(t *testing.T) {
	g := GenRMATDefault(12, 16, 3, false)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	in := InSkew(g)
	if in.HotVertexPct > 35 {
		t.Fatalf("rmat hot pct = %.1f, want < 35", in.HotVertexPct)
	}
	if in.EdgeCoverPct < 60 {
		t.Fatalf("rmat edge coverage = %.1f, want > 60", in.EdgeCoverPct)
	}
}

func TestSkewOrderingAcrossDatasets(t *testing.T) {
	// Verify the intended relative skew ordering at reduced scale:
	// high-skew datasets are more skewed than fr, which is more than uni.
	giniOf := func(name string) float64 {
		d, err := DatasetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := d.Generate(false, 16)
		return GiniCoefficient(g, false)
	}
	kr, lj, fr, uni := giniOf("kr"), giniOf("lj"), giniOf("fr"), giniOf("uni")
	if !(kr > fr && lj > fr && fr > uni) {
		t.Fatalf("skew ordering violated: kr=%.3f lj=%.3f fr=%.3f uni=%.3f", kr, lj, fr, uni)
	}
}

func TestDatasetByName(t *testing.T) {
	for _, want := range []string{"lj", "pl", "tw", "kr", "sd", "fr", "uni"} {
		d, err := DatasetByName(want)
		if err != nil {
			t.Fatalf("dataset %s: %v", want, err)
		}
		if d.Name != want {
			t.Fatalf("got %s, want %s", d.Name, want)
		}
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
	if len(HighSkewDatasets()) != 5 {
		t.Fatalf("want 5 high-skew datasets, got %d", len(HighSkewDatasets()))
	}
}

func TestHotVerticesOrdering(t *testing.T) {
	g := GenZipf(1000, 10, 0.8, 7, false)
	hot := HotVertices(g, false)
	if len(hot) == 0 {
		t.Fatal("no hot vertices found in a power-law graph")
	}
	for i := 1; i < len(hot); i++ {
		if g.OutDegree(hot[i-1]) < g.OutDegree(hot[i]) {
			t.Fatalf("hot vertices not in descending degree order at %d", i)
		}
	}
	// All hot vertices have degree >= average.
	avg := g.AvgDegree()
	for _, v := range hot {
		if float64(g.OutDegree(v)) < avg {
			t.Fatalf("vertex %d with degree %d < avg %.2f marked hot", v, g.OutDegree(v), avg)
		}
	}
}

func TestGiniBounds(t *testing.T) {
	// Regular graph: Gini = 0.
	g := GenCycle(50)
	if gini := GiniCoefficient(g, false); gini > 1e-9 {
		t.Fatalf("cycle gini = %f, want 0", gini)
	}
	// Star: extremely unequal.
	s := GenStar(100)
	if gini := GiniCoefficient(s, false); gini < 0.4 {
		t.Fatalf("star gini = %f, want > 0.4", gini)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := GenStar(10) // hub degree 9, leaves degree 1
	h := OutDegreeHistogram(g)
	if len(h) != 2 {
		t.Fatalf("histogram buckets = %d, want 2", len(h))
	}
	if h[0].Degree != 1 || h[0].Count != 9 || h[1].Degree != 9 || h[1].Count != 1 {
		t.Fatalf("unexpected histogram %v", h)
	}
	ih := InDegreeHistogram(g)
	if len(ih) != 2 {
		t.Fatalf("in histogram buckets = %d, want 2", len(ih))
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := GenRMATDefault(9, 8, 5, weighted)
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatal("size mismatch after round trip")
		}
		if g2.Weighted() != weighted {
			t.Fatal("weighted flag lost")
		}
		for v := uint32(0); v < g.NumVertices(); v++ {
			a, b := g.OutNeighbors(v), g2.OutNeighbors(v)
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
}

func TestSerializationBadInput(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Fatal("expected error on bad magic")
	}
	if _, err := ReadFrom(bytes.NewReader([]byte("GC"))); err == nil {
		t.Fatal("expected error on truncated magic")
	}
	g := GenPath(4)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadFrom(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected error on truncated body")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(100)
	diff := false
	a2 := NewRNG(99)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGUint32nBounds(t *testing.T) {
	r := NewRNG(7)
	for _, n := range []uint32{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			if v := r.Uint32n(n); v >= n {
				t.Fatalf("Uint32n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(500)
	seen := make([]bool, 500)
	for _, v := range p {
		if seen[v] {
			t.Fatalf("duplicate %d in permutation", v)
		}
		seen[v] = true
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
		sum += f
	}
	if mean := sum / 10000; mean < 0.45 || mean > 0.55 {
		t.Fatalf("Float64 mean = %f, want ~0.5", mean)
	}
}

func TestZipfSamplerSkew(t *testing.T) {
	r := NewRNG(5)
	z := NewZipfSampler(1000, 0.8)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[z.Sample(r)]++
	}
	// Low ranks must be much more popular than high ranks.
	lowMass, highMass := 0, 0
	for i := 0; i < 100; i++ {
		lowMass += counts[i]
	}
	for i := 900; i < 1000; i++ {
		highMass += counts[i]
	}
	if lowMass < 4*highMass {
		t.Fatalf("zipf not skewed: low=%d high=%d", lowMass, highMass)
	}
}

func TestDatasetGenerateScaleDiv(t *testing.T) {
	d, _ := DatasetByName("lj")
	g := d.Generate(false, 64)
	if g.NumVertices() != scaleN/64 {
		t.Fatalf("scaled vertices = %d, want %d", g.NumVertices(), scaleN/64)
	}
	// RMAT dataset scales by halving the scale parameter.
	k, _ := DatasetByName("kr")
	gk := k.Generate(false, 4)
	if gk.NumVertices() != 1<<15 {
		t.Fatalf("scaled kr vertices = %d, want %d", gk.NumVertices(), 1<<15)
	}
	// scaleDiv=0 behaves as 1.
	tiny, _ := DatasetByName("uni")
	if got := tiny.Generate(false, 0).NumVertices(); got != scaleN {
		t.Fatalf("scaleDiv=0 vertices = %d, want %d", got, scaleN)
	}
}

func TestStringSummary(t *testing.T) {
	g := GenPath(3)
	s := g.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}
