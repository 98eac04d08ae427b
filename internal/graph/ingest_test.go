package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadMatrixMarketGeneralInteger(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate integer general
% a comment
3 3 3
1 2 7
2 3 5
3 1 2
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %v", g)
	}
	if !g.Weighted() {
		t.Fatal("integer matrix parsed as unweighted")
	}
	if w := g.OutNeighborWeights(0)[0]; w != 7 {
		t.Fatalf("weight(0->1) = %d, want 7", w)
	}
}

func TestReadMatrixMarketSymmetricPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
4 4 3
2 1
3 2
4 4
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Two off-diagonal entries mirror; the diagonal entry (self-loop) does
	// not: 2*2 + 1 = 5 directed edges.
	if g.NumVertices() != 4 || g.NumEdges() != 5 {
		t.Fatalf("got %v, want 4 vertices / 5 edges", g)
	}
	if g.Weighted() {
		t.Fatal("pattern matrix parsed as weighted")
	}
	if g.OutDegree(0) != 1 || g.OutNeighbors(0)[0] != 1 {
		t.Fatal("mirror edge 0->1 missing")
	}
}

func TestReadMatrixMarketRealRounds(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 2.6\n"
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if w := g.OutNeighborWeights(0)[0]; w != 3 {
		t.Fatalf("weight = %d, want 3 (rounded from 2.6)", w)
	}
}

func TestReadMatrixMarketRectangular(t *testing.T) {
	// Rectangular matrices size the graph by the larger dimension.
	in := "%%MatrixMarket matrix coordinate pattern general\n2 5 2\n1 5\n2 4\n"
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 {
		t.Fatalf("vertices = %d, want 5", g.NumVertices())
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"bad banner":       "%%NotMatrixMarket matrix coordinate real general\n1 1 1\n1 1 1\n",
		"array format":     "%%MatrixMarket matrix array real general\n2 2\n1.0\n",
		"complex field":    "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"skew symmetry":    "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1\n",
		"no size line":     "%%MatrixMarket matrix coordinate real general\n% only comments\n",
		"bad size line":    "%%MatrixMarket matrix coordinate real general\n2 2\n",
		"row out of range": "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n",
		"col out of range": "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 3\n",
		"zero index":       "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n",
		"too few entries":  "%%MatrixMarket matrix coordinate pattern general\n2 2 3\n1 2\n",
		"too many entries": "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n2 1\n",
		"bad value":        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 zz\n",
		"value overflow":   "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 1e300\n",
		"missing weight":   "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2\n",
		"hostile dims":     "%%MatrixMarket matrix coordinate pattern general\n4000000000 4000000000 1\n1 1\n",
	}
	for name, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadEdgeListRejectsSparseHostileIDs(t *testing.T) {
	// A tiny edge list must not be able to demand a multi-gigabyte CSR by
	// naming one huge vertex ID.
	if _, err := ReadEdgeList(strings.NewReader("0 4000000000\n")); err == nil {
		t.Fatal("expected sparse-ID bound error")
	}
	// The bound is relative: plausibly-sparse small graphs still load.
	if _, err := ReadEdgeList(strings.NewReader("5 900\n")); err != nil {
		t.Fatalf("small sparse graph rejected: %v", err)
	}
}

func TestReadGraphSniffsFormats(t *testing.T) {
	ref := GenRMATDefault(6, 4, 9, true)

	var gcsr bytes.Buffer
	if _, err := ref.WriteTo(&gcsr); err != nil {
		t.Fatal(err)
	}
	g, err := ReadGraph(bytes.NewReader(gcsr.Bytes()), "mem.gcsr")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != ref.NumEdges() {
		t.Fatal("GCSR sniff lost edges")
	}

	mtx := "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n"
	if g, err = ReadGraph(strings.NewReader(mtx), "mem.mtx"); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatal("MatrixMarket sniff failed")
	}

	if g, err = ReadGraph(strings.NewReader("# c\n0 1\n1 0\n"), "mem.el"); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatal("edge-list sniff failed")
	}

	if _, err = ReadGraph(strings.NewReader(""), "empty"); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestReadGraphFileByExtension(t *testing.T) {
	dir := t.TempDir()
	ref := GenRMATDefault(6, 3, 11, false)

	elPath := filepath.Join(dir, "g.el")
	var el bytes.Buffer
	if err := WriteEdgeList(&el, ref); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(elPath, el.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	gcsrPath := filepath.Join(dir, "g.gcsr")
	var bin bytes.Buffer
	if _, err := ref.WriteTo(&bin); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gcsrPath, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	mtx := []byte("%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n2 3\n")
	mtxPath := filepath.Join(dir, "g.mtx")
	if err := os.WriteFile(mtxPath, mtx, 0o644); err != nil {
		t.Fatal(err)
	}

	// A Matrix Market file named like an edge list still parses as Matrix
	// Market: the bytes pick the parser, not the name.
	txtPath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(txtPath, mtx, 0o644); err != nil {
		t.Fatal(err)
	}

	// Unknown extension falls back to sniffing.
	unkPath := filepath.Join(dir, "g.dat")
	if err := os.WriteFile(unkPath, el.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		path  string
		edges uint64
	}{
		{elPath, ref.NumEdges()},
		{gcsrPath, ref.NumEdges()},
		{mtxPath, 2},
		{txtPath, 2},
		{unkPath, ref.NumEdges()},
	} {
		g, err := ReadGraphFile(tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if g.NumEdges() != tc.edges {
			t.Fatalf("%s: edges = %d, want %d", tc.path, g.NumEdges(), tc.edges)
		}
	}

	if _, err := ReadGraphFile(filepath.Join(dir, "missing.el")); err == nil {
		t.Fatal("expected error for missing file")
	}
}
