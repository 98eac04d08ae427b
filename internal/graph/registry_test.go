package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestResolveBuiltinNames(t *testing.T) {
	for _, d := range Datasets() {
		r, err := Resolve(d.Name)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if r.Kind == KindFile || r.FullName != d.FullName {
			t.Fatalf("%s resolved to %+v", d.Name, r)
		}
	}
}

func TestResolveUnknownSpec(t *testing.T) {
	_, err := Resolve("no-such-dataset-or-file")
	if err == nil {
		t.Fatal("expected error")
	}
	// The error must help: list the known names.
	if want := "lj"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not list known datasets", err)
	}
}

func writeTestEdgeList(t *testing.T, dir, name string, g *CSR) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestResolveAndLoadFile(t *testing.T) {
	ref := GenRMATDefault(6, 4, 13, false)
	path := writeTestEdgeList(t, t.TempDir(), "toy.el", ref)

	d, err := Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != KindFile || d.Name != "toy" || d.Path != path {
		t.Fatalf("resolved %+v", d)
	}
	g, err := d.Load(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != ref.NumEdges() {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), ref.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	// The ingest must have left a fresh GCSR sidecar that parses to the
	// same graph.
	side, err := ReadGraphFile(path + ".gcsr")
	if err != nil {
		t.Fatalf("sidecar: %v", err)
	}
	if side.NumEdges() != g.NumEdges() || side.NumVertices() != g.NumVertices() {
		t.Fatal("sidecar disagrees with ingest")
	}

	// Second load reads that sidecar: an equal graph.
	g2, err := d.Load(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Fatal("second load disagrees with the first")
	}
}

// TestLoadReingestsEditedFile: the sidecar is validated by the source's
// (size, mtime), so editing a graph file between loads re-ingests it
// instead of serving the stale conversion. This matters in a long-lived
// daemon: the jobs layer content-addresses file graphs by their bytes,
// and a stale conversion would pair the new address with the old graph.
func TestLoadReingestsEditedFile(t *testing.T) {
	ref := GenPath(6)
	dir := t.TempDir()
	path := writeTestEdgeList(t, dir, "edit.el", ref)
	d, err := Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := d.Load(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumVertices() != ref.NumVertices() {
		t.Fatalf("first load has %d vertices, want %d", g1.NumVertices(), ref.NumVertices())
	}

	// Overwrite with a different graph and push the mtime into the future,
	// so neither coarse filesystem timestamps nor the (now stale) sidecar
	// can mask the edit.
	edited := GenCycle(9)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, edited); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}

	g2, err := d.Load(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != edited.NumVertices() {
		t.Fatalf("reloaded graph has %d vertices, want the edited file's %d",
			g2.NumVertices(), edited.NumVertices())
	}
}

// plantStamp writes a sidecar stamp recording the source's CURRENT state
// and the sidecar's current content digest, as a successful conversion
// would have.
func plantStamp(t *testing.T, src, sidecar string) {
	t.Helper()
	fi, err := os.Stat(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	stamp := []byte(fmt.Sprintf("%d %d %s\n",
		fi.Size(), fi.ModTime().UnixNano(), hex.EncodeToString(sum[:])))
	if err := os.WriteFile(sidecarStamp(sidecar), stamp, 0o644); err != nil {
		t.Fatal(err)
	}
}

// mustLoadFile stats path and ingests it, failing the test on error.
func mustLoadFile(t *testing.T, path string) *CSR {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadFile(path, fi)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLoadPrefersFreshSidecar(t *testing.T) {
	ref := GenPath(6)
	dir := t.TempDir()
	path := writeTestEdgeList(t, dir, "cached.el", ref)

	// Plant a sidecar describing a DIFFERENT graph with a stamp matching
	// the source's current state: the loader must trust it (that is what
	// "cached conversion" means).
	other := GenCycle(9)
	var buf bytes.Buffer
	if _, err := other.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".gcsr", buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	plantStamp(t, path, path+".gcsr")
	g := mustLoadFile(t, path)
	if g.NumVertices() != other.NumVertices() {
		t.Fatalf("loaded %d vertices, want the sidecar's %d", g.NumVertices(), other.NumVertices())
	}

	// A corrupt sidecar falls back to re-ingesting the source.
	if err := os.WriteFile(path+".gcsr", []byte("GCSRgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	plantStamp(t, path, path+".gcsr")
	g = mustLoadFile(t, path)
	if g.NumVertices() != ref.NumVertices() {
		t.Fatalf("fallback loaded %d vertices, want %d", g.NumVertices(), ref.NumVertices())
	}

	// A sidecar whose bytes do not match the stamp's digest (the torn
	// state two racing processes can leave) is rejected even though the
	// source stamp matches.
	var swapped bytes.Buffer
	if _, err := GenCycle(4).WriteTo(&swapped); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".gcsr", swapped.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// The stamp (rewritten by the fallback re-ingest above) digests the
	// previous conversion, not the swapped-in bytes.
	g = mustLoadFile(t, path)
	if g.NumVertices() != ref.NumVertices() {
		t.Fatalf("digest-mismatched sidecar trusted: loaded %d vertices, want re-ingested %d",
			g.NumVertices(), ref.NumVertices())
	}
}

// TestSidecarRejectsRestoredOlderSource: replacing the source with a file
// whose mtime predates the sidecar (cp -p backup restore, git checkout)
// must invalidate the conversion. An mtime-ordering check ("sidecar newer
// than source") would trust it and serve the previous content's parse
// under the restored content's identity; the exact-stamp check re-ingests.
func TestSidecarRejectsRestoredOlderSource(t *testing.T) {
	v2 := GenCycle(9)
	dir := t.TempDir()
	path := writeTestEdgeList(t, dir, "restored.el", v2)
	mustLoadFile(t, path) // writes sidecar + stamp for v2

	// Restore "v1": different content with an mtime OLDER than the sidecar.
	v1 := GenPath(6)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, v1); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}

	g := mustLoadFile(t, path)
	if g.NumVertices() != v1.NumVertices() {
		t.Fatalf("loaded %d vertices, want the restored file's %d (stale sidecar trusted)",
			g.NumVertices(), v1.NumVertices())
	}
}

func TestLoadAddsDeterministicWeights(t *testing.T) {
	ref := GenRMATDefault(5, 4, 17, false)
	path := writeTestEdgeList(t, t.TempDir(), "w.el", ref)
	d, err := Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := d.Load(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Weighted() {
		t.Fatal("weighted load returned unweighted graph")
	}
	for _, w := range g1.OutWeights {
		if w < 1 || w > maxWeight {
			t.Fatalf("weight %d out of [1, %d]", w, maxWeight)
		}
	}
	// Weights are a pure function of the graph: recomputing matches.
	g2 := withSyntheticWeights(g1)
	for i := range g1.OutWeights {
		if g1.OutWeights[i] != g2.OutWeights[i] {
			t.Fatal("synthetic weights not deterministic")
		}
	}
}

func TestLoadStripsUnrequestedWeights(t *testing.T) {
	// A weighted file loaded with weighted=false must come back unweighted,
	// or non-SSSP apps would trace weight-array accesses they never make.
	ref := GenRMATDefault(5, 4, 19, true)
	path := writeTestEdgeList(t, t.TempDir(), "weighted.wel", ref)
	d, err := Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Load(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Weighted() {
		t.Fatal("unweighted load returned a weighted graph")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The weighted view of the same file must still carry the file's own
	// weights (not synthetic ones).
	gw, err := d.Load(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !gw.Weighted() {
		t.Fatal("weighted load returned an unweighted graph")
	}
	if gw.OutWeights[0] != ref.OutWeights[0] {
		t.Fatal("file weights replaced instead of preserved")
	}
}

func TestLoadSyntheticKindsDelegateToGenerate(t *testing.T) {
	d, err := DatasetByName("uni")
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Load(false, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := d.Generate(false, 64)
	if g.NumVertices() != want.NumVertices() || g.NumEdges() != want.NumEdges() {
		t.Fatal("Load disagrees with Generate for a synthetic dataset")
	}
}
