package graph

import (
	"bytes"
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

	// A second load parses the file again: an equal graph.
	g2, err := d.Load(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Fatal("second load disagrees with the first")
	}
}

// TestLoadReingestsEditedFile: editing a graph file between loads
// re-ingests it instead of serving a stale parse. This matters in a
// long-lived daemon: the jobs layer content-addresses file graphs by their
// bytes, and a stale parse would pair the new address with the old graph.
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
	// so coarse filesystem timestamps cannot mask the edit.
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

// mustLoadFile resolves path and loads it unweighted, failing the test on
// error.
func mustLoadFile(t *testing.T, path string) *CSR {
	t.Helper()
	d, err := Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Load(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLoadWritesNothing: loading a file graph leaves its directory as it
// found it — no conversion, stamp or temp file beside the source.
func TestLoadWritesNothing(t *testing.T) {
	dir := t.TempDir()
	mustLoadFile(t, writeTestEdgeList(t, dir, "ro.el", GenPath(6)))
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != "ro.el" {
		t.Fatalf("directory holds %v after Load, want [ro.el]", names)
	}
}

// TestLoadReadsRestoredOlderSource: replacing the source with a file whose
// mtime predates the previous load (cp -p backup restore, git checkout)
// loads the restored bytes, not the previous content's parse.
func TestLoadReadsRestoredOlderSource(t *testing.T) {
	v2 := GenCycle(9)
	dir := t.TempDir()
	path := writeTestEdgeList(t, dir, "restored.el", v2)
	mustLoadFile(t, path)

	// Restore "v1": different content with an mtime OLDER than that load.
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
		t.Fatalf("loaded %d vertices, want the restored file's %d",
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

// BenchmarkLoadFile is file ingest's rung: Dataset.Load of one generated
// graph written as a text edge list and as GCSR, in MB/s of file read:
//
//	go test ./internal/graph -run '^$' -bench LoadFile -benchtime 5x
//
// Every load parses the file; nothing is cached beside it or in memory.
func BenchmarkLoadFile(b *testing.B) {
	d, err := DatasetByName("kr")
	if err != nil {
		b.Fatal(err)
	}
	g := d.Generate(false, 2)
	dir := b.TempDir()
	for _, format := range []string{"el", "gcsr"} {
		b.Run(format, func(b *testing.B) {
			var buf bytes.Buffer
			var err error
			if format == "el" {
				err = WriteEdgeList(&buf, g)
			} else {
				_, err = g.WriteTo(&buf)
			}
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(dir, "kr."+format)
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				b.Fatal(err)
			}
			file, err := Resolve(path)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if loadFileSink, err = file.Load(false, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
		})
	}
}

var loadFileSink *CSR
