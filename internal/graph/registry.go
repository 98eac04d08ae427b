package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// The dataset registry maps every graph the reproduction can run on —
// the paper's synthetic stand-ins AND any ingested file — through one
// resolver, so `-graph web-Google.txt` and `-dataset tw` flow down the
// same Dataset -> Workload -> simulation path. File-backed datasets are
// converted once per file state (a sidecar .gcsr cache next to the source,
// reused while the source matches the size/mtime stamp recorded at
// conversion); nothing here holds a parsed graph in memory — that is
// exp.Session's artifact store, the one RAM cache of graphs (DESIGN.md
// Sec. 6).

// Resolve maps a dataset spec — a paper dataset name (lj, pl, tw, kr, sd,
// fr, uni) or a path to a graph file (.txt/.el/.wel/.mtx/.gcsr) — to a
// Dataset description. File specs are not read here; loading (with its
// cached GCSR conversion) happens in Load.
func Resolve(spec string) (Dataset, error) {
	if d, err := DatasetByName(spec); err == nil {
		return d, nil
	}
	if _, err := os.Stat(spec); err != nil {
		var names []string
		for _, d := range Datasets() {
			names = append(names, d.Name)
		}
		return Dataset{}, fmt.Errorf("graph: %q is neither a known dataset (%s) nor a readable graph file: %v",
			spec, strings.Join(names, ", "), err)
	}
	base := filepath.Base(spec)
	name := strings.TrimSuffix(base, filepath.Ext(base))
	if name == "" {
		name = base
	}
	return Dataset{Name: name, FullName: spec, Kind: KindFile, Path: spec}, nil
}

// Load materializes the dataset: synthetic kinds generate (honoring
// scaleDiv), KindFile ingests the file (fresh sidecar, or parse). File
// datasets always load at their full on-disk size — scaleDiv only scales
// the synthetic stand-ins. The weighted flag is an invariant of the
// returned graph, exactly as for generators: if weights are required
// (SSSP) and the file carries none, deterministic synthetic weights are
// added; if the file carries weights nobody asked for, they are dropped
// so non-SSSP apps do not trace weight-array accesses the algorithm
// never performs.
func (d Dataset) Load(weighted bool, scaleDiv uint32) (*CSR, error) {
	if d.Kind != KindFile {
		return d.Generate(weighted, scaleDiv), nil
	}
	// The sidecar's stamp and digest check derive from this one stat, so a
	// load can never mark one file state fresh while parsing another.
	fi, err := os.Stat(d.Path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	g, err := loadFile(d.Path, fi)
	if err != nil {
		return nil, err
	}
	switch {
	case weighted && !g.Weighted():
		g = withSyntheticWeights(g)
	case !weighted && g.Weighted():
		g = withoutWeights(g)
	}
	return g, nil
}

// loadFile ingests one graph file: for text formats through a sidecar
// "<path>.gcsr" binary conversion that is written on first ingest and
// reused while the source still matches the (size, mtime) stamp recorded
// next to it. srci is the source's stat Load took (unused for direct .gcsr
// files).
func loadFile(path string, srci os.FileInfo) (*CSR, error) {
	if strings.EqualFold(filepath.Ext(path), ".gcsr") {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("graph: %w", err)
		}
		defer f.Close()
		return ReadFrom(f)
	}
	sidecar := path + ".gcsr"
	if g := readFreshSidecar(srci, sidecar); g != nil {
		return g, nil
	}
	g, err := ReadGraphFile(path)
	if err != nil {
		return nil, err
	}
	writeSidecar(sidecar, g, srci) // best-effort: the parse result is authoritative
	return g, nil
}

// sidecarStamp is the path of the file recording which source state
// ("<size> <mtime-unixnano>") a sidecar was converted from.
func sidecarStamp(sidecar string) string { return sidecar + ".stamp" }

// readFreshSidecar returns the cached conversion if its stamp records
// exactly the source's current (size, mtime) AND the sidecar's own
// content digest, and it parses; any failure just means re-ingesting.
// Exact source equality matters: an mtime-ordering check ("sidecar at
// least as new as the source") would trust the stale conversion after the
// source is replaced by an *older* file — a `cp -p` backup restore,
// `git checkout`, `tar -p` — pairing the previous content's parse with
// the restored content's identity. The sidecar digest closes the
// cross-process write race: two processes converting across a concurrent
// source edit can interleave their two renames so one's stamp lands next
// to the other's sidecar, and only a stamp that vouches for the sidecar
// bytes themselves makes that torn pair detectable.
func readFreshSidecar(srci os.FileInfo, sidecar string) *CSR {
	b, err := os.ReadFile(sidecarStamp(sidecar))
	if err != nil {
		return nil
	}
	var size, modNano int64
	var digest string
	if _, err := fmt.Sscanf(string(b), "%d %d %s", &size, &modNano, &digest); err != nil {
		return nil
	}
	if size != srci.Size() || modNano != srci.ModTime().UnixNano() {
		return nil
	}
	f, err := os.Open(sidecar)
	if err != nil {
		return nil
	}
	defer f.Close()
	// Hash during the parse read (one I/O pass, not read-then-reread),
	// drain whatever trails the GCSR payload so the digest covers the
	// whole file, and only then trust the parsed graph.
	h := sha256.New()
	g, err := ReadFrom(io.TeeReader(f, h))
	if err != nil {
		return nil
	}
	if _, err := io.Copy(h, f); err != nil {
		return nil
	}
	if hex.EncodeToString(h.Sum(nil)) != digest {
		return nil
	}
	return g
}

// writeSidecar persists the GCSR conversion and its source stamp, each
// atomically (temp file + rename), so a crashed or concurrent run never
// leaves a torn cache. Ordering is load-bearing: the old stamp is removed
// first and the new one written last, so every crash window leaves a
// missing or mismatching stamp (re-ingest, safe) rather than a fresh
// stamp vouching for a stale sidecar; the stamp also records the sidecar
// bytes' digest, so even interleaved renames from two processes cannot
// produce a stamp that validates the other process's sidecar.
func writeSidecar(sidecar string, g *CSR, srci os.FileInfo) {
	os.Remove(sidecarStamp(sidecar))
	h := sha256.New()
	if !writeFileAtomic(sidecar, func(f *os.File) error {
		_, err := g.WriteTo(io.MultiWriter(f, h))
		return err
	}) {
		return
	}
	writeFileAtomic(sidecarStamp(sidecar), func(f *os.File) error {
		_, err := fmt.Fprintf(f, "%d %d %s\n",
			srci.Size(), srci.ModTime().UnixNano(), hex.EncodeToString(h.Sum(nil)))
		return err
	})
}

// writeFileAtomic writes path via a temp file + rename, reporting success.
func writeFileAtomic(path string, fill func(*os.File) error) bool {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".gcsr-tmp-*")
	if err != nil {
		return false
	}
	if err := fill(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return false
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	return true
}

// syntheticWeightSeed makes file-graph weights reproducible across runs
// and machines: the same file always yields the same weighted graph.
const syntheticWeightSeed = 0xF11E_57ED

// withoutWeights returns an unweighted view of g, sharing its index and
// edge arrays (those are immutable after construction; only the CSR
// header is copied).
func withoutWeights(g *CSR) *CSR {
	ng := *g
	ng.OutWeights, ng.InWeights = nil, nil
	return &ng
}

// withSyntheticWeights rebuilds g with deterministic pseudo-random edge
// weights in [1, maxWeight], for running SSSP on files that ship without a
// weight column.
func withSyntheticWeights(g *CSR) *CSR {
	r := NewRNG(syntheticWeightSeed)
	edges := g.Edges()
	for i := range edges {
		edges[i].Weight = int32(1 + r.Uint32n(maxWeight))
	}
	wg, err := FromEdges(g.NumVertices(), edges, true)
	if err != nil {
		// Edges() of a valid CSR are in range by construction.
		panic(err)
	}
	return wg
}
