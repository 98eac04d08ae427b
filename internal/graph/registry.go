package graph

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// The dataset registry maps every graph the reproduction can run on —
// the paper's synthetic stand-ins AND any ingested file — through one
// resolver, so `-graph web-Google.txt` and `-dataset tw` flow down the
// same Dataset -> Workload -> simulation path. A file-backed dataset is
// parsed afresh on every Load and nothing is written beside it; nothing
// here holds a parsed graph in memory either — that is exp.Session's
// artifact store, the one cache of graphs (DESIGN.md Sec. 6).

// Resolve maps a dataset spec — a paper dataset name (lj, pl, tw, kr, sd,
// fr, uni) or a path to a graph file (.txt/.el/.wel/.mtx/.gcsr) — to a
// Dataset description. File specs are not read here; parsing happens in
// Load.
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
// scaleDiv), KindFile parses the file (ReadGraphFile) and writes nothing.
// File datasets always load at their full on-disk size — scaleDiv only
// scales the synthetic stand-ins. The weighted flag is an invariant of the
// returned graph, exactly as for generators: if weights are required
// (SSSP) and the file carries none, deterministic synthetic weights are
// added; if the file carries weights nobody asked for, they are dropped
// so non-SSSP apps do not trace weight-array accesses the algorithm
// never performs.
func (d Dataset) Load(weighted bool, scaleDiv uint32) (*CSR, error) {
	if d.Kind != KindFile {
		return d.Generate(weighted, scaleDiv), nil
	}
	g, err := ReadGraphFile(d.Path)
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
