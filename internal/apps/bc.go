package apps

import (
	"grasp/internal/graph"
	"grasp/internal/ligra"
	"grasp/internal/mem"
)

// BC computes betweenness-centrality contributions from a single root
// using Brandes' algorithm over a BFS DAG, as in Ligra's BC: a forward
// phase counts shortest paths (sigma) level by level, and a backward phase
// accumulates dependencies. Both phases use direction-switching EdgeMaps;
// on the evaluated graphs the bulk of the time is spent in dense pull
// iterations, matching the paper's ROI.
//
// Property Arrays: NumPaths (sigma) and Dependencies, the two arrays
// instrumented for GRASP. Levels/visited state is an additional per-vertex
// array. BC has no merging opportunity (Table IV).
type BC struct {
	fg   *ligra.Graph
	root graph.VertexID

	Sigma []float64 // number of shortest paths through each vertex
	Dep   []float64 // dependency scores
	level []int32

	sigmaArr *mem.Array
	depArr   *mem.Array
	lvlArr   *mem.Array
}

var (
	pcBCSigmaRd = mem.PC("bc.fwd.read.sigma")
	pcBCSigmaWr = mem.PC("bc.fwd.write.sigma")
	pcBCLvl     = mem.PC("bc.level")
	pcBCDepRd   = mem.PC("bc.bwd.read.dep")
	pcBCDepWr   = mem.PC("bc.bwd.write.dep")
)

// NewBC creates a BC instance rooted at root.
func NewBC(fg *ligra.Graph, root graph.VertexID) *BC {
	n := fg.C.NumVertices()
	b := &BC{fg: fg, root: root,
		Sigma: make([]float64, n), Dep: make([]float64, n), level: make([]int32, n)}
	b.sigmaArr = fg.RegisterProperty("bc.sigma", 8)
	b.depArr = fg.RegisterProperty("bc.dep", 8)
	b.lvlArr = fg.RegisterProperty("bc.level", 8)
	return b
}

// ABRArrays implements App: the two hottest Property Arrays (the paper
// instruments at most two arrays per application). For BC these are the
// path counts and the level/visited state, both read per edge in the
// dominant forward phase.
func (b *BC) ABRArrays() []*mem.Array { return []*mem.Array{b.sigmaArr, b.lvlArr} }

// Run implements App.
func (b *BC) Run(t *ligra.Tracer) {
	c := b.fg.C
	n := c.NumVertices()
	for v := uint32(0); v < n; v++ {
		b.Sigma[v] = 0
		b.Dep[v] = 0
		b.level[v] = -1
	}
	b.Sigma[b.root] = 1
	b.level[b.root] = 0

	// Forward phase: BFS levels, counting shortest paths.
	frontier := ligra.NewFrontierSparse(n, []graph.VertexID{b.root})
	var levels []*ligra.Frontier
	levels = append(levels, frontier)
	for depth := int32(1); !frontier.IsEmpty(); depth++ {
		depth := depth
		cond := func(v graph.VertexID) bool {
			// Unvisited, or discovered earlier this round (push mode must
			// keep accumulating sigma from further same-level parents).
			t.Read(b.lvlArr, uint64(v), pcBCLvl)
			return b.level[v] < 0 || b.level[v] == depth
		}
		// Fused activity check for pull mode: a source is in the frontier
		// iff it was discovered in the previous level, read from the level
		// array (no flag-array access).
		srcActive := func(src graph.VertexID) bool {
			t.Read(b.lvlArr, uint64(src), pcBCLvl)
			return b.level[src] == depth-1
		}
		pull := func(dst, src graph.VertexID, _ int32) bool {
			// dst unvisited; srcActive restricted src to the previous
			// level.
			t.Read(b.sigmaArr, uint64(src), pcBCSigmaRd)
			t.Read(b.sigmaArr, uint64(dst), pcBCSigmaRd)
			t.Write(b.sigmaArr, uint64(dst), pcBCSigmaWr)
			b.Sigma[dst] += b.Sigma[src]
			return true
		}
		push := func(src, dst graph.VertexID, _ int32) bool {
			t.Read(b.lvlArr, uint64(dst), pcBCLvl)
			if b.level[dst] >= 0 && b.level[dst] < depth {
				return false
			}
			t.Read(b.sigmaArr, uint64(src), pcBCSigmaRd)
			t.Read(b.sigmaArr, uint64(dst), pcBCSigmaRd)
			t.Write(b.sigmaArr, uint64(dst), pcBCSigmaWr)
			first := b.level[dst] < 0
			b.level[dst] = depth // provisional; confirmed below
			b.Sigma[dst] += b.Sigma[src]
			return first
		}
		next, usedPull := b.fg.EdgeMap(t, frontier, pull, push,
			ligra.EdgeMapOpts{Cond: cond, SourceActive: srcActive})
		// Stamp levels of newly discovered vertices (pull mode defers it).
		if usedPull {
			ligra.VertexMap(next, func(v graph.VertexID) {
				t.Write(b.lvlArr, uint64(v), pcBCLvl)
				b.level[v] = depth
			})
		}
		frontier = next
		if !frontier.IsEmpty() {
			levels = append(levels, frontier)
		}
	}

	// Backward phase: dependency accumulation, deepest level first.
	// dep[v] += sigma[v]/sigma[w] * (1 + dep[w]) for BFS-DAG edges v->w.
	for li := len(levels) - 1; li > 0; li-- {
		ligra.VertexMap(levels[li], func(w graph.VertexID) {
			t.Read(b.sigmaArr, uint64(w), pcBCSigmaRd)
			t.Read(b.depArr, uint64(w), pcBCDepRd)
			share := (1 + b.Dep[w]) / b.Sigma[w]
			// Walk w's in-neighbors: predecessors are one level up.
			t.Read(b.fg.VtxIn, uint64(w), pcBCLvl)
			t.Read(b.fg.VtxIn, uint64(w)+1, pcBCLvl)
			lo := c.InIndex[w]
			for i, v := range c.InNeighbors(w) {
				t.Read(b.fg.EdgIn, lo+uint64(i), pcBCLvl)
				t.Read(b.lvlArr, uint64(v), pcBCLvl)
				if b.level[v] != b.level[w]-1 {
					continue
				}
				t.Read(b.sigmaArr, uint64(v), pcBCSigmaRd)
				t.Read(b.depArr, uint64(v), pcBCDepRd)
				t.Write(b.depArr, uint64(v), pcBCDepWr)
				b.Dep[v] += b.Sigma[v] * share
			}
		})
	}
}
