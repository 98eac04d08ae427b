package apps

import (
	"grasp/internal/graph"
	"grasp/internal/ligra"
	"grasp/internal/mem"
)

// PageRank-Delta constants.
const (
	DefaultPRDIterations = 4
	// PRDThreshold: a vertex is active next iteration only if it has
	// accumulated enough change in its score (relative to 1/n).
	PRDThreshold = 1e-2
)

// PRD is PageRank-Delta, the faster PageRank variant in which only
// vertices whose rank changed materially stay active. Following the
// paper's methodology we use the pull-push (direction-switching) variant,
// which is the faster one once Property Arrays are merged (Sec. IV-A).
//
// Property state per vertex: rank and delta. Merged layout: one array of
// 16-byte {rank, delta} elements; split: two 8-byte arrays.
type PRD struct {
	fg     *ligra.Graph
	iters  int
	layout Layout

	Rank   []float64
	delta  []float64
	ndelta []float64

	merged   *mem.Array
	rankArr  *mem.Array
	deltaArr *mem.Array
}

var (
	pcPRDDelta = mem.PC("prd.read.delta")
	pcPRDAccum = mem.PC("prd.write.accum")
	pcPRDApply = mem.PC("prd.vmap.apply")
)

// NewPRD creates a PageRank-Delta instance.
func NewPRD(fg *ligra.Graph, iters int, layout Layout) *PRD {
	n := fg.C.NumVertices()
	p := &PRD{fg: fg, iters: iters, layout: layout,
		Rank: make([]float64, n), delta: make([]float64, n), ndelta: make([]float64, n)}
	if layout == LayoutMerged {
		p.merged = fg.RegisterProperty("prd.prop", 16)
	} else {
		p.rankArr = fg.RegisterProperty("prd.rank", 8)
		p.deltaArr = fg.RegisterProperty("prd.delta", 8)
	}
	return p
}

// ABRArrays implements App.
func (p *PRD) ABRArrays() []*mem.Array {
	if p.layout == LayoutMerged {
		return []*mem.Array{p.merged}
	}
	return []*mem.Array{p.rankArr, p.deltaArr}
}

func (p *PRD) readDelta(t *ligra.Tracer, v graph.VertexID) {
	if p.layout == LayoutMerged {
		t.ReadOff(p.merged, uint64(v), 8, pcPRDDelta)
	} else {
		t.Read(p.deltaArr, uint64(v), pcPRDDelta)
	}
}

// Run implements App.
func (p *PRD) Run(t *ligra.Tracer) {
	c := p.fg.C
	n := c.NumVertices()
	inv := 1 / float64(n)
	// PRD tracks the change between successive PR iterations:
	// rank_0 = 1/n everywhere, delta_1 = (1-d)/n + d*A*rank_0 - rank_0,
	// and delta_{k+1} = d*A*delta_k thereafter, so with threshold 0 the
	// accumulated rank equals PR's k-th iterate exactly.
	for v := uint32(0); v < n; v++ {
		p.Rank[v] = inv
		p.delta[v] = inv // mass propagated in the first iteration
	}
	frontier := ligra.NewFrontierAll(n)
	// Native mirror of frontier membership for the fused activity check.
	inFrontier := make([]bool, n)
	for v := range inFrontier {
		inFrontier[v] = true
	}
	// Per-iteration scaled contribution: delta[s]/outdeg(s), precomputed
	// like PR's contrib (kept in the delta field in place).
	scaled := make([]float64, n)
	for it := 0; it < p.iters && !frontier.IsEmpty(); it++ {
		ligra.VertexMap(frontier, func(v graph.VertexID) {
			t.Read(p.fg.VtxOut, uint64(v), pcPRDApply)
			t.Read(p.fg.VtxOut, uint64(v)+1, pcPRDApply)
			p.readDelta(t, v)
			if d := c.OutDegree(v); d > 0 {
				scaled[v] = p.delta[v] / float64(d)
			} else {
				scaled[v] = 0
			}
		})
		// Fused activity check: frontier membership is exactly
		// |delta| > threshold, determined by the delta read itself.
		srcActive := func(src graph.VertexID) bool {
			p.readDelta(t, src)
			return inFrontier[src]
		}
		// Pull from active in-neighbors; accumulate new delta (the delta
		// value was loaded by the activity check).
		pull := func(dst, src graph.VertexID, _ int32) bool {
			p.ndelta[dst] += scaled[src]
			return false
		}
		writeAccum := func(dst graph.VertexID) {
			if p.layout == LayoutMerged {
				t.WriteOff(p.merged, uint64(dst), 8, pcPRDAccum)
			} else {
				t.Write(p.deltaArr, uint64(dst), pcPRDAccum)
			}
		}
		push := func(src, dst graph.VertexID, _ int32) bool {
			p.readDelta(t, dst) // read-modify-write of the accumulator
			first := p.ndelta[dst] == 0
			p.ndelta[dst] += scaled[src]
			writeAccum(dst)
			return first && p.ndelta[dst] != 0
		}
		p.fg.EdgeMap(t, frontier, pull, push, ligra.EdgeMapOpts{
			NoOutput:     true,
			PostDst:      writeAccum,
			SourceActive: srcActive,
		})
		// Apply: rank += damped delta; activate vertices with significant
		// change.
		var next []graph.VertexID
		for v := uint32(0); v < n; v++ {
			nd := Damping * p.ndelta[v]
			if it == 0 {
				nd += (1-Damping)*inv - inv
			}
			if p.layout == LayoutMerged {
				t.ReadOff(p.merged, uint64(v), 0, pcPRDApply)
				t.WriteOff(p.merged, uint64(v), 0, pcPRDApply)
				t.WriteOff(p.merged, uint64(v), 8, pcPRDApply)
			} else {
				t.Read(p.rankArr, uint64(v), pcPRDApply)
				t.Write(p.rankArr, uint64(v), pcPRDApply)
				t.Write(p.deltaArr, uint64(v), pcPRDApply)
			}
			p.Rank[v] += nd
			p.delta[v] = nd
			p.ndelta[v] = 0
			inFrontier[v] = absf(nd) > PRDThreshold*inv
			if inFrontier[v] {
				next = append(next, v)
			}
		}
		frontier = ligra.NewFrontierSparse(n, next)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
