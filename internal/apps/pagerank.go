package apps

import (
	"grasp/internal/graph"
	"grasp/internal/ligra"
	"grasp/internal/mem"
)

// PageRank constants.
const (
	Damping = 0.85
	// DefaultPRIterations bounds the simulated iterations. The paper runs
	// PR to convergence natively but simulates a single representative
	// iteration in hardware; we simulate a small fixed number of full
	// iterations, which dominates runtime identically.
	DefaultPRIterations = 3
)

// PR is pull-based PageRank. Per iteration:
//
//  1. VertexMap: contrib[v] = rank[v] / out-degree(v)
//  2. EdgeMapPull (all vertices): acc(d) = sum of contrib[s] over in-edges;
//     the contrib[s] reads are the irregular, reuse-carrying accesses of
//     Fig. 1 — reuse proportional to out-degree, i.e. hot vertices.
//  3. VertexMap: rank[d] = (1-d)/n + d*acc(d); next[d] reset.
//
// Merged layout: one Property Array of 16-byte {contrib, next} elements
// (the paper's Table IV optimization — "one array storing two ranks per
// vertex"). Split layout: two 8-byte arrays.
type PR struct {
	fg     *ligra.Graph
	iters  int
	layout Layout

	Rank []float64 // final ranks, readable after Run
	next []float64

	merged     *mem.Array // 16B {contrib, next}
	contribArr *mem.Array // split layout
	nextArr    *mem.Array
}

// Synthetic PCs: note that one PC covers the contrib read for ALL vertices,
// hot and cold — the property that defeats PC-correlating predictors.
var (
	pcPRContrib = mem.PC("pr.pull.read.contrib")
	pcPRAccum   = mem.PC("pr.pull.write.next")
	pcPRScale   = mem.PC("pr.vmap.scale")
	pcPRApply   = mem.PC("pr.vmap.apply")
)

// NewPR creates a PageRank instance.
func NewPR(fg *ligra.Graph, iters int, layout Layout) *PR {
	n := fg.C.NumVertices()
	p := &PR{fg: fg, iters: iters, layout: layout,
		Rank: make([]float64, n), next: make([]float64, n)}
	if layout == LayoutMerged {
		p.merged = fg.RegisterProperty("pr.prop", 16)
	} else {
		p.contribArr = fg.RegisterProperty("pr.contrib", 8)
		p.nextArr = fg.RegisterProperty("pr.next", 8)
	}
	return p
}

// ABRArrays implements App: one merged array, or both split arrays.
func (p *PR) ABRArrays() []*mem.Array {
	if p.layout == LayoutMerged {
		return []*mem.Array{p.merged}
	}
	return []*mem.Array{p.contribArr, p.nextArr}
}

// readContrib / writeNext translate field accesses into the layout's
// addresses.
func (p *PR) readContrib(t *ligra.Tracer, v graph.VertexID) {
	if p.layout == LayoutMerged {
		t.ReadOff(p.merged, uint64(v), 0, pcPRContrib)
	} else {
		t.Read(p.contribArr, uint64(v), pcPRContrib)
	}
}

func (p *PR) writeNext(t *ligra.Tracer, v graph.VertexID) {
	if p.layout == LayoutMerged {
		t.WriteOff(p.merged, uint64(v), 8, pcPRAccum)
	} else {
		t.Write(p.nextArr, uint64(v), pcPRAccum)
	}
}

// Run implements App.
func (p *PR) Run(t *ligra.Tracer) {
	c := p.fg.C
	n := c.NumVertices()
	inv := 1 / float64(n)
	contrib := make([]float64, n)
	for v := range p.Rank {
		p.Rank[v] = inv
	}
	all := ligra.NewFrontierAll(n)
	for it := 0; it < p.iters; it++ {
		// Phase 1: contrib[v] = rank[v]/outdeg(v). Reads rank (same element
		// as contrib in merged layout), the out-index array, writes contrib.
		ligra.VertexMap(all, func(v graph.VertexID) {
			t.Read(p.fg.VtxOut, uint64(v), pcPRScale)
			t.Read(p.fg.VtxOut, uint64(v)+1, pcPRScale)
			d := c.OutDegree(v)
			if p.layout == LayoutMerged {
				t.ReadOff(p.merged, uint64(v), 0, pcPRScale)
				t.WriteOff(p.merged, uint64(v), 0, pcPRScale)
			} else {
				t.Read(p.contribArr, uint64(v), pcPRScale)
				t.Write(p.contribArr, uint64(v), pcPRScale)
			}
			if d > 0 {
				contrib[v] = p.Rank[v] / float64(d)
			} else {
				contrib[v] = 0
			}
		})
		// Phase 2: pull; the register-accumulated sum is written back once
		// per destination after its in-edge scan.
		p.fg.EdgeMapPull(t, nil, func(dst, src graph.VertexID, _ int32) bool {
			p.readContrib(t, src)
			p.next[dst] += contrib[src]
			return false
		}, ligra.EdgeMapOpts{NoOutput: true, PostDst: func(dst graph.VertexID) {
			p.writeNext(t, dst)
		}})
		// Phase 3: apply and reset.
		ligra.VertexMap(all, func(v graph.VertexID) {
			if p.layout == LayoutMerged {
				t.ReadOff(p.merged, uint64(v), 8, pcPRApply)
				t.WriteOff(p.merged, uint64(v), 8, pcPRApply)
			} else {
				t.Read(p.nextArr, uint64(v), pcPRApply)
				t.Write(p.nextArr, uint64(v), pcPRApply)
			}
			p.Rank[v] = (1-Damping)*inv + Damping*p.next[v]
			p.next[v] = 0
		})
	}
}
