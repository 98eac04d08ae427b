package ligra

import (
	"errors"

	"grasp/internal/graph"
)

// PullApply is the per-in-edge update of a pull-based EdgeMap: dst pulls
// from src (weight w; 0 for unweighted graphs). It returns true if dst
// should join the output frontier. Property Array accesses belong to the
// application and must be emitted through the Tracer inside the callback.
type PullApply func(dst, src graph.VertexID, w int32) bool

// PushApply is the per-out-edge update of a push-based EdgeMap: src pushes
// to dst. It returns true if dst newly joins the output frontier.
type PushApply func(src, dst graph.VertexID, w int32) bool

// Cond gates destination vertices (Ligra's C function): a pull-mode
// destination whose Cond is false is skipped entirely; a push-mode target
// whose Cond is false receives no update. Property reads performed by Cond
// are the application's to trace.
type Cond func(v graph.VertexID) bool

// EdgeMapOpts configures a traversal.
type EdgeMapOpts struct {
	// Cond gates destinations (nil = always true).
	Cond Cond
	// CheckFrontier: in pull mode, only pull from sources in the input
	// frontier (reading the frontier flag array); false treats every
	// vertex as active (dense all-active iterations, e.g. PageRank).
	CheckFrontier bool
	// OutputDense selects the output frontier representation.
	OutputDense bool
	// NoOutput skips building an output frontier (saves the flag writes;
	// PageRank-style fixed iteration spaces).
	NoOutput bool
	// EarlyExit stops scanning a pull destination's in-edges after the
	// first successful apply (BFS-style "parent found" semantics).
	EarlyExit bool
	// PostDst, if non-nil, runs after a pull destination's in-edge scan
	// completes (applications use it to write back per-destination
	// accumulators, e.g. PageRank's next rank).
	PostDst func(dst graph.VertexID)
	// SourceActive, if non-nil, replaces the frontier flag-array read in
	// pull mode: the application determines a source's activity from
	// per-vertex state its apply function reads anyway (PRD's delta
	// magnitude, BC's level, Radii's visited mask). This "fused frontier"
	// avoids a dedicated per-edge flag-array access, the layout used by
	// frameworks that encode activity in vertex state; any memory access
	// the activity check implies is the application's to emit.
	SourceActive func(src graph.VertexID) bool
}

// ErrNoInEdges is the panic value of a pull traversal over a graph that
// keeps only its out-edges.
var ErrNoInEdges = errors.New("ligra: pull traversal needs the in-edge side (InIndex, InEdges, InWeights), which this out-edges-only graph does not keep")

// DirectionThresholdDenom is Ligra's direction-switching denominator: use
// dense/pull when the frontier's incident edges exceed m/20.
const DirectionThresholdDenom = 20

// EdgeMapPull performs a dense, pull-based traversal over in-edges: every
// vertex satisfying Cond scans its in-neighbors. All Vertex Array, Edge
// Array, weight and frontier-flag accesses are emitted into the tracer;
// curFront names the frontier flag array holding the input frontier.
//
// It panics on an out-edges-only graph (graph.CSR.OutOnly, a weighted
// workload): there is no in-edge side to pull over.
func (fg *Graph) EdgeMapPull(t *Tracer, front *Frontier, apply PullApply, opts EdgeMapOpts) *Frontier {
	c := fg.C
	n := c.NumVertices()
	if c.InIndex == nil {
		panic(ErrNoInEdges)
	}
	if front != nil && opts.CheckFrontier {
		front.ToDense()
	}
	var out *frontierBuilder
	if !opts.NoOutput {
		out = newFrontierBuilder(n, true) // pull outputs are dense
	}
	weighted := c.Weighted()
	for dst := uint32(0); dst < n; dst++ {
		if opts.Cond != nil && !opts.Cond(dst) {
			continue
		}
		t.Read(fg.VtxIn, uint64(dst), pcVtxIdx)
		t.Read(fg.VtxIn, uint64(dst)+1, pcVtxIdx)
		lo, hi := c.InIndex[dst], c.InIndex[dst+1]
		active := false
		for e := lo; e < hi; e++ {
			t.Read(fg.EdgIn, e, pcEdgeRead)
			src := c.InEdges[e]
			if opts.CheckFrontier {
				t.Read(fg.FrontA, uint64(src), pcFrontRd)
				if !front.dense[src] {
					continue
				}
			} else if opts.SourceActive != nil && !opts.SourceActive(src) {
				continue
			}
			var w int32
			if weighted {
				t.Read(fg.WgtIn, e, pcWgtRead)
				w = c.InWeights[e]
			}
			if apply(dst, src, w) {
				active = true
				if opts.EarlyExit {
					break
				}
			}
		}
		if opts.PostDst != nil {
			opts.PostDst(dst)
		}
		if active && out != nil {
			t.Write(fg.FrontB, uint64(dst), pcFrontWr)
			out.add(dst)
		}
	}
	if out == nil {
		return NewFrontierEmpty(n)
	}
	return out.frontier()
}

// EdgeMapPush performs a sparse, push-based traversal over out-edges of
// the input frontier.
func (fg *Graph) EdgeMapPush(t *Tracer, front *Frontier, apply PushApply, opts EdgeMapOpts) *Frontier {
	c := fg.C
	n := c.NumVertices()
	var out *frontierBuilder
	if !opts.NoOutput {
		out = newFrontierBuilder(n, opts.OutputDense)
	}
	weighted := c.Weighted()
	process := func(src graph.VertexID) {
		t.Read(fg.VtxOut, uint64(src), pcVtxIdx)
		t.Read(fg.VtxOut, uint64(src)+1, pcVtxIdx)
		lo, hi := c.OutIndex[src], c.OutIndex[src+1]
		for e := lo; e < hi; e++ {
			t.Read(fg.EdgOut, e, pcEdgeRead)
			dst := c.OutEdges[e]
			if opts.Cond != nil && !opts.Cond(dst) {
				continue
			}
			var w int32
			if weighted {
				t.Read(fg.WgtOut, e, pcWgtRead)
				w = c.OutWeights[e]
			}
			if apply(src, dst, w) && out != nil {
				t.Write(fg.FrontB, uint64(dst), pcFrontWr)
				out.add(dst)
			}
		}
	}
	if front.isDense {
		for v := uint32(0); v < n; v++ {
			t.Read(fg.FrontA, uint64(v), pcFrontRd)
			if front.dense[v] {
				process(v)
			}
		}
	} else {
		for i, v := range front.sparse {
			t.Read(fg.FrontS, uint64(i), pcSparseRd) // sparse list scan
			process(v)
		}
	}
	if out == nil {
		return NewFrontierEmpty(n)
	}
	return out.frontier()
}

// EdgeMap is the direction-switching traversal of Ligra: dense/pull when
// the frontier's incident edge count exceeds m/20, sparse/push otherwise.
// pull and push must implement the same logical update.
func (fg *Graph) EdgeMap(t *Tracer, front *Frontier, pull PullApply, push PushApply, opts EdgeMapOpts) (*Frontier, bool) {
	threshold := fg.C.NumEdges() / DirectionThresholdDenom
	usePull := uint64(front.Count())+front.EdgesIncident(fg.C) > threshold
	if usePull {
		o := opts
		if o.SourceActive == nil {
			o.CheckFrontier = true // no fused activity check: read the flags
		}
		return fg.EdgeMapPull(t, front, pull, o), true
	}
	return fg.EdgeMapPush(t, front, push, opts), false
}

// VertexMap applies f to every active vertex of the frontier. Property
// accesses inside f are the application's to trace.
func VertexMap(front *Frontier, f func(v graph.VertexID)) {
	if front.isDense {
		for v := uint32(0); v < front.n; v++ {
			if front.dense[v] {
				f(v)
			}
		}
		return
	}
	for _, v := range front.sparse {
		f(v)
	}
}
