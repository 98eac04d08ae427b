// Package ligra is a from-scratch Go implementation of the vertex-centric
// shared-memory graph-processing model of Ligra [Shun & Blelloch, PPoPP'13],
// the framework the paper evaluates on: VertexSubset frontiers with sparse
// and dense representations, EdgeMap with pull- and push-based traversal
// and direction switching, and VertexMap.
//
// Unlike the original, every logical memory access of the traversal (Vertex
// Array, Edge Array, weights, frontier flags) can be emitted into a
// mem.Sink for the trace-driven cache simulation; applications emit their
// Property Array accesses through the same Tracer. Running with a nil-sink
// Tracer executes the algorithms natively.
package ligra

import (
	"grasp/internal/graph"
	"grasp/internal/mem"
	"grasp/internal/trace"
)

// Tracer forwards logical memory accesses to a sink. The zero Tracer (nil
// sink) swallows accesses with minimal overhead, which is how algorithms
// run natively.
//
// The dominant sink in simulation is *trace.Recorder, behind every
// simulation result: the tracer keeps a concrete pointer to it, so each
// traced word reaches it through a direct call, and any other sink (sim.Run's
// oracle cache.Hierarchy, test sinks) through mem.Sink. The method bodies
// are shaped around the compiler's inlining budget — Read/Write inline a
// cheap is-anyone-listening guard into the traversal loops (so native
// execution pays one predicted branch per logical access), while the
// dispatch itself is one call deep on every sink kind.
type Tracer struct {
	sink   mem.Sink
	rec    *trace.Recorder // non-nil fast path when sink is a trace recorder
	active bool            // sink != nil
}

// NewTracer creates a tracer; sink may be nil for native execution.
func NewTracer(sink mem.Sink) *Tracer {
	t := &Tracer{sink: sink, active: sink != nil}
	t.rec, _ = sink.(*trace.Recorder)
	return t
}

// dispatch forwards one access over the fastest available path. It is kept
// out of the exported methods so their guard branch stays inlinable.
func (t *Tracer) dispatch(addr uint64, pc uint32, write, prop bool) {
	if t.rec != nil {
		t.rec.Access(mem.Access{Addr: addr, PC: pc, Write: write, Property: prop})
		return
	}
	t.sink.Access(mem.Access{Addr: addr, PC: pc, Write: write, Property: prop})
}

// Read emits a read of element i of a.
func (t *Tracer) Read(a *mem.Array, i uint64, pc uint32) {
	if !t.active {
		return
	}
	t.dispatch(a.Addr(i), pc, false, a.Property)
}

// ReadOff emits a read at byte offset off within element i of a (merged
// multi-field property elements). The Off variants exceed the inlining
// budget either way, so they dispatch directly from their own frame.
func (t *Tracer) ReadOff(a *mem.Array, i, off uint64, pc uint32) {
	if t.rec != nil {
		t.rec.Access(mem.Access{Addr: a.AddrOff(i, off), PC: pc, Property: a.Property})
	} else if t.sink != nil {
		t.sink.Access(mem.Access{Addr: a.AddrOff(i, off), PC: pc, Property: a.Property})
	}
}

// Write emits a write of element i of a.
func (t *Tracer) Write(a *mem.Array, i uint64, pc uint32) {
	if !t.active {
		return
	}
	t.dispatch(a.Addr(i), pc, true, a.Property)
}

// WriteOff emits a write at byte offset off within element i of a.
func (t *Tracer) WriteOff(a *mem.Array, i, off uint64, pc uint32) {
	if t.rec != nil {
		t.rec.Access(mem.Access{Addr: a.AddrOff(i, off), PC: pc, Write: true, Property: a.Property})
	} else if t.sink != nil {
		t.sink.Access(mem.Access{Addr: a.AddrOff(i, off), PC: pc, Write: true, Property: a.Property})
	}
}

// Graph wraps a CSR with the registered memory layout of its data
// structures: the Vertex (index) and Edge Arrays for both directions,
// optional weight arrays, and a pair of frontier flag arrays that the
// framework alternates between iterations.
type Graph struct {
	C  *graph.CSR
	AS *mem.AddressSpace

	VtxIn, VtxOut  *mem.Array // CSR index arrays, 8B entries
	EdgIn, EdgOut  *mem.Array // CSR edge arrays, 4B entries
	WgtIn, WgtOut  *mem.Array // weight arrays, 4B entries (nil if unweighted)
	FrontA, FrontB *mem.Array // frontier flags, 1B per vertex
	FrontS         *mem.Array // sparse frontier vertex list, 4B entries
}

// NewGraph registers the graph's data structures in a fresh address space.
func NewGraph(c *graph.CSR) *Graph {
	as := mem.NewAddressSpace()
	n := uint64(c.NumVertices())
	m := c.NumEdges()
	fg := &Graph{C: c, AS: as}
	fg.VtxIn = as.Register("vertex.in", 8, n+1, false)
	fg.EdgIn = as.Register("edge.in", 4, m, false)
	fg.VtxOut = as.Register("vertex.out", 8, n+1, false)
	fg.EdgOut = as.Register("edge.out", 4, m, false)
	if c.Weighted() {
		fg.WgtIn = as.Register("weight.in", 4, m, false)
		fg.WgtOut = as.Register("weight.out", 4, m, false)
	}
	fg.FrontA = as.Register("frontier.a", 1, n, false)
	fg.FrontB = as.Register("frontier.b", 1, n, false)
	fg.FrontS = as.Register("frontier.sparse", 4, n, false)
	return fg
}

// RegisterProperty registers an application Property Array of n-vertex
// elements with the given element size.
func (fg *Graph) RegisterProperty(name string, elemSize uint64) *mem.Array {
	return fg.AS.Register(name, elemSize, uint64(fg.C.NumVertices()), true)
}

// RegisterAux registers an application-owned auxiliary structure that is
// NOT a Property Array (no ABR pair, no Fig. 2 accounting) — e.g. the
// degree-ordered adjacency TC builds next to the framework's CSR arrays.
func (fg *Graph) RegisterAux(name string, elemSize, n uint64) *mem.Array {
	return fg.AS.Register(name, elemSize, n, false)
}

// Synthetic PCs for the framework's static access sites.
var (
	pcVtxIdx   = mem.PC("ligra.vertex.index")
	pcEdgeRead = mem.PC("ligra.edge.read")
	pcWgtRead  = mem.PC("ligra.weight.read")
	pcFrontRd  = mem.PC("ligra.frontier.read")
	pcFrontWr  = mem.PC("ligra.frontier.write")
	pcSparseRd = mem.PC("ligra.frontier.sparse.read")
)

// Frontier is Ligra's VertexSubset: the set of active vertices, held
// sparsely (vertex list) or densely (flag per vertex).
type Frontier struct {
	n       uint32
	dense   []bool
	sparse  []graph.VertexID
	isDense bool
	count   uint32
}

// NewFrontierAll returns a dense frontier containing every vertex.
func NewFrontierAll(n uint32) *Frontier {
	f := &Frontier{n: n, dense: make([]bool, n), isDense: true, count: n}
	for i := range f.dense {
		f.dense[i] = true
	}
	return f
}

// NewFrontierSparse returns a sparse frontier with the given vertices.
func NewFrontierSparse(n uint32, verts []graph.VertexID) *Frontier {
	return &Frontier{n: n, sparse: append([]graph.VertexID(nil), verts...), count: uint32(len(verts))}
}

// NewFrontierEmpty returns an empty sparse frontier.
func NewFrontierEmpty(n uint32) *Frontier { return &Frontier{n: n} }

// Count returns the number of active vertices.
func (f *Frontier) Count() uint32 { return f.count }

// IsEmpty reports whether no vertex is active.
func (f *Frontier) IsEmpty() bool { return f.count == 0 }

// IsDense reports the current representation.
func (f *Frontier) IsDense() bool { return f.isDense }

// NumVertices returns the universe size.
func (f *Frontier) NumVertices() uint32 { return f.n }

// Contains reports whether v is active.
func (f *Frontier) Contains(v graph.VertexID) bool {
	if f.isDense {
		return f.dense[v]
	}
	for _, u := range f.sparse {
		if u == v {
			return true
		}
	}
	return false
}

// Vertices returns the active vertices (allocating for dense frontiers).
func (f *Frontier) Vertices() []graph.VertexID {
	if !f.isDense {
		return f.sparse
	}
	out := make([]graph.VertexID, 0, f.count)
	for v := uint32(0); v < f.n; v++ {
		if f.dense[v] {
			out = append(out, v)
		}
	}
	return out
}

// ToDense converts the representation to dense in place.
func (f *Frontier) ToDense() {
	if f.isDense {
		return
	}
	f.dense = make([]bool, f.n)
	for _, v := range f.sparse {
		f.dense[v] = true
	}
	f.isDense = true
	f.sparse = nil
}

// EdgesIncident returns the sum of out-degrees of active vertices, the
// quantity Ligra uses for its direction-switching threshold.
func (f *Frontier) EdgesIncident(c *graph.CSR) uint64 {
	var sum uint64
	if f.isDense {
		for v := uint32(0); v < f.n; v++ {
			if f.dense[v] {
				sum += uint64(c.OutDegree(v))
			}
		}
		return sum
	}
	for _, v := range f.sparse {
		sum += uint64(c.OutDegree(v))
	}
	return sum
}

// frontierBuilder accumulates the output frontier of an EdgeMap.
type frontierBuilder struct {
	n        uint32
	dense    []bool
	sparse   []graph.VertexID
	useDense bool
	count    uint32
}

func newFrontierBuilder(n uint32, useDense bool) *frontierBuilder {
	b := &frontierBuilder{n: n, useDense: useDense}
	if useDense {
		b.dense = make([]bool, n)
	}
	return b
}

// add marks v active; returns true if newly added.
func (b *frontierBuilder) add(v graph.VertexID) bool {
	if b.useDense {
		if b.dense[v] {
			return false
		}
		b.dense[v] = true
		b.count++
		return true
	}
	b.sparse = append(b.sparse, v)
	b.count++
	return true
}

func (b *frontierBuilder) frontier() *Frontier {
	if b.useDense {
		return &Frontier{n: b.n, dense: b.dense, isDense: true, count: b.count}
	}
	return &Frontier{n: b.n, sparse: b.sparse, count: b.count}
}
