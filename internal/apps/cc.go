package apps

import (
	"grasp/internal/graph"
	"grasp/internal/ligra"
	"grasp/internal/mem"
)

// CC computes connected components (treating edges as undirected) by
// label propagation, as in Ligra's Components: every vertex starts with
// its own ID as label and repeatedly adopts the minimum label among its
// neighbors. An extension workload beyond the paper's five applications.
type CC struct {
	fg *ligra.Graph

	Label []uint32
	next  []uint32

	labelArr *mem.Array

	// MaxRounds bounds propagation (diameter-bounded in practice).
	MaxRounds int
}

var (
	pcCCLabelRd = mem.PC("cc.read.label")
	pcCCLabelWr = mem.PC("cc.write.label")
)

// NewCC creates a connected-components instance.
func NewCC(fg *ligra.Graph) *CC {
	n := fg.C.NumVertices()
	c := &CC{fg: fg, Label: make([]uint32, n), next: make([]uint32, n), MaxRounds: int(n)}
	c.labelArr = fg.RegisterProperty("cc.label", 8)
	return c
}

// ABRArrays implements App.
func (c *CC) ABRArrays() []*mem.Array { return []*mem.Array{c.labelArr} }

// Run implements App.
func (c *CC) Run(t *ligra.Tracer) {
	g := c.fg.C
	n := g.NumVertices()
	for v := uint32(0); v < n; v++ {
		c.Label[v] = v
		c.next[v] = v
	}
	active := make([]bool, n)
	for v := range active {
		active[v] = true
	}
	frontier := ligra.NewFrontierAll(n)
	for round := 0; round < c.MaxRounds && !frontier.IsEmpty(); round++ {
		srcActive := func(src graph.VertexID) bool {
			t.Read(c.labelArr, uint64(src), pcCCLabelRd)
			return active[src]
		}
		// Pull: adopt the minimum label among in-neighbors (the label was
		// loaded by the activity check); treating the graph as undirected
		// needs the out-direction too, handled by a second pass below.
		pull := func(dst, src graph.VertexID, _ int32) bool {
			if c.Label[src] < c.next[dst] {
				c.next[dst] = c.Label[src]
				t.Write(c.labelArr, uint64(dst), pcCCLabelWr)
				return true
			}
			return false
		}
		push := func(src, dst graph.VertexID, _ int32) bool {
			// Undirected label exchange: the edge propagates the minimum
			// label in both directions (pull mode gets the reverse
			// direction from the symmetric out-edge pass below).
			t.Read(c.labelArr, uint64(dst), pcCCLabelRd)
			changed := false
			if c.Label[src] < c.next[dst] {
				changed = c.next[dst] == c.Label[dst]
				c.next[dst] = c.Label[src]
				t.Write(c.labelArr, uint64(dst), pcCCLabelWr)
			}
			if c.Label[dst] < c.next[src] {
				c.next[src] = c.Label[dst]
				t.Write(c.labelArr, uint64(src), pcCCLabelWr)
			}
			return changed
		}
		c.fg.EdgeMap(t, frontier, pull, push, ligra.EdgeMapOpts{
			NoOutput:     true,
			SourceActive: srcActive,
		})
		// Symmetric pass: connected components treats edges as
		// undirected, so every edge incident to an active vertex
		// exchanges the minimum label in both directions, across both
		// adjacency views (the EdgeMap above covers the src->dst
		// direction; this covers the rest).
		exchange := func(v, u graph.VertexID) {
			t.Read(c.labelArr, uint64(u), pcCCLabelRd)
			if c.Label[v] < c.next[u] {
				c.next[u] = c.Label[v]
				t.Write(c.labelArr, uint64(u), pcCCLabelWr)
			}
			if c.Label[u] < c.next[v] {
				c.next[v] = c.Label[u]
				t.Write(c.labelArr, uint64(v), pcCCLabelWr)
			}
		}
		for v := uint32(0); v < n; v++ {
			if !active[v] {
				continue
			}
			t.Read(c.fg.VtxOut, uint64(v), pcCCLabelRd)
			t.Read(c.fg.VtxOut, uint64(v)+1, pcCCLabelRd)
			for _, u := range g.OutNeighbors(v) {
				exchange(v, u)
			}
			t.Read(c.fg.VtxIn, uint64(v), pcCCLabelRd)
			t.Read(c.fg.VtxIn, uint64(v)+1, pcCCLabelRd)
			for _, u := range g.InNeighbors(v) {
				exchange(v, u)
			}
		}
		// Commit and build the next frontier from changed vertices.
		var changed []graph.VertexID
		for v := uint32(0); v < n; v++ {
			active[v] = c.next[v] != c.Label[v]
			if active[v] {
				changed = append(changed, v)
			}
			c.Label[v] = c.next[v]
		}
		frontier = ligra.NewFrontierSparse(n, changed)
	}
}
