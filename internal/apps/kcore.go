package apps

import (
	"grasp/internal/graph"
	"grasp/internal/ligra"
	"grasp/internal/mem"
)

// KCore computes the k-core decomposition (the coreness of every vertex)
// by iterative peeling, as in Ligra's KCore example: treating edges as
// undirected, for k = 1, 2, ... repeatedly remove every remaining vertex
// whose residual degree is below k; a vertex removed during phase k has
// coreness k-1. The removal wave propagates through EdgeMap (out-edges of
// the peeled frontier), with a symmetric in-edge pass completing the
// undirected view exactly as CC does. An extension workload beyond the
// paper's five applications.
type KCore struct {
	fg *ligra.Graph

	// Coreness[v] is the largest k such that v belongs to the k-core.
	Coreness []uint32
	// Degree is the residual undirected degree during peeling (in+out,
	// counting parallel edges).
	Degree []int64

	degArr  *mem.Array
	coreArr *mem.Array
}

var (
	pcKCDegRd  = mem.PC("kcore.read.degree")
	pcKCDegWr  = mem.PC("kcore.write.degree")
	pcKCCoreWr = mem.PC("kcore.write.coreness")
)

// NewKCore creates a k-core instance.
func NewKCore(fg *ligra.Graph) *KCore {
	n := fg.C.NumVertices()
	k := &KCore{fg: fg,
		Coreness: make([]uint32, n), Degree: make([]int64, n)}
	k.degArr = fg.RegisterProperty("kcore.degree", 4)
	k.coreArr = fg.RegisterProperty("kcore.coreness", 4)
	return k
}

// ABRArrays implements App.
func (c *KCore) ABRArrays() []*mem.Array { return []*mem.Array{c.degArr, c.coreArr} }

// dec removes one undirected edge endpoint from v's residual degree and
// reports whether v just fell below the current threshold k (the unique
// transition to k-1, so each vertex joins the peel wave exactly once).
func (c *KCore) dec(t *ligra.Tracer, alive []bool, v graph.VertexID, k uint32) bool {
	t.Read(c.degArr, uint64(v), pcKCDegRd)
	if !alive[v] {
		return false
	}
	c.Degree[v]--
	t.Write(c.degArr, uint64(v), pcKCDegWr)
	return c.Degree[v] == int64(k)-1
}

// Run implements App.
func (c *KCore) Run(t *ligra.Tracer) {
	g := c.fg.C
	n := g.NumVertices()
	alive := make([]bool, n)
	for v := uint32(0); v < n; v++ {
		c.Degree[v] = int64(g.OutDegree(v)) + int64(g.InDegree(v))
		c.Coreness[v] = 0
		alive[v] = true
	}
	// live holds, ascending, the vertices a threshold scan may still have
	// to read. Each scan drops the ones it finds dead and the ones it
	// peels, so a phase visits the alive vertices it reads plus, once,
	// those the previous phase's waves peeled: the scan costs what it
	// emits instead of n.
	live := make([]graph.VertexID, n)
	for v := range live {
		live[v] = graph.VertexID(v)
	}
	remaining := n
	for k := uint32(1); remaining > 0; k++ {
		// Collect this phase's initial peel set: alive vertices whose
		// residual degree already sits below k.
		var peel []graph.VertexID
		kept := live[:0]
		for _, v := range live {
			if !alive[v] {
				continue
			}
			t.Read(c.degArr, uint64(v), pcKCDegRd)
			if c.Degree[v] < int64(k) {
				peel = append(peel, v)
			} else {
				kept = append(kept, v)
			}
		}
		live = kept
		for len(peel) > 0 {
			for _, v := range peel {
				alive[v] = false
				c.Coreness[v] = k - 1
				t.Write(c.coreArr, uint64(v), pcKCCoreWr)
				remaining--
			}
			front := ligra.NewFrontierSparse(n, peel)
			// Out-edges of the peeled wave (v -> u): EdgeMap decrements u,
			// in push or pull mode by frontier density.
			cond := func(v graph.VertexID) bool {
				t.Read(c.degArr, uint64(v), pcKCDegRd)
				return alive[v]
			}
			pull := func(dst, src graph.VertexID, _ int32) bool {
				return c.dec(t, alive, dst, k)
			}
			push := func(src, dst graph.VertexID, _ int32) bool {
				return c.dec(t, alive, dst, k)
			}
			out, _ := c.fg.EdgeMap(t, front, pull, push, ligra.EdgeMapOpts{Cond: cond})
			next := out.Vertices()
			// In-edges of the peeled wave (u -> v): the symmetric pass
			// completing the undirected degree update.
			for _, v := range peel {
				t.Read(c.fg.VtxIn, uint64(v), pcKCDegRd)
				t.Read(c.fg.VtxIn, uint64(v)+1, pcKCDegRd)
				lo, hi := g.InIndex[v], g.InIndex[v+1]
				for e := lo; e < hi; e++ {
					t.Read(c.fg.EdgIn, e, pcKCDegRd)
					if u := g.InEdges[e]; c.dec(t, alive, u, k) {
						next = append(next, u)
					}
				}
			}
			peel = next
		}
	}
}
