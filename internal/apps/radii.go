package apps

import (
	"grasp/internal/graph"
	"grasp/internal/ligra"
	"grasp/internal/mem"
)

// DefaultRadiiSamples is the number of simultaneous BFS sources (one bit
// each in a 64-bit visited word), as in Ligra's Radii from [Magnien et al.].
const DefaultRadiiSamples = 64

// Radii estimates the radius (eccentricity) of every vertex by running
// DefaultRadiiSamples parallel BFS traversals encoded as 64-bit bitmasks:
// Visited[v] has bit k set when BFS k has reached v. Each iteration pulls
// neighbor masks: NextVisited[d] |= Visited[s]; a vertex whose mask grew
// updates its radius estimate and stays active.
//
// Property Arrays: Visited and NextVisited (the two ABR-instrumented
// arrays); Radii itself is a third, sequentially-updated property array.
type Radii struct {
	fg      *ligra.Graph
	samples int

	Radii   []int32
	visited []uint64
	nextVis []uint64

	visArr  *mem.Array
	nextArr *mem.Array
	radArr  *mem.Array
}

var (
	pcRadiiVisRd  = mem.PC("radii.read.visited")
	pcRadiiNextRd = mem.PC("radii.read.next")
	pcRadiiNextWr = mem.PC("radii.write.next")
	pcRadiiUpd    = mem.PC("radii.vmap.update")
)

// NewRadii creates a Radii instance.
func NewRadii(fg *ligra.Graph, samples int) *Radii {
	n := fg.C.NumVertices()
	if samples > 64 {
		samples = 64
	}
	r := &Radii{fg: fg, samples: samples,
		Radii: make([]int32, n), visited: make([]uint64, n), nextVis: make([]uint64, n)}
	r.visArr = fg.RegisterProperty("radii.visited", 8)
	r.nextArr = fg.RegisterProperty("radii.next", 8)
	r.radArr = fg.RegisterProperty("radii.radii", 8)
	return r
}

// ABRArrays implements App.
func (r *Radii) ABRArrays() []*mem.Array { return []*mem.Array{r.visArr, r.nextArr} }

// Run implements App.
func (r *Radii) Run(t *ligra.Tracer) {
	c := r.fg.C
	n := c.NumVertices()
	for v := uint32(0); v < n; v++ {
		r.Radii[v] = -1
		r.visited[v] = 0
		r.nextVis[v] = 0
	}
	// Sample sources: spread deterministically over the vertex space.
	var sources []graph.VertexID
	step := n / uint32(r.samples)
	if step == 0 {
		step = 1
	}
	for i := 0; i < r.samples && uint32(i)*step < n; i++ {
		v := uint32(i) * step
		r.visited[v] |= 1 << uint(i)
		r.nextVis[v] = r.visited[v]
		r.Radii[v] = 0
		sources = append(sources, v)
	}
	frontier := ligra.NewFrontierSparse(n, sources)
	// Native frontier mirror: activity is fused into the visited-mask
	// read (a vertex is active iff its mask grew last round, which the
	// mask layout encodes alongside the bits).
	inFrontier := make([]bool, n)
	for _, v := range sources {
		inFrontier[v] = true
	}
	for round := int32(1); !frontier.IsEmpty(); round++ {
		srcActive := func(src graph.VertexID) bool {
			t.Read(r.visArr, uint64(src), pcRadiiVisRd)
			return inFrontier[src]
		}
		pull := func(dst, src graph.VertexID, _ int32) bool {
			t.Read(r.nextArr, uint64(dst), pcRadiiNextRd)
			old := r.nextVis[dst]
			merged := old | r.visited[src]
			if merged == old {
				return false
			}
			r.nextVis[dst] = merged
			t.Write(r.nextArr, uint64(dst), pcRadiiNextWr)
			return true
		}
		push := func(src, dst graph.VertexID, _ int32) bool {
			t.Read(r.visArr, uint64(src), pcRadiiVisRd)
			t.Read(r.nextArr, uint64(dst), pcRadiiNextRd)
			old := r.nextVis[dst]
			merged := old | r.visited[src]
			if merged == old {
				return false
			}
			first := old == r.visited[dst] // first growth this round
			r.nextVis[dst] = merged
			t.Write(r.nextArr, uint64(dst), pcRadiiNextWr)
			return first
		}
		next, _ := r.fg.EdgeMap(t, frontier, pull, push,
			ligra.EdgeMapOpts{SourceActive: srcActive})
		for _, v := range frontier.Vertices() {
			inFrontier[v] = false
		}
		// Commit: radii of grown vertices; Visited <- NextVisited.
		ligra.VertexMap(next, func(v graph.VertexID) {
			t.Read(r.visArr, uint64(v), pcRadiiUpd)
			t.Read(r.nextArr, uint64(v), pcRadiiUpd)
			t.Write(r.visArr, uint64(v), pcRadiiUpd)
			t.Write(r.radArr, uint64(v), pcRadiiUpd)
			r.visited[v] = r.nextVis[v]
			r.Radii[v] = round
			inFrontier[v] = true
		})
		frontier = next
	}
}
