package apps

import (
	"grasp/internal/graph"
	"grasp/internal/ligra"
	"grasp/internal/mem"
)

// BFS is direction-optimizing breadth-first search, the canonical
// vertex-centric kernel (not part of the paper's five evaluated
// applications, but the building block of BC and Radii; included as an
// extension workload for the public API). The per-vertex Property Array
// holds the parent, with the level kept alongside for the fused activity
// check.
type BFS struct {
	fg   *ligra.Graph
	root graph.VertexID

	Parent []int64
	Level  []int32

	parentArr *mem.Array
	levelArr  *mem.Array
}

var (
	pcBFSParentRd = mem.PC("bfs.read.parent")
	pcBFSParentWr = mem.PC("bfs.write.parent")
	pcBFSLevel    = mem.PC("bfs.level")
)

// NewBFS creates a BFS instance rooted at root.
func NewBFS(fg *ligra.Graph, root graph.VertexID) *BFS {
	n := fg.C.NumVertices()
	b := &BFS{fg: fg, root: root,
		Parent: make([]int64, n), Level: make([]int32, n)}
	b.parentArr = fg.RegisterProperty("bfs.parent", 8)
	b.levelArr = fg.RegisterProperty("bfs.level", 8)
	return b
}

// ABRArrays implements App.
func (b *BFS) ABRArrays() []*mem.Array { return []*mem.Array{b.parentArr, b.levelArr} }

// Run implements App.
func (b *BFS) Run(t *ligra.Tracer) {
	n := b.fg.C.NumVertices()
	for v := uint32(0); v < n; v++ {
		b.Parent[v] = -1
		b.Level[v] = -1
	}
	b.Parent[b.root] = int64(b.root)
	b.Level[b.root] = 0
	frontier := ligra.NewFrontierSparse(n, []graph.VertexID{b.root})
	for depth := int32(1); !frontier.IsEmpty(); depth++ {
		depth := depth
		cond := func(v graph.VertexID) bool {
			t.Read(b.parentArr, uint64(v), pcBFSParentRd)
			return b.Parent[v] < 0
		}
		srcActive := func(src graph.VertexID) bool {
			t.Read(b.levelArr, uint64(src), pcBFSLevel)
			return b.Level[src] == depth-1
		}
		pull := func(dst, src graph.VertexID, _ int32) bool {
			// First active in-neighbor becomes the parent; EarlyExit stops
			// the scan (the BFS "bottom-up" optimization).
			t.Write(b.parentArr, uint64(dst), pcBFSParentWr)
			b.Parent[dst] = int64(src)
			return true
		}
		push := func(src, dst graph.VertexID, _ int32) bool {
			t.Read(b.parentArr, uint64(dst), pcBFSParentRd)
			if b.Parent[dst] >= 0 {
				return false
			}
			t.Write(b.parentArr, uint64(dst), pcBFSParentWr)
			b.Parent[dst] = int64(src)
			b.Level[dst] = depth
			t.Write(b.levelArr, uint64(dst), pcBFSLevel)
			return true
		}
		next, usedPull := b.fg.EdgeMap(t, frontier, pull, push,
			ligra.EdgeMapOpts{Cond: cond, SourceActive: srcActive, EarlyExit: true})
		if usedPull {
			ligra.VertexMap(next, func(v graph.VertexID) {
				t.Write(b.levelArr, uint64(v), pcBFSLevel)
				b.Level[v] = depth
			})
		}
		frontier = next
	}
}
