package apps

import (
	"grasp/internal/graph"
	"grasp/internal/ligra"
	"grasp/internal/mem"
)

// InfDist is the initial (unreached) distance.
const InfDist = int64(1) << 62

// SSSP computes single-source shortest paths with the Bellman-Ford
// algorithm, push-based throughout the execution as in the paper
// (Table IV: SSSP applies push-based computations).
//
// Property state per vertex: dist and a visited-this-round flag used to
// deduplicate frontier insertions (Ligra's SSSP uses the same structure).
// Merged layout: one array of 16-byte {dist, flag} elements; split: two
// 8-byte arrays.
type SSSP struct {
	fg     *ligra.Graph
	root   graph.VertexID
	layout Layout

	Dist []int64

	merged  *mem.Array
	distArr *mem.Array
	flagArr *mem.Array

	// MaxRounds bounds Bellman-Ford rounds (negative cycles cannot occur
	// with positive weights, but adversarial inputs shouldn't hang tests).
	MaxRounds int
}

var (
	pcSSSPReadSrc  = mem.PC("sssp.read.dist.src")
	pcSSSPReadDst  = mem.PC("sssp.read.dist.dst")
	pcSSSPWriteDst = mem.PC("sssp.write.dist.dst")
	pcSSSPFlag     = mem.PC("sssp.flag")
)

// NewSSSP creates an SSSP instance rooted at root.
func NewSSSP(fg *ligra.Graph, root graph.VertexID, layout Layout) *SSSP {
	if !fg.C.Weighted() {
		panic("apps: SSSP requires a weighted graph")
	}
	n := fg.C.NumVertices()
	s := &SSSP{fg: fg, root: root, layout: layout,
		Dist: make([]int64, n), MaxRounds: int(n)}
	if layout == LayoutMerged {
		s.merged = fg.RegisterProperty("sssp.prop", 16)
	} else {
		s.distArr = fg.RegisterProperty("sssp.dist", 8)
		s.flagArr = fg.RegisterProperty("sssp.flag", 8)
	}
	return s
}

// ABRArrays implements App.
func (s *SSSP) ABRArrays() []*mem.Array {
	if s.layout == LayoutMerged {
		return []*mem.Array{s.merged}
	}
	return []*mem.Array{s.distArr, s.flagArr}
}

func (s *SSSP) readDist(t *ligra.Tracer, v graph.VertexID, pc uint32) {
	if s.layout == LayoutMerged {
		t.ReadOff(s.merged, uint64(v), 0, pc)
	} else {
		t.Read(s.distArr, uint64(v), pc)
	}
}

func (s *SSSP) writeDist(t *ligra.Tracer, v graph.VertexID) {
	if s.layout == LayoutMerged {
		t.WriteOff(s.merged, uint64(v), 0, pcSSSPWriteDst)
	} else {
		t.Write(s.distArr, uint64(v), pcSSSPWriteDst)
	}
}

func (s *SSSP) touchFlag(t *ligra.Tracer, v graph.VertexID, write bool) {
	if s.layout == LayoutMerged {
		if write {
			t.WriteOff(s.merged, uint64(v), 8, pcSSSPFlag)
		} else {
			t.ReadOff(s.merged, uint64(v), 8, pcSSSPFlag)
		}
	} else {
		if write {
			t.Write(s.flagArr, uint64(v), pcSSSPFlag)
		} else {
			t.Read(s.flagArr, uint64(v), pcSSSPFlag)
		}
	}
}

// Run implements App.
func (s *SSSP) Run(t *ligra.Tracer) {
	n := s.fg.C.NumVertices()
	inFrontier := make([]bool, n)
	for v := range s.Dist {
		s.Dist[v] = InfDist
	}
	s.Dist[s.root] = 0
	frontier := ligra.NewFrontierSparse(n, []graph.VertexID{s.root})
	for round := 0; round < s.MaxRounds && !frontier.IsEmpty(); round++ {
		for _, v := range frontier.Vertices() {
			inFrontier[v] = false
		}
		next := s.fg.EdgeMapPush(t, frontier, func(src, dst graph.VertexID, w int32) bool {
			s.readDist(t, src, pcSSSPReadSrc)
			s.readDist(t, dst, pcSSSPReadDst)
			cand := s.Dist[src] + int64(w)
			if cand >= s.Dist[dst] {
				return false
			}
			s.Dist[dst] = cand
			s.writeDist(t, dst)
			// Frontier dedup via the visited flag.
			s.touchFlag(t, dst, false)
			if inFrontier[dst] {
				return false
			}
			inFrontier[dst] = true
			s.touchFlag(t, dst, true)
			return true
		}, ligra.EdgeMapOpts{})
		frontier = next
	}
}
