package apps

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"slices"
	"testing"

	"grasp/internal/graph"
	"grasp/internal/ligra"
	"grasp/internal/mem"
)

// This file keeps KCore.Run's former body — every peel phase rescans all n
// vertices and skips the dead ones — as the reference the live-vertex scan
// is cross-checked against. Both run through a recording sink, and the
// access streams (address, PC, write, property, in order), Coreness and
// Degree must be identical: the recording a simulation replays is the
// product, so equal results are not enough.

// runReference is the O(k_max·n) peeling loop Run replaced.
func (c *KCore) runReference(t *ligra.Tracer) {
	g := c.fg.C
	n := g.NumVertices()
	alive := make([]bool, n)
	for v := uint32(0); v < n; v++ {
		c.Degree[v] = int64(g.OutDegree(v)) + int64(g.InDegree(v))
		c.Coreness[v] = 0
		alive[v] = true
	}
	remaining := n
	for k := uint32(1); remaining > 0; k++ {
		var peel []graph.VertexID
		for v := uint32(0); v < n; v++ {
			if !alive[v] {
				continue
			}
			t.Read(c.degArr, uint64(v), pcKCDegRd)
			if c.Degree[v] < int64(k) {
				peel = append(peel, v)
			}
		}
		for len(peel) > 0 {
			for _, v := range peel {
				alive[v] = false
				c.Coreness[v] = k - 1
				t.Write(c.coreArr, uint64(v), pcKCCoreWr)
				remaining--
			}
			front := ligra.NewFrontierSparse(n, peel)
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

// streamHash is a mem.Sink that folds every access, in order, into a
// SHA-256 and counts them: a recording of any length in constant memory.
type streamHash struct {
	h   hash.Hash
	n   uint64
	buf [14]byte
}

func newStreamHash() *streamHash { return &streamHash{h: sha256.New()} }

// Access implements mem.Sink.
func (s *streamHash) Access(a mem.Access) {
	binary.LittleEndian.PutUint64(s.buf[0:8], a.Addr)
	binary.LittleEndian.PutUint32(s.buf[8:12], a.PC)
	s.buf[12] = byte(a.Hint)
	s.buf[13] = 0
	if a.Write {
		s.buf[13] |= 1
	}
	if a.Property {
		s.buf[13] |= 2
	}
	s.h.Write(s.buf[:])
	s.n++
}

// crossCheckKCore runs Run and runReference on g, each on its own ligra
// graph (so both lay out identical address spaces), and requires identical
// streams, Coreness and Degree.
func crossCheckKCore(t *testing.T, g *graph.CSR) {
	t.Helper()
	got, want := NewKCore(ligra.NewGraph(g)), NewKCore(ligra.NewGraph(g))
	gs, ws := newStreamHash(), newStreamHash()
	got.Run(ligra.NewTracer(gs))
	want.runReference(ligra.NewTracer(ws))
	if gs.n != ws.n || string(gs.h.Sum(nil)) != string(ws.h.Sum(nil)) {
		t.Fatalf("%v: access streams differ: %d accesses (sha256 %x), reference %d (sha256 %x)",
			g, gs.n, gs.h.Sum(nil)[:8], ws.n, ws.h.Sum(nil)[:8])
	}
	if !slices.Equal(got.Coreness, want.Coreness) {
		t.Fatalf("%v: Coreness differs from the reference", g)
	}
	if !slices.Equal(got.Degree, want.Degree) {
		t.Fatalf("%v: Degree differs from the reference", g)
	}
}

// TestKCoreCrossCheck compares the two loops on the generated datasets at
// scales 64 and 16, on TestKCoreMatchesReferencePeeling's graphs and K5,
// and on the shapes where a live-list bookkeeping bug would hide: no edges,
// isolated vertices, self-loops and parallel edges.
func TestKCoreCrossCheck(t *testing.T) {
	mustFromEdges := func(n uint32, edges []graph.Edge) *graph.CSR {
		g, err := graph.FromEdges(n, edges, false)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	small := map[string]*graph.CSR{
		"zipf":     graph.GenZipf(300, 6, 0.9, 41, false),
		"rmat":     graph.GenRMATDefault(8, 5, 43, false),
		"uniform":  graph.GenUniform(200, 4, 45, false),
		"grid":     graph.GenGrid(8, 9),
		"star":     graph.GenStar(30),
		"K5":       graph.GenComplete(5),
		"edgeless": mustFromEdges(7, nil),
		"isolated": mustFromEdges(9, []graph.Edge{{Src: 2, Dst: 5}, {Src: 5, Dst: 2}, {Src: 5, Dst: 7}}),
		"selfloops": mustFromEdges(6, []graph.Edge{
			{Src: 0, Dst: 0}, {Src: 1, Dst: 1}, {Src: 1, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 3}, {Src: 4, Dst: 1}}),
		"parallel": mustFromEdges(5, []graph.Edge{
			{Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 2, Dst: 3},
			{Src: 3, Dst: 2}, {Src: 2, Dst: 3}, {Src: 4, Dst: 0}, {Src: 4, Dst: 0}, {Src: 1, Dst: 4}}),
	}
	for name, g := range small {
		t.Run(name, func(t *testing.T) { crossCheckKCore(t, g) })
	}
	for _, d := range graph.Datasets() {
		for _, scale := range []uint32{64, 16} {
			t.Run(fmt.Sprintf("%s@%d", d.Name, scale), func(t *testing.T) {
				crossCheckKCore(t, d.Generate(false, scale))
			})
		}
	}
}
