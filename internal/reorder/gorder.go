package reorder

import (
	"slices"

	"grasp/internal/graph"
)

// DefaultGorderWindow is the sliding-window size used by Gorder; the Gorder
// paper (Wei et al., SIGMOD'16) recommends w=5.
const DefaultGorderWindow = 5

// hubCap bounds the expansion of very high out-degree in-neighbors during
// Gorder's score updates. Without it, the greedy pass costs
// sum_u outdeg(u)^2, which is intractable on power-law graphs; the original
// implementation applies comparable hub optimizations. Capping changes the
// approximation slightly but not the algorithm's character.
const hubCap = 256

// Gorder computes a Gorder-style vertex ordering: a greedy sequence that
// repeatedly appends the vertex with the highest locality score with
// respect to a sliding window of the w most recently placed vertices.
// The score of candidate v is the number of (a) edges from window vertices
// to v plus (b) common in-neighbors between v and window vertices — i.e.
// the S(u,v) = S_s(u,v) + S_n(u,v) function of the Gorder paper.
//
// Candidate selection is EXACT: every pop yields a vertex of the current
// maximum score, and among equal scores the lowest vertex id wins — the
// documented deterministic tie-break (DESIGN.md Sec. 12). A step evicts
// one vertex from the window (-1 on everything it scored) and admits the
// one just placed (+1); only the scores at the next pop matter and the
// updates between two pops commute, so the step first nets them — per
// in-neighbor w in dc (an in-neighbor shared by the evicted and the placed
// vertex cancels before its up-to-hubCap-way expansion, and those are the
// hubs), then per vertex in delta — and applies each non-zero net change
// as ONE maxTree.set. Memory is O(n) whatever scores are reached. The
// cross-check suite (gorder_crosscheck_test.go) proves the permutation
// equal to an independent reference implementation of the same spec.
//
// This is the "complex technique with a staggering reordering cost"
// evaluated as Gorder in the paper; it approximates an NP-hard problem by
// comprehensive structural analysis and stays several times more expensive
// per edge than the skew-aware techniques.
func Gorder(g *graph.CSR, window int) Permutation {
	n := g.NumVertices()
	if n == 0 {
		return Permutation{}
	}
	if window <= 0 {
		window = DefaultGorderWindow
	}

	t := newMaxTree(n)
	dc := make([]int32, n)    // net window change per in-neighbor, this step
	delta := make([]int32, n) // net score change per vertex, this step
	// Vertices whose dc / delta entry left zero this step. An entry that
	// returns to zero and leaves again is listed twice; the second visit
	// finds it already cleared.
	var dirtyDC, dirtyDelta []graph.VertexID

	// add nets d into delta[v] for every v of nb, with multiplicity. This
	// is the hot loop (tens of millions of iterations at scale 8), so the
	// list slot is written unconditionally and kept by advancing m: no
	// append, and no unpredictable branch, per element.
	add := func(nb []graph.VertexID, d int32) {
		m := len(dirtyDelta)
		buf := slices.Grow(dirtyDelta, len(nb))
		buf = buf[:cap(buf)]
		for _, v := range nb {
			buf[m] = v
			old := delta[v]
			if old == 0 {
				m++
			}
			delta[v] = old + d
		}
		dirtyDelta = buf[:m]
	}
	// moveWindow accumulates the direct term of u entering (d=+1) or
	// leaving (d=-1) the window and nets the sibling term per in-neighbor.
	moveWindow := func(u graph.VertexID, d int32) {
		add(g.OutNeighbors(u), d)
		for _, w := range g.InNeighbors(u) {
			if dc[w] == 0 {
				dirtyDC = append(dirtyDC, w)
			}
			dc[w] += d
		}
	}

	p := make(Permutation, n)
	win := make([]graph.VertexID, window) // ring of the last `window` placed
	for k := 0; k < int(n); k++ {
		u := t.popMax()
		p[u] = uint32(k)
		slot := k % window
		if k >= window {
			moveWindow(win[slot], -1)
		}
		win[slot] = u
		moveWindow(u, +1)

		for _, w := range dirtyDC {
			if d := dc[w]; d != 0 {
				dc[w] = 0
				nb := g.OutNeighbors(w)
				add(nb[:min(len(nb), hubCap)], d)
			}
		}
		dirtyDC = dirtyDC[:0]
		for _, v := range dirtyDelta {
			d := delta[v]
			delta[v] = 0
			// Popped vertices (u included) keep no score: their leaf is -1.
			if s := t.score(v); d != 0 && s >= 0 {
				t.set(v, s+d)
			}
		}
		dirtyDelta = dirtyDelta[:0]
	}
	return p
}

// maxTree is the priority structure behind Gorder's greedy loop: a
// complete binary max-tree over vertex ids held in one slice. Leaf base+v
// is v's score, or -1 once v is popped (and for the padding up to the next
// power of two); inner node i is the max of nodes 2i and 2i+1. It takes
// score changes of any size and has no state beyond the slice.
type maxTree struct {
	node []int32
	base uint32 // index of leaf 0: the least power of two >= n
}

// newMaxTree builds the tree over vertices [0, n), n >= 1, all at score 0.
func newMaxTree(n uint32) maxTree {
	base := uint32(1)
	for base < n {
		base <<= 1
	}
	t := maxTree{node: make([]int32, 2*base), base: base}
	for i := base + n; i < 2*base; i++ {
		t.node[i] = -1
	}
	for i := base - 1; i >= 1; i-- {
		t.node[i] = max(t.node[2*i], t.node[2*i+1])
	}
	return t
}

// score returns v's current score, -1 if v was popped.
func (t maxTree) score(v uint32) int32 { return t.node[t.base+v] }

// set changes v's score to s, walking up until an ancestor keeps its max.
func (t maxTree) set(v uint32, s int32) {
	i := t.base + v
	t.node[i] = s
	for i > 1 {
		s = max(s, t.node[i^1])
		i >>= 1
		if t.node[i] == s {
			return
		}
		t.node[i] = s
	}
}

// popMax removes and returns the LOWEST vertex id among those sharing the
// maximum score: the descent takes the left child whenever it carries its
// parent's max. Must not be called more than n times.
func (t maxTree) popMax() uint32 {
	i := uint32(1)
	for i < t.base {
		i <<= 1
		if t.node[i] != t.node[i>>1] {
			i++
		}
	}
	v := i - t.base
	t.set(v, -1)
	return v
}

// GorderThenDBG applies Gorder followed by DBG, the "simple tweak" from
// Sec. V-C of the paper that makes Gorder compatible with GRASP: the result
// retains most of the Gorder ordering while segregating hot vertices in a
// contiguous region. DBG reads nothing of the Gorder-relabeled graph but
// each vertex's degree in id order, so that graph is never built.
func GorderThenDBG(g *graph.CSR, window int, src DegreeSource) Permutation {
	pg := Gorder(g, window)
	inv := pg.Inverse()
	degree := degreeFunc(g, src)
	pd := dbg(g.NumVertices(), func(mid graph.VertexID) uint32 { return degree(inv[mid]) })
	// Compose: old --pg--> mid --pd--> new.
	out := make(Permutation, len(pg))
	for old, mid := range pg {
		out[old] = pd[mid]
	}
	return out
}
