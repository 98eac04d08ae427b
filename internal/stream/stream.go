// Package stream implements the dynamic-graph setting discussed in
// Sec. VI of the paper ("Streaming graph frameworks"): a stream of edge
// insertions/removals interleaved with graph-analytic queries, where each
// query runs on a consistent CSR snapshot (the Aspen/Ligra deployment
// model). It substantiates the paper's argument that skew-aware
// reordering — and with it GRASP — carries over to dynamic graphs because
// degree distributions drift slowly: reordering can be applied at periodic
// intervals and amortized over many queries.
package stream

import (
	"fmt"
	"sort"

	"grasp/internal/graph"
)

// Update is one mutation in the update stream.
type Update struct {
	Add  bool // true = insert edge, false = remove edge
	Edge graph.Edge
}

// DynamicGraph is an adjacency-list graph supporting streamed updates and
// CSR snapshots. It favors clarity over update throughput: per-vertex
// sorted out-neighbor slices, with in-edges materialized at snapshot time.
type DynamicGraph struct {
	out      [][]graph.Edge // per source: edges sorted by (Dst, Weight)
	n        uint32
	m        uint64
	weighted bool
}

// NewDynamicGraph creates an empty dynamic graph on n vertices.
func NewDynamicGraph(n uint32, weighted bool) *DynamicGraph {
	return &DynamicGraph{out: make([][]graph.Edge, n), n: n, weighted: weighted}
}

// FromCSR seeds a dynamic graph from a static snapshot.
func FromCSR(g *graph.CSR) *DynamicGraph {
	d := NewDynamicGraph(g.NumVertices(), g.Weighted())
	for v := uint32(0); v < g.NumVertices(); v++ {
		nb := g.OutNeighbors(v)
		var w []int32
		if g.Weighted() {
			w = g.OutNeighborWeights(v)
		}
		for i, u := range nb {
			e := graph.Edge{Src: v, Dst: u}
			if w != nil {
				e.Weight = w[i]
			}
			d.out[v] = append(d.out[v], e)
		}
		d.m += uint64(len(nb))
	}
	return d
}

// NumVertices returns the vertex count.
func (d *DynamicGraph) NumVertices() uint32 { return d.n }

// NumEdges returns the current edge count.
func (d *DynamicGraph) NumEdges() uint64 { return d.m }

// OutDegree returns the current out-degree of v.
func (d *DynamicGraph) OutDegree(v graph.VertexID) uint32 { return uint32(len(d.out[v])) }

// AddVertex appends a new isolated vertex and returns its ID.
func (d *DynamicGraph) AddVertex() graph.VertexID {
	d.out = append(d.out, nil)
	d.n++
	return d.n - 1
}

// AddEdge inserts a directed edge (parallel edges allowed, as in the
// generators).
func (d *DynamicGraph) AddEdge(e graph.Edge) error {
	if e.Src >= d.n || e.Dst >= d.n {
		return fmt.Errorf("stream: edge (%d->%d) out of range for %d vertices", e.Src, e.Dst, d.n)
	}
	adj := d.out[e.Src]
	i := sort.Search(len(adj), func(i int) bool {
		if adj[i].Dst != e.Dst {
			return adj[i].Dst > e.Dst
		}
		return adj[i].Weight >= e.Weight
	})
	adj = append(adj, graph.Edge{})
	copy(adj[i+1:], adj[i:])
	adj[i] = e
	d.out[e.Src] = adj
	d.m++
	return nil
}

// RemoveEdge removes one instance of the edge (matching Src/Dst; weight
// ignored for unweighted graphs). It reports whether an edge was removed.
func (d *DynamicGraph) RemoveEdge(e graph.Edge) bool {
	if e.Src >= d.n {
		return false
	}
	adj := d.out[e.Src]
	for i, x := range adj {
		if x.Dst == e.Dst && (!d.weighted || x.Weight == e.Weight) {
			d.out[e.Src] = append(adj[:i], adj[i+1:]...)
			d.m--
			return true
		}
	}
	return false
}

// ApplyBatch applies a batch of updates; removals of absent edges are
// ignored (idempotent deletion, as streaming frameworks do).
func (d *DynamicGraph) ApplyBatch(batch []Update) error {
	for _, u := range batch {
		if u.Add {
			if err := d.AddEdge(u.Edge); err != nil {
				return err
			}
		} else {
			d.RemoveEdge(u.Edge)
		}
	}
	return nil
}

// Snapshot materializes a consistent CSR view for a query.
func (d *DynamicGraph) Snapshot() *graph.CSR {
	edges := make([]graph.Edge, 0, d.m)
	for _, adj := range d.out {
		edges = append(edges, adj...)
	}
	g, err := graph.FromEdges(d.n, edges, d.weighted)
	if err != nil {
		panic(err) // in-range by construction
	}
	return g
}

// GenUpdateBatch synthesizes an update batch with the given insertion
// fraction, drawing endpoints from z, the same Zipf skew as the base
// graph, so that the degree distribution drifts realistically (new edges
// preferentially attach to already-popular vertices). z must range over
// d's vertices. It draws ranks WITHOUT the base graph's relabeling:
// applied to an already-shuffled graph this models preferential
// attachment to currently-popular vertices only approximately; good
// enough for drift experiments.
func GenUpdateBatch(d *DynamicGraph, z *graph.ZipfSampler, size int, addFrac float64, seed uint64) []Update {
	r := graph.NewRNG(seed)
	batch := make([]Update, 0, size)
	nAdds := int(float64(size) * addFrac)
	for i := 0; i < nAdds; i++ {
		batch = append(batch, Update{Add: true, Edge: graph.Edge{
			Src:    z.Sample(r),
			Dst:    z.Sample(r),
			Weight: int32(1 + r.Uint32n(63)),
		}})
	}
	for i := nAdds; i < size; i++ {
		// Remove a uniformly random existing edge.
		src := r.Uint32n(d.n)
		for tries := 0; tries < 64 && len(d.out[src]) == 0; tries++ {
			src = r.Uint32n(d.n)
		}
		if len(d.out[src]) == 0 {
			continue
		}
		e := d.out[src][r.Intn(len(d.out[src]))]
		batch = append(batch, Update{Add: false, Edge: e})
	}
	return batch
}
