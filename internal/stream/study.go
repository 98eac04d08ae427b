package stream

import (
	"grasp/internal/graph"
	"grasp/internal/reorder"
)

// Reordering-staleness study: how quickly does an update stream erode the
// hot-vertex prefix that skew-aware reordering established, and how often
// must reordering be reapplied? This quantifies the paper's Sec. VI claim
// that "addition or deletion of some vertices or edges in a large graph
// would not lead to a drastic change in the degree distribution, and thus
// [is] unlikely to change which vertices are classified hot in a short
// time window".

// PrefixCoverage returns the fraction of edges (by the summed degree on
// both sides) covered by the first `prefix` vertex IDs — the quantity
// GRASP's High Reuse Region depends on. Right after DBG/HubSort/Sort the
// prefix holds the hottest vertices, so coverage is maximal; drift lowers
// it.
func PrefixCoverage(g *graph.CSR, prefix uint32) float64 {
	if prefix > g.NumVertices() {
		prefix = g.NumVertices()
	}
	var covered, total uint64
	for v := uint32(0); v < g.NumVertices(); v++ {
		d := uint64(g.OutDegree(v) + g.InDegree(v))
		total += d
		if v < prefix {
			covered += d
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// StalenessPoint is one measurement in the staleness study.
type StalenessPoint struct {
	Batch int
	// StaleCoverage is the prefix coverage using the ORIGINAL (stale)
	// reordering after this many update batches.
	StaleCoverage float64
	// FreshCoverage is the coverage if reordering were reapplied now.
	FreshCoverage float64
}

// StalenessStudy seeds a dynamic graph from g (assumed already reordered
// so the hot prefix is at low IDs), applies `batches` update batches of
// `batchSize` updates (addFrac insertions) and measures the stale vs
// fresh prefix coverage after each batch.
func StalenessStudy(g *graph.CSR, prefix uint32, batches, batchSize int, addFrac, alpha float64, seed uint64) []StalenessPoint {
	d := FromCSR(g)
	// One sampler for every batch: a batch draws fewer endpoints than the
	// sampler's table has crossings.
	z := graph.NewZipfSampler(d.NumVertices(), alpha)
	var out []StalenessPoint
	for b := 1; b <= batches; b++ {
		batch := GenUpdateBatch(d, z, batchSize, addFrac, seed+uint64(b))
		if err := d.ApplyBatch(batch); err != nil {
			panic(err) // generated updates are in-range by construction
		}
		snap := d.Snapshot()
		stale := PrefixCoverage(snap, prefix)
		fresh := PrefixCoverage(reorder.Apply(snap, reorder.DBG(snap, reorder.BySum)), prefix)
		out = append(out, StalenessPoint{Batch: b, StaleCoverage: stale, FreshCoverage: fresh})
	}
	return out
}
