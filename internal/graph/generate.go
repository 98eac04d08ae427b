package graph

import (
	"fmt"
	"math"
	"math/bits"
)

// Generators for synthetic datasets. The paper evaluates on real graphs
// (LiveJournal, PLD, Twitter, Kron, SD1-ARC, Friendster, Uniform); those are
// tens of gigabytes and unavailable here, so we synthesize graphs whose
// degree-distribution *shape* matches each dataset class:
//
//   - RMAT/Kronecker for kr (the paper's kr is itself synthetic RMAT),
//   - Zipf power-law configuration graphs for lj/pl/tw/sd (natural graphs),
//   - a low-skew Zipf graph for fr (Friendster is known to be low-skew;
//     the paper uses it as the adversarial low-skew dataset),
//   - uniform (Erdős–Rényi style) for uni, matching the paper's R-MAT-
//     generated uniform dataset with no skew.

// GenUniform generates a uniform random directed multigraph with n vertices
// and approximately avgDegree*n edges: both endpoints of every edge are
// chosen uniformly at random. This reproduces the paper's "uni" no-skew
// dataset: every vertex's expected degree equals the average, so almost no
// vertex qualifies as hot by the degree>=average rule.
func GenUniform(n uint32, avgDegree float64, seed uint64, weighted bool) *CSR {
	r := NewRNG(seed)
	m := uint64(float64(n) * avgDegree)
	edges := make([]Edge, 0, m)
	for i := uint64(0); i < m; i++ {
		e := Edge{Src: r.Uint32n(n), Dst: r.Uint32n(n)}
		if weighted {
			e.Weight = int32(1 + r.Uint32n(maxWeight))
		}
		edges = append(edges, e)
	}
	g, err := FromEdges(n, edges, weighted)
	if err != nil {
		panic(err) // generator produces in-range IDs by construction
	}
	return g
}

// maxWeight bounds random edge weights for weighted graphs (SSSP).
const maxWeight = 64

// GenRMAT generates a Kronecker/R-MAT graph with 2^scale vertices and
// edgeFactor*2^scale edges using the standard (a,b,c,d) recursive
// partitioning parameters. The defaults used by the "kr" dataset
// (a=0.57,b=0.19,c=0.19,d=0.05) match Graph500 and the GAP benchmark suite,
// which is where the paper's Kron dataset comes from. R-MAT produces a
// highly skewed power-law degree distribution.
func GenRMAT(scale uint, edgeFactor float64, a, b, c float64, seed uint64, weighted bool) *CSR {
	n := uint32(1) << scale
	m := uint64(float64(n) * edgeFactor)
	r := NewRNG(seed)
	edges := make([]Edge, 0, m)
	for i := uint64(0); i < m; i++ {
		var src, dst uint32
		for level := uint(0); level < scale; level++ {
			p := r.Float64()
			switch {
			case p < a:
				// top-left quadrant: neither bit set
			case p < a+b:
				dst |= 1 << level
			case p < a+b+c:
				src |= 1 << level
			default:
				src |= 1 << level
				dst |= 1 << level
			}
		}
		e := Edge{Src: src, Dst: dst}
		if weighted {
			e.Weight = int32(1 + r.Uint32n(maxWeight))
		}
		edges = append(edges, e)
	}
	// Permute vertex IDs so that the hottest vertices are NOT already at
	// low IDs: R-MAT biases mass toward vertex 0, which would make the
	// baseline ordering accidentally GRASP-friendly. Real datasets ship in
	// crawl order; a random relabeling models that.
	perm := r.Perm(int(n))
	for i := range edges {
		edges[i].Src = perm[edges[i].Src]
		edges[i].Dst = perm[edges[i].Dst]
	}
	g, err := FromEdges(n, edges, weighted)
	if err != nil {
		panic(err)
	}
	return g
}

// GenRMATDefault generates an R-MAT graph with the Graph500 parameters.
func GenRMATDefault(scale uint, edgeFactor float64, seed uint64, weighted bool) *CSR {
	return GenRMAT(scale, edgeFactor, 0.57, 0.19, 0.19, seed, weighted)
}

// GenZipf generates a directed power-law graph with n vertices and about
// avgDegree*n edges using a configuration-model approach: each edge's
// endpoints are drawn from a Zipf distribution with exponent alpha over a
// randomly relabeled vertex order. Larger alpha = heavier skew; exponents
// around 1.0 reproduce the hot-vertex and edge-coverage percentages of the
// paper's natural graphs (Table I).
//
// Both in- and out-degree follow the same distribution, mirroring the
// paper's observation (Table I) that hot-vertex percentages are similar for
// in- and out-edges on natural graphs.
func GenZipf(n uint32, avgDegree, alpha float64, seed uint64, weighted bool) *CSR {
	g, err := FromEdges(n, zipfEdges(n, avgDegree, alpha, seed, weighted), weighted)
	if err != nil {
		panic(err)
	}
	return g
}

// zipfEdges draws GenZipf's edge list.
func zipfEdges(n uint32, avgDegree, alpha float64, seed uint64, weighted bool) []Edge {
	r := NewRNG(seed)
	m := uint64(float64(n) * avgDegree)
	z := NewZipfSampler(n, alpha)
	// Random relabeling so hot vertices are scattered across the ID space
	// (lack of spatial locality, Sec. II-D challenge 1).
	perm := r.Perm(int(n))
	edges := make([]Edge, 0, m)
	for i := uint64(0); i < m; i++ {
		e := Edge{Src: perm[z.Sample(r)], Dst: perm[z.Sample(r)]}
		if weighted {
			e.Weight = int32(1 + r.Uint32n(maxWeight))
		}
		edges = append(edges, e)
	}
	return edges
}

// ZipfSampler draws k in [0, n) from the continuous Zipf model: k is the
// floor of the inverse of the CDF of the density 1/(x+1)^alpha on [0, n],
//
//	x(u) = (u·h·(1-alpha) + 1)^(1/(1-alpha)) - 1,  h = ((n+1)^(1-alpha) - 1)/(1-alpha)
//
// (x(u) = e^(u·h) - 1 with h = ln(n+1) when alpha = 1), evaluated in
// float64 at u = RNG.Float64() and clamped to n-1. That evaluation, eval,
// is the definition: every generated graph's bits depend on it.
//
// Sample reaches the same k without math.Pow for all but a few draws per
// million. u lives on the 2^-53 grid, so a draw is a grid index i, and k
// changes only where x(u) crosses an integer: at u = τ_k =
// ((k+1)^(1-alpha) - 1)/(h·(1-alpha)) (ln(k+1)/h when alpha = 1). The
// sampler tabulates those n-1 crossings as grid indices, with a bucket
// index over i of between n and 2n buckets: a draw loads its bucket's k
// and scans forward past the crossings below i, fewer than one on
// average. A draw within guard grid steps of a tabulated crossing is
// evaluated instead, which makes Sample equal eval for every u (see
// guardBand).
//
// The table costs a Log and an Expm1 per crossing and at most 16 bytes
// per vertex while the sampler lives, so it pays for itself once a
// sampler draws more than about n/2 times. Parameters the error bound does
// not cover (alpha outside [0, 2], n < 2), or for which the bands would
// cover too much of [0, 1) (alpha within about 10^-5 of 1 at n = 2^17),
// evaluate every draw.
type ZipfSampler struct {
	n        uint32
	alpha    float64
	h        float64
	oneMinus float64

	// cross[k] is the first grid index drawing k as tabulated, for
	// 1 <= k < n; cross[0] = 0 and cross[n] = MaxUint64 bound the scan.
	// Nil when every draw is evaluated.
	cross []uint64
	// bucket[b] is the tabulated k at grid index b<<shift.
	bucket []uint32
	shift  uint
	guard  uint64
}

// zipfGrid is the number of points of RNG.Float64's grid.
const zipfGrid = 1 << 53

// zipfMargin is how many times guardBand's error bound each band is wide.
const zipfMargin = 1024

// NewZipfSampler returns a sampler over [0, n) with exponent alpha.
func NewZipfSampler(n uint32, alpha float64) *ZipfSampler {
	z := &ZipfSampler{n: n, alpha: alpha}
	if alpha == 1 {
		z.h = math.Log(float64(n) + 1)
	} else {
		z.oneMinus = 1 - alpha
		z.h = (math.Pow(float64(n)+1, z.oneMinus) - 1) / z.oneMinus
	}
	if guard := z.guardBand(); guard > 0 {
		z.buildTable(guard)
	}
	return z
}

// guardBand returns the half-width, in grid steps, of the band around each
// tabulated crossing inside which Sample evaluates, or 0 when there should
// be no table.
//
// Write c = 1-alpha, a = 1/|c| and b = u·h·c + 1, so x+1 = b^(1/c), and
// count errors in units of 2^-53 ("ulps"). eval's k can differ from the
// exact floor only where exact x is within eval's error of an integer,
// and a tabulated crossing sits off the exact τ_k only by its own
// rounding. In u, with slope = max(b)/h = 1/h + max(c, 0):
//
//   - b's rounding (u·h, ·c, +1) is at most 2^-53·(2|u·h·c| + b); b is
//     affine in u, so that is u moved by at most 3(1+a)·slope ulps;
//   - math.Pow(b, 1/c) errs by at most about 2a + |ln b| + 5 ulps relative
//     (Exp(yf·Log(b)) for the fraction of the exponent, repeated squaring
//     for its integer part), the exponent's own rounding adds ln(x+1),
//     and the final -1 one more. A relative error ε in x+1 moves the step
//     by ε·b/h in u, since dx/du = h·(x+1)^alpha and (x+1)^(1-alpha) = b;
//   - a crossing Expm1(c·Log(k+1))/(h·c) errs by at most 2|c|·ln(k+1) + 5
//     ulps of τ_k <= 1, plus one step rounding up to the grid.
//
// With |ln b|, |c|·ln(k+1) and ln(x+1) all at most ln(2^32) < 23 for alpha
// in [0, 2], the sum is below bound = 64·(1+a)·slope + 64 steps: a few
// hundred for every dataset (a <= 20 there), against crossings P(k)·2^53
// > 10^9 steps apart; TestZipfCrossingsMatchReference measures under 20.
// The band is zipfMargin·bound on each side; a draw falls in one with
// probability about 2n·guard/2^53, under 10^-5 for every dataset. alpha
// is limited to [0, 2] so that b stays above (n+1)^-1 >= 2^-32: no
// underflow, and the bounds above hold.
func (z *ZipfSampler) guardBand() uint64 {
	if z.n < 2 || !(z.alpha >= 0 && z.alpha <= 2) {
		return 0
	}
	amp, slope := 1.0, 1/z.h // alpha = 1: exp(u·h) amplifies nothing
	if z.alpha != 1 {
		amp += 1 / math.Abs(z.oneMinus)
		slope += math.Max(z.oneMinus, 0)
	}
	guard := zipfMargin * math.Ceil(64*amp*slope+64)
	// Past 1/64 of the draws falling back the table no longer pays.
	if 2*float64(z.n)*guard > zipfGrid/64 {
		return 0
	}
	return uint64(guard)
}

// buildTable tabulates the crossings and the bucket index over them.
func (z *ZipfSampler) buildTable(guard uint64) {
	n := z.n
	z.guard = guard
	z.cross = make([]uint64, n+1)
	z.cross[n] = math.MaxUint64
	for k := uint32(1); k < n; k++ {
		l := math.Log(float64(k) + 1)
		tau := l / z.h
		if z.alpha != 1 {
			tau = math.Expm1(z.oneMinus*l) / (z.h * z.oneMinus)
		}
		c := uint64(math.Min(math.Max(math.Ceil(tau*zipfGrid), 0), zipfGrid))
		// Rounding may not reorder two crossings: a draw's k is found by
		// scanning forward.
		z.cross[k] = max(c, z.cross[k-1])
	}
	bits := uint(bits.Len32(n))
	z.shift = 53 - bits
	z.bucket = make([]uint32, 1<<bits)
	k := uint32(0)
	for b := range z.bucket {
		start := uint64(b) << z.shift
		for z.cross[k+1] <= start {
			k++
		}
		z.bucket[b] = k
	}
}

// Sample draws one k, consuming exactly one RNG.Float64.
func (z *ZipfSampler) Sample(r *RNG) uint32 { return z.at(r.Float64()) }

// at is the k drawn at u.
func (z *ZipfSampler) at(u float64) uint32 {
	if k, ok := z.lookup(uint64(u * zipfGrid)); ok {
		return k
	}
	return z.eval(u)
}

// lookup returns the tabulated k of grid index i, or false when i lies in
// a guard band (or there is no table) and the draw must be evaluated.
func (z *ZipfSampler) lookup(i uint64) (uint32, bool) {
	if z.cross == nil {
		return 0, false
	}
	k := z.bucket[i>>z.shift]
	for z.cross[k+1] <= i {
		k++
	}
	if i-z.cross[k] < z.guard || z.cross[k+1]-i <= z.guard {
		return 0, false
	}
	return k, true
}

// eval is the model's defining float64 evaluation at u.
func (z *ZipfSampler) eval(u float64) uint32 {
	var x float64
	if z.alpha == 1 {
		x = math.Exp(u*z.h) - 1
	} else {
		x = math.Pow(u*z.h*z.oneMinus+1, 1/z.oneMinus) - 1
	}
	k := uint32(x)
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// Deterministic small graphs for tests.

// GenPath returns the path 0 -> 1 -> ... -> n-1 (unit weights).
func GenPath(n uint32) *CSR {
	edges := make([]Edge, 0, n-1)
	for i := uint32(0); i+1 < n; i++ {
		edges = append(edges, Edge{Src: i, Dst: i + 1, Weight: 1})
	}
	g, err := FromEdges(n, edges, true)
	if err != nil {
		panic(err)
	}
	return g
}

// GenCycle returns the directed cycle on n vertices (unit weights).
func GenCycle(n uint32) *CSR {
	edges := make([]Edge, 0, n)
	for i := uint32(0); i < n; i++ {
		edges = append(edges, Edge{Src: i, Dst: (i + 1) % n, Weight: 1})
	}
	g, err := FromEdges(n, edges, true)
	if err != nil {
		panic(err)
	}
	return g
}

// GenStar returns a star: vertex 0 has edges to and from all others.
func GenStar(n uint32) *CSR {
	edges := make([]Edge, 0, 2*(n-1))
	for i := uint32(1); i < n; i++ {
		edges = append(edges, Edge{Src: 0, Dst: i, Weight: 1}, Edge{Src: i, Dst: 0, Weight: 1})
	}
	g, err := FromEdges(n, edges, true)
	if err != nil {
		panic(err)
	}
	return g
}

// GenComplete returns the complete directed graph on n vertices (no
// self-loops, unit weights). Quadratic; tests only.
func GenComplete(n uint32) *CSR {
	edges := make([]Edge, 0, int(n)*(int(n)-1))
	for i := uint32(0); i < n; i++ {
		for j := uint32(0); j < n; j++ {
			if i != j {
				edges = append(edges, Edge{Src: i, Dst: j, Weight: 1})
			}
		}
	}
	g, err := FromEdges(n, edges, true)
	if err != nil {
		panic(err)
	}
	return g
}

// GenGrid returns a rows x cols grid with edges in both directions between
// 4-neighbors — a structured, community-free, low-skew graph used as an
// adversarial input in tests.
func GenGrid(rows, cols uint32) *CSR {
	n := rows * cols
	var edges []Edge
	id := func(r, c uint32) VertexID { return r*cols + c }
	for r := uint32(0); r < rows; r++ {
		for c := uint32(0); c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{Src: id(r, c), Dst: id(r, c+1), Weight: 1},
					Edge{Src: id(r, c+1), Dst: id(r, c), Weight: 1})
			}
			if r+1 < rows {
				edges = append(edges, Edge{Src: id(r, c), Dst: id(r+1, c), Weight: 1},
					Edge{Src: id(r+1, c), Dst: id(r, c), Weight: 1})
			}
		}
	}
	g, err := FromEdges(n, edges, true)
	if err != nil {
		panic(err)
	}
	return g
}

// Dataset describes one of the paper's evaluation datasets (Table V) and
// how its synthetic stand-in is generated at reproduction scale.
type Dataset struct {
	Name      string  // short label used throughout the paper: lj, pl, ...
	FullName  string  // dataset it stands in for
	Vertices  uint32  // scaled vertex count
	AvgDegree float64 // matches Table V's average degree
	Kind      DatasetKind
	Alpha     float64 // Zipf exponent for power-law kinds
	Scale     uint    // RMAT scale (Vertices = 1<<Scale) for RMAT kind
	Seed      uint64
	HighSkew  bool   // true for the five main-evaluation datasets
	Path      string // source file for KindFile datasets (see registry.go)
}

// DatasetKind selects the generator for a dataset.
type DatasetKind int

// Dataset kinds.
const (
	KindZipf DatasetKind = iota
	KindRMAT
	KindUniform
	// KindFile marks a dataset ingested from a graph file (edge list,
	// Matrix Market or GCSR) through the registry's resolver rather than
	// synthesized by a generator.
	KindFile
)

// scaleN is the default vertex count for scaled datasets (the paper's range
// is 5M–95M; we scale ~400x down and scale the LLC down with it — see
// DESIGN.md Sec. 5).
const scaleN = 1 << 17 // 131072

// Datasets returns the seven datasets of Table V at reproduction scale.
// Order matches the paper: lj, pl, tw, kr, sd (high-skew), then fr
// (low-skew) and uni (no-skew) adversarial datasets.
//
// Zipf exponents are calibrated so each dataset's hot-vertex percentage
// and edge coverage (Table I) land in the paper's band (9-26% of vertices
// covering 81-93% of edges on the high-skew datasets).
func Datasets() []Dataset {
	return []Dataset{
		{Name: "lj", FullName: "LiveJournal", Vertices: scaleN, AvgDegree: 14, Kind: KindZipf, Alpha: 0.95, Seed: 0x11, HighSkew: true},
		{Name: "pl", FullName: "PLD", Vertices: scaleN, AvgDegree: 15, Kind: KindZipf, Alpha: 1.05, Seed: 0x22, HighSkew: true},
		{Name: "tw", FullName: "Twitter", Vertices: scaleN, AvgDegree: 24, Kind: KindZipf, Alpha: 1.10, Seed: 0x33, HighSkew: true},
		{Name: "kr", FullName: "Kron", Vertices: scaleN, AvgDegree: 20, Kind: KindRMAT, Scale: 17, Seed: 0x44, HighSkew: true},
		{Name: "sd", FullName: "SD1-ARC", Vertices: scaleN, AvgDegree: 20, Kind: KindZipf, Alpha: 1.08, Seed: 0x55, HighSkew: true},
		{Name: "fr", FullName: "Friendster", Vertices: scaleN, AvgDegree: 33, Kind: KindZipf, Alpha: 0.30, Seed: 0x66},
		{Name: "uni", FullName: "Uniform", Vertices: scaleN, AvgDegree: 20, Kind: KindUniform, Seed: 0x77},
	}
}

// HighSkewDatasets returns the five datasets of the main evaluation.
func HighSkewDatasets() []Dataset {
	var out []Dataset
	for _, d := range Datasets() {
		if d.HighSkew {
			out = append(out, d)
		}
	}
	return out
}

// DatasetByName returns the named dataset description.
func DatasetByName(name string) (Dataset, error) {
	for _, d := range Datasets() {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("graph: unknown dataset %q", name)
}

// Generate materializes a synthetic dataset. The weighted flag adds random
// edge weights (needed by SSSP). The scaleDiv parameter divides the
// default vertex count to produce smaller variants for tests and
// benchmarks (scaleDiv=1 gives the full reproduction scale). A KindFile
// dataset has no generator: Generate panics, and Load reads it.
func (d Dataset) Generate(weighted bool, scaleDiv uint32) *CSR {
	if scaleDiv == 0 {
		scaleDiv = 1
	}
	n := d.Vertices / scaleDiv
	if n < 16 {
		n = 16
	}
	switch d.Kind {
	case KindRMAT:
		scale := d.Scale
		for scaleDiv > 1 && scale > 4 {
			scale--
			scaleDiv /= 2
		}
		return GenRMATDefault(scale, d.AvgDegree, d.Seed, weighted)
	case KindUniform:
		return GenUniform(n, d.AvgDegree, d.Seed, weighted)
	case KindFile:
		panic(fmt.Sprintf("graph: dataset %q is the file %s: read it with Load, Generate has nothing to generate", d.Name, d.Path))
	default:
		return GenZipf(n, d.AvgDegree, d.Alpha, d.Seed, weighted)
	}
}
