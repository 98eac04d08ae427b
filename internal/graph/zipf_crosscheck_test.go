package graph

import (
	"fmt"
	"math"
	"testing"
)

// This file keeps the per-draw expression ZipfSampler evaluated on every
// draw before it tabulated its crossings, and GenZipf's edge list as it
// was drawn through it, as the reference the table is cross-checked
// against: every k at and around every crossing of every (n, alpha) in
// use, every generated Zipf dataset's edges, and fuzzed (n, alpha, u).

// zipfReference returns the old per-draw inverse CDF over [0, n), h
// computed once as the old sampler's constructor did.
func zipfReference(n uint32, alpha float64) func(u float64) uint32 {
	var h, oneMinus float64
	if alpha == 1 {
		h = math.Log(float64(n) + 1)
	} else {
		oneMinus = 1 - alpha
		h = (math.Pow(float64(n)+1, oneMinus) - 1) / oneMinus
	}
	return func(u float64) uint32 {
		var x float64
		if alpha == 1 {
			x = math.Exp(u*h) - 1
		} else {
			x = math.Pow(u*h*oneMinus+1, 1/oneMinus) - 1
		}
		k := uint32(x)
		if k >= n {
			k = n - 1
		}
		return k
	}
}

// zipfEdgesReference is zipfEdges drawing every endpoint from
// zipfReference: GenZipf's edge list as it was.
func zipfEdgesReference(n uint32, avgDegree, alpha float64, seed uint64, weighted bool) []Edge {
	r := NewRNG(seed)
	m := uint64(float64(n) * avgDegree)
	draw := zipfReference(n, alpha)
	perm := r.Perm(int(n))
	edges := make([]Edge, 0, m)
	for i := uint64(0); i < m; i++ {
		e := Edge{Src: perm[draw(r.Float64())], Dst: perm[draw(r.Float64())]}
		if weighted {
			e.Weight = int32(1 + r.Uint32n(maxWeight))
		}
		edges = append(edges, e)
	}
	return edges
}

// zipfParams is one (n, alpha) a sampler is built for.
type zipfParams struct {
	n     uint32
	alpha float64
}

// zipfInUse lists every (n, alpha) a sampler is built for: each Zipf
// dataset at divisors 1, 4, 16 and 64, plus two small tables off that grid
// ({500, 0.9}, {2000, 1.0}) so the checks also cover a few-hundred-vertex
// n and an alpha below 1.
func zipfInUse() []zipfParams {
	out := []zipfParams{{500, 0.9}, {2000, 1.0}}
	for _, d := range Datasets() {
		if d.Kind != KindZipf {
			continue
		}
		for _, div := range []uint32{1, 4, 16, 64} {
			out = append(out, zipfParams{d.Vertices / div, d.Alpha})
		}
	}
	return out
}

// gridU is the u of grid index i.
func gridU(i uint64) float64 { return float64(i) / zipfGrid }

// zipfBound is guardBand's error bound in grid steps, without its margin.
func zipfBound(z *ZipfSampler) uint64 { return z.guard / zipfMargin }

// TestZipfCrossingsMatchReference checks, for every (n, alpha) in use and
// every tabulated crossing k:
//   - the reference's own step from k-1 to k lies within guardBand's
//     error bound of the crossing, so the band's zipfMargin-fold width
//     is headroom (the worst distance seen is logged);
//   - every draw at the crossing ±64 grid steps is evaluated, not looked
//     up, and draws the reference's k (compared step by step where
//     n <= 2048, at the window's ends above);
//   - the draws one step outside the band on either side come from the
//     table and draw the reference's k.
func TestZipfCrossingsMatchReference(t *testing.T) {
	for _, c := range zipfInUse() {
		t.Run(fmt.Sprintf("n=%d/alpha=%v", c.n, c.alpha), func(t *testing.T) {
			z := NewZipfSampler(c.n, c.alpha)
			if z.cross == nil {
				t.Fatal("no table for an (n, alpha) in use")
			}
			// The index's cost: between n and 2n buckets spanning the
			// grid, so a lookup scans past under one crossing on average.
			if b := uint64(len(z.bucket)); b < uint64(c.n) || b > 2*uint64(c.n) || b<<z.shift != zipfGrid {
				t.Fatalf("%d buckets of 2^%d grid steps: want between n and 2n, spanning the 2^53-step grid", b, z.shift)
			}
			ref := zipfReference(c.n, c.alpha)
			bound := zipfBound(z)
			check := func(k uint32, i uint64, fromTable bool) {
				t.Helper()
				if _, ok := z.lookup(i); ok != fromTable {
					t.Fatalf("k=%d: grid index %d (crossing %+d) from table = %v, want %v", k, i, int64(i-z.cross[k]), ok, fromTable)
				}
				if got, want := z.at(gridU(i)), ref(gridU(i)); got != want {
					t.Fatalf("k=%d: grid index %d (crossing %+d) draws %d, reference %d", k, i, int64(i-z.cross[k]), got, want)
				}
			}
			var worst uint64
			for k := uint32(1); k < c.n; k++ {
				x := z.cross[k]
				lo, hi := x-bound-1, x+bound
				if ref(gridU(lo)) >= k || ref(gridU(hi)) < k {
					t.Fatalf("k=%d: the reference steps to k more than %d grid steps from the crossing %d", k, bound, x)
				}
				for hi-lo > 1 { // bisect for the step
					mid := lo + (hi-lo)/2
					if ref(gridU(mid)) >= k {
						hi = mid
					} else {
						lo = mid
					}
				}
				worst = max(worst, max(hi, x)-min(hi, x))
				for off := uint64(0); off <= 128; off++ {
					if _, ok := z.lookup(x - 64 + off); ok {
						t.Fatalf("k=%d: crossing %+d looked up inside the band", k, int64(off)-64)
					}
					if c.n <= 2048 || off == 0 || off == 128 {
						check(k, x-64+off, false)
					}
				}
				if x-z.cross[k-1] > 2*z.guard {
					check(k, x-z.guard-1, true)
				}
				if z.cross[k+1]-x > 2*z.guard {
					check(k, x+z.guard, true)
				}
			}
			t.Logf("guard %d steps, bound %d, worst reference step %d steps off its crossing, fallback share %.2g",
				z.guard, bound, worst, 2*float64(c.n-1)*float64(z.guard)/zipfGrid)
		})
	}
}

// TestGenZipfMatchesReference requires every Zipf dataset's edge list,
// weighted and unweighted, to be the reference generator's, edge for edge
// in order, at divisors 64, 16, 4 and 1 (the last two unless -short).
// GenZipf hands that list to FromEdges, so its CSR arrays are the
// reference's too.
func TestGenZipfMatchesReference(t *testing.T) {
	for _, d := range Datasets() {
		if d.Kind != KindZipf {
			continue
		}
		for _, div := range []uint32{64, 16, 4, 1} {
			for _, weighted := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s@%d/weighted=%v", d.Name, div, weighted), func(t *testing.T) {
					if testing.Short() && div < 16 {
						t.Skip("divisors 4 and 1 draw millions of endpoints through math.Pow")
					}
					t.Parallel()
					n := d.Vertices / div
					got := zipfEdges(n, d.AvgDegree, d.Alpha, d.Seed, weighted)
					want := zipfEdgesReference(n, d.AvgDegree, d.Alpha, d.Seed, weighted)
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("edge %d of %d differs from the reference generator's", i, len(want))
					}
				})
			}
		}
	}
}

// TestZipfSamplerWithoutTable covers the parameters guardBand refuses a
// table for: every draw is then the reference's.
func TestZipfSamplerWithoutTable(t *testing.T) {
	for _, c := range []zipfParams{{0, 1.1}, {1, 0.5}, {8192, 1 - 1e-9}, {1000, 2.5}, {1000, -0.5}, {1000, math.NaN()}} {
		z := NewZipfSampler(c.n, c.alpha)
		if z.cross != nil {
			t.Fatalf("n=%d alpha=%v: table built", c.n, c.alpha)
		}
		ref := zipfReference(c.n, c.alpha)
		r := NewRNG(uint64(c.n))
		for i := 0; i < 1000; i++ {
			u := r.Float64()
			if got, want := z.at(u), ref(u); got != want {
				t.Fatalf("n=%d alpha=%v u=%v: draws %d, reference %d", c.n, c.alpha, u, got, want)
			}
		}
	}
}

// FuzzZipfSampler requires the sampler to draw the reference's k for
// arbitrary (n < 2^14, alpha, 53-bit grid index), at the index itself and,
// when there is a table, at a tabulated crossing the index picks, offset
// by up to ±64 steps, and at that crossing's band edges.
func FuzzZipfSampler(f *testing.F) {
	f.Add(uint32(2048), 0.95, uint64(0))
	f.Add(uint32(2048), 1.05, uint64(1)<<52)
	f.Add(uint32(8192), 1.1, uint64(12345678901234567))
	f.Add(uint32(4096), 0.3, ^uint64(0))
	f.Add(uint32(2000), 1.0, uint64(99))
	f.Add(uint32(16), 2.0, uint64(7)<<40)
	f.Add(uint32(1), 0.5, uint64(3))
	f.Fuzz(func(t *testing.T, n uint32, alpha float64, idx uint64) {
		n %= 1 << 14
		z := NewZipfSampler(n, alpha)
		ref := zipfReference(n, alpha)
		check := func(i uint64) {
			if i >= zipfGrid {
				return
			}
			if got, want := z.at(gridU(i)), ref(gridU(i)); got != want {
				t.Fatalf("n=%d alpha=%v grid index %d: draws %d, reference %d", n, alpha, i, got, want)
			}
		}
		check(idx >> 11)
		if z.cross == nil {
			return
		}
		k := 1 + uint32(idx%uint64(n-1))
		x := z.cross[k]
		off := (idx >> 56) % 129 // 0..128: the crossing -64..+64
		check(x + off - 64)
		check(x - z.guard - 1)
		check(x - z.guard)
		check(x + z.guard - 1)
		check(x + z.guard)
	})
}

// BenchmarkGenerate is synthetic generation's rung: Dataset.Generate of
// the Zipf, R-MAT and uniform kinds at divisors 4 and 16, unweighted and
// weighted, in ns per generated edge (draws plus the CSR build):
//
//	go test ./internal/graph -run '^$' -bench Generate -benchtime 5x
func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{"lj", "tw", "fr", "kr", "uni"} {
		for _, div := range []uint32{4, 16} {
			for _, weighted := range []bool{false, true} {
				b.Run(fmt.Sprintf("%s/scale%d/weighted=%v", name, div, weighted), func(b *testing.B) {
					d, err := DatasetByName(name)
					if err != nil {
						b.Fatal(err)
					}
					for i := 0; i < b.N; i++ {
						generateSink = d.Generate(weighted, div)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(generateSink.NumEdges()), "ns/edge")
				})
			}
		}
	}
}

var generateSink *CSR
