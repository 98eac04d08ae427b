package policy

import (
	"slices"
	"testing"
)

// nextUseBrute is the definition of the chain, quadratic.
func nextUseBrute(blocks []uint64) []int64 {
	out := make([]int64, len(blocks))
	for i := range blocks {
		out[i] = never
		for j := i + 1; j < len(blocks); j++ {
			if blocks[j] == blocks[i] {
				out[i] = int64(j)
				break
			}
		}
	}
	return out
}

// TestNextUseChain: the table-indexed chain, the map fallback and the
// quadratic definition agree on random traces — including one whose
// address span forces the fallback — on a single block and on the empty
// trace; and SimulateOPTChain over one shared chain equals SimulateOPT at
// the five geometries of the Table VII ladder.
func TestNextUseChain(t *testing.T) {
	rng := newTestRNG(11)
	random := func(n int, distinct, stride uint64) []uint64 {
		blocks := make([]uint64, n)
		for i := range blocks {
			blocks[i] = 0x400000 + (rng.next()%distinct)*stride
		}
		return blocks
	}
	sparse := random(600, 40, 1<<30)
	if span := slices.Max(sparse) - slices.Min(sparse); span < denseSpanFloor || span/denseSpanFactor < uint64(len(sparse)) {
		t.Fatalf("sparse trace (span %d over %d accesses) would not force the map fallback", span, len(sparse))
	}
	cases := map[string][]uint64{
		"empty":       nil,
		"single":      {42},
		"one-block":   {9, 9, 9, 9},
		"dense":       random(2000, 64, 1),
		"dense-wide":  random(500, 1500, 1),
		"gap-strided": random(1500, 300, 7),
		"sparse":      sparse,
	}
	for name, blocks := range cases {
		want := nextUseBrute(blocks)
		if got := NextUseChain(blocks); !slices.Equal(got, want) {
			t.Errorf("%s: NextUseChain differs from the definition", name)
		}
		if got := nextUseSparse(blocks); !slices.Equal(got, want) {
			t.Errorf("%s: map fallback differs from the definition", name)
		}
		if len(blocks) > 0 && name != "sparse" {
			lo := slices.Min(blocks)
			if got := nextUseDense(blocks, lo, slices.Max(blocks)-lo+1); !slices.Equal(got, want) {
				t.Errorf("%s: table-indexed chain differs from the definition", name)
			}
		}
		chain := NextUseChain(blocks)
		const ways = 16
		for _, sets := range []uint32{16, 64, 128, 256, 512} { // 16KB..512KB at 16 ways
			if got, want := SimulateOPTChain(blocks, chain, sets, ways), SimulateOPT(blocks, sets, ways); got != want {
				t.Errorf("%s sets=%d: SimulateOPTChain %+v, SimulateOPT %+v", name, sets, got, want)
			}
		}
	}
}
