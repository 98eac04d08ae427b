package policy

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestLeewayPromoteWords checks promote's word-at-a-time rank update
// against the per-byte rule it replaces (every rank below the promoted
// way's old rank moves down one, the way becomes MRU) on random hit/fill
// sequences, at associativities on both sides of the word path's limits:
// not a multiple of 8, multiples of 8, and 128 and up.
func TestLeewayPromoteWords(t *testing.T) {
	for _, ways := range []uint32{4, 8, 12, 16, 24, 64, 120, 128, 136} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			const sets = 3
			p := NewLeeway(sets, ways)
			rng := rand.New(rand.NewSource(int64(ways)))
			for op := 0; op < 4000; op++ {
				set, way := uint32(rng.Intn(sets)), uint32(rng.Intn(int(ways)))
				base := set * ways
				old := p.touchedCnt[set]
				if p.touched[base+way] {
					old = p.rank[base+way]
				}
				want := slices.Clone(p.rank[base : base+ways])
				for w := range want {
					if want[w] < old {
						want[w]++
					}
				}
				want[way] = 0
				p.promote(set, way)
				if got := p.rank[base : base+ways]; !slices.Equal(got, want) {
					t.Fatalf("op %d: promote(%d, %d) from rank %d: got %v, want %v", op, set, way, old, got, want)
				}
			}
		})
	}
}
