package policy

import (
	"testing"

	"grasp/internal/cache"
	"grasp/internal/mem"
)

// Property tests over randomized traces, driven by a fixed seed table so
// failures name the seed that produced them and every run covers the same
// ground. Two classical replacement-theory invariants anchor the whole
// policy zoo:
//
//   - Belady optimality: OPT's miss count lower-bounds EVERY online policy
//     on every trace (OPT sees the future; they don't).
//   - LRU's inclusion (stack) property: an LRU cache of k ways holds a
//     superset of a k-1-way cache's content at every instant, so the hit
//     set at k-1 is contained in the hit set at k.

var propertySeeds = []uint64{1, 7, 42, 1337, 31337, 0xBEEF, 0xDEADBEEF, 0xFA1D0, 2026, 987654321}

// propertyTrace derives a trace of block numbers from a seed: a mix of a
// hot working set (frequent re-reference) and a cold streaming tail, the
// shape that separates replacement policies.
func propertyTrace(seed uint64) ([]uint64, []mem.Access) {
	r := newTestRNG(seed)
	length := 500 + int(r.next()%1500)
	blocks := make([]uint64, length)
	accs := make([]mem.Access, length)
	for i := range blocks {
		var b uint64
		if r.next()%2 == 0 {
			b = r.next() % 16 // hot set
		} else {
			b = 16 + r.next()%112 // cold tail
		}
		blocks[i] = b
		accs[i] = mem.Access{
			Addr:  b << cache.BlockBits,
			PC:    uint32(r.next() % 8),
			Write: r.next()%4 == 0,
		}
	}
	return blocks, accs
}

// lruHitVector replays the trace on an LRU cache with the given ways and
// records the per-access hit outcome.
func lruHitVector(accs []mem.Access, sets, ways uint32) []bool {
	c := cache.MustNew(cache.Config{SizeBytes: uint64(sets) * uint64(ways) * cache.BlockSize, Ways: ways},
		cache.NewLRU(sets, ways))
	hits := make([]bool, len(accs))
	for i, a := range accs {
		hits[i] = c.Access(a)
	}
	return hits
}

// TestLRUInclusionProperty asserts the stack property access by access:
// any hit in a k-1-way LRU cache must also hit in a k-way one (same set
// count, so the index mapping is identical).
func TestLRUInclusionProperty(t *testing.T) {
	const sets = 4
	for _, seed := range propertySeeds {
		_, accs := propertyTrace(seed)
		prev := lruHitVector(accs, sets, 1)
		for ways := uint32(2); ways <= 8; ways++ {
			cur := lruHitVector(accs, sets, ways)
			for i := range accs {
				if prev[i] && !cur[i] {
					t.Fatalf("seed %#x: access %d (block %#x) hits with %d ways but misses with %d; inclusion violated",
						seed, i, accs[i].Addr>>cache.BlockBits, ways-1, ways)
				}
			}
			prev = cur
		}
	}
}

// TestLRUInclusionImpliesMonotoneHits is the aggregate corollary worth
// asserting separately (it is what capacity planning relies on): LRU hit
// counts never decrease with associativity.
func TestLRUInclusionImpliesMonotoneHits(t *testing.T) {
	const sets = 8
	for _, seed := range propertySeeds {
		_, accs := propertyTrace(seed)
		var prevHits int
		for ways := uint32(1); ways <= 8; ways *= 2 {
			hits := 0
			for _, h := range lruHitVector(accs, sets, ways) {
				if h {
					hits++
				}
			}
			if hits < prevHits {
				t.Fatalf("seed %#x: hits fell from %d to %d when ways doubled to %d",
					seed, prevHits, hits, ways)
			}
			prevHits = hits
		}
	}
}
