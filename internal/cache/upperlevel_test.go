package cache

import (
	"fmt"
	"testing"

	"grasp/internal/mem"
)

// checkUpperLevels drives UpperLevels.Filter and the implementation it
// replaced — two generic caches under LRU, l1.Access(a) || l2.Access(a) —
// with one stream. After every access both levels' Stats must agree, which
// pins each level's hit/miss answer access by access (Hits or Misses moves)
// and the recency order behind it (a wrong order surfaces as a wrong victim,
// hence a wrong answer, a few accesses later), and so must Filter's own
// answer: the two LLC-bound subsequences are then the same stream, element
// for element.
func checkUpperLevels(t testing.TB, cfg HierarchyConfig, stream []mem.Access) {
	t.Helper()
	u, err := NewUpperLevels(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l1 := MustNew(cfg.L1, NewLRU(cfg.L1.Sets(), cfg.L1.Ways))
	l2 := MustNew(cfg.L2, NewLRU(cfg.L2.Sets(), cfg.L2.Ways))
	for i, a := range stream {
		absorbed, want := u.Filter(a), l1.Access(a) || l2.Access(a)
		if absorbed != want || u.L1.Stats != l1.Stats || u.L2.Stats != l2.Stats {
			t.Fatalf("access %d (%+v): absorbed %v, want %v\nL1 %+v\nwant %+v\nL2 %+v\nwant %+v",
				i, a, absorbed, want, u.L1.Stats, l1.Stats, u.L2.Stats, l2.Stats)
		}
	}
}

func geometry(sets, ways uint32) Config {
	return Config{SizeBytes: uint64(sets) * uint64(ways) * BlockSize, Ways: ways}
}

// flagged builds an access to a block with Write and Property drawn from
// the generator and a byte offset the levels must ignore.
func flagged(block uint64, r *testRNG) mem.Access {
	v := r.next()
	return mem.Access{Addr: block<<BlockBits | v>>8%BlockSize, Write: v&3 == 0, Property: v&4 != 0}
}

// upperLevelStreams are the access patterns of the oracle table, each a
// function of the geometry it is aimed at: block k*sets+s is the k-th
// distinct block of set s.
var upperLevelStreams = []struct {
	name string
	gen  func(sets, ways uint64, r *testRNG) []mem.Access
}{
	{"uniform", func(sets, ways uint64, r *testRNG) (s []mem.Access) {
		for i := 0; i < 4000; i++ {
			s = append(s, flagged(r.next()%(4*sets*ways), r))
		}
		return s
	}},
	{"strided", func(sets, ways uint64, r *testRNG) (s []mem.Access) {
		for _, stride := range []uint64{1, 3, sets, sets + 1} {
			for i := uint64(0); i < 1000; i++ {
				s = append(s, flagged(i*stride%(2*sets*ways+1), r))
			}
		}
		return s
	}},
	// A loop of ways+1 blocks per set: under LRU every access misses.
	{"thrash", func(sets, ways uint64, r *testRNG) (s []mem.Access) {
		for round := 0; round < 4; round++ {
			for set := uint64(0); set < sets; set++ {
				for k := uint64(0); k <= ways; k++ {
					s = append(s, flagged(k*sets+set, r))
				}
			}
		}
		return s
	}},
	// A hot block re-read between every other access: the front-of-row hit.
	{"hot-front", func(sets, ways uint64, r *testRNG) (s []mem.Access) {
		hot := r.next() % sets
		for i := 0; i < 2000; i++ {
			s = append(s, flagged(hot, r), flagged(hot, r), flagged(r.next()%(2*sets*ways), r))
		}
		return s
	}},
	// Reads then writes to one block: it is dirtied by a hit at the row's
	// tail, must stay dirty through another move to the front, and is
	// written back exactly once when ways newer blocks push it out.
	{"dirty-move", func(sets, ways uint64, r *testRNG) (s []mem.Access) {
		rd := func(block uint64) mem.Access { return mem.Access{Addr: block << BlockBits, Property: r.next()&1 == 0} }
		for round := uint64(0); round < 8; round++ {
			set := round % sets
			blk := func(k uint64) uint64 { return (round*4*ways+k)*sets + set }
			s = append(s, rd(blk(0)))
			for k := uint64(1); k < ways; k++ {
				s = append(s, rd(blk(k)))
			}
			w := rd(blk(0))
			w.Write = true
			s = append(s, w, rd(blk(1)), rd(blk(0)))
			for k := uint64(0); k < ways; k++ {
				s = append(s, rd(blk(ways+k)))
			}
		}
		return s
	}},
	// Fewer distinct blocks than one set has ways: the partially filled row.
	{"short", func(sets, ways uint64, r *testRNG) (s []mem.Access) {
		for round := 0; round < 3; round++ {
			for k := uint64(0); k+1 < ways || k == 0; k++ {
				s = append(s, flagged(k*sets, r))
			}
		}
		return s
	}},
}

// upperLevelGeometries are sets x ways: direct-mapped single block, the
// bench-scale clamp (2 x 8), the default L1's shape, many sets, wide rows.
var upperLevelGeometries = [][2]uint32{{1, 1}, {2, 8}, {8, 8}, {64, 8}, {2, 16}}

// TestUpperLevelMatchesLRUCache is the oracle table for one level: every
// geometry takes every stream in the L1 slot, where it sees the stream
// exactly as generated (the L2 behind it never feeds back).
func TestUpperLevelMatchesLRUCache(t *testing.T) {
	for _, g := range upperLevelGeometries {
		for _, st := range upperLevelStreams {
			t.Run(fmt.Sprintf("%dx%d/%s", g[0], g[1], st.name), func(t *testing.T) {
				cfg := HierarchyConfig{L1: geometry(g[0], g[1]), L2: geometry(2, 8)}
				checkUpperLevels(t, cfg, st.gen(uint64(g[0]), uint64(g[1]), newTestRNG(uint64(g[0]*g[1]))))
			})
		}
	}
}

// TestUpperLevelsFilterMatchesCaches is the hierarchy-level twin: the
// geometries take the L2 slot too, behind an L1 that is smaller, equal
// (what exp.ScaledConfig's clamp produces at scales 64 and 16) and larger,
// with the streams aimed at the L1 so the L2 sees a real miss stream.
func TestUpperLevelsFilterMatchesCaches(t *testing.T) {
	def := DefaultHierarchyConfig()
	pairs := [][2]Config{{def.L1, def.L2}}
	for _, g := range upperLevelGeometries {
		pairs = append(pairs,
			[2]Config{geometry(1, 2), geometry(g[0], g[1])},
			[2]Config{geometry(g[0], g[1]), geometry(g[0], g[1])},
			[2]Config{geometry(4, 16), geometry(g[0], g[1])})
	}
	for _, p := range pairs {
		for _, st := range upperLevelStreams {
			name := fmt.Sprintf("%dx%d+%dx%d/%s", p[0].Sets(), p[0].Ways, p[1].Sets(), p[1].Ways, st.name)
			t.Run(name, func(t *testing.T) {
				stream := st.gen(uint64(p[0].Sets()), uint64(p[0].Ways), newTestRNG(uint64(p[1].SizeBytes)))
				checkUpperLevels(t, HierarchyConfig{L1: p[0], L2: p[1]}, stream)
			})
		}
	}
}

// FuzzUpperLevel: bytes -> both geometries + an access stream, same oracle.
// Byte 0 and 1 shape the L1 and the L2 (3 bits log2 sets up to 64, 4 bits
// ways-1); every following pair is one access over a 1024-block space, the
// capacity of the largest geometry, so small levels thrash and large ones
// fill partially.
func FuzzUpperLevel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x39, 1, 0, 1, 1, 2, 0, 1, 2}) // 1x1 in front of 2x8
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		shape := func(b byte) Config {
			log := uint32(b & 7)
			if log > 6 {
				log = 6
			}
			return geometry(1<<log, uint32(b>>3&15)+1)
		}
		cfg := HierarchyConfig{L1: shape(data[0]), L2: shape(data[1])}
		data = data[2:]
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		stream := make([]mem.Access, len(data)/2)
		for i := range stream {
			lo, hi := uint64(data[2*i]), uint64(data[2*i+1])
			stream[i] = mem.Access{
				Addr:     (hi>>2&3<<8|lo)<<BlockBits | hi>>4<<2,
				Write:    hi&1 != 0,
				Property: hi&2 != 0,
			}
		}
		checkUpperLevels(t, cfg, stream)
	})
}
