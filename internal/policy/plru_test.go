package policy

import (
	"testing"
	"testing/quick"

	"grasp/internal/cache"
	"grasp/internal/mem"
)

func TestPLRURequiresPow2Ways(t *testing.T) {
	// Non-powers of two, and powers of two whose tree does not fit one
	// uint64 per set, are refused.
	for _, ways := range []uint32{0, 3, 12, 128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %d ways", ways)
				}
			}()
			NewPLRU(4, ways)
		}()
	}
	NewPLRU(4, 64) // the largest tree that fits
}

func TestPLRUVictimNeverMostRecent(t *testing.T) {
	// The just-touched way must never be the next victim.
	p := NewPLRU(1, 8)
	for w := uint32(0); w < 8; w++ {
		p.OnFill(0, w, mem.Access{})
		if v := p.VictimPath(0); v == w {
			t.Fatalf("victim %d equals most recently filled way", v)
		}
	}
	for rep := 0; rep < 100; rep++ {
		w := uint32(rep*5) % 8
		p.OnHit(0, w, mem.Access{})
		if v := p.VictimPath(0); v == w {
			t.Fatalf("victim %d equals most recently hit way", v)
		}
	}
}

func TestPLRUCyclesThroughAllWays(t *testing.T) {
	// Repeatedly evicting and refilling must rotate through every way
	// rather than starving any of them.
	p := NewPLRU(1, 4)
	seen := make(map[uint32]bool)
	for i := 0; i < 16; i++ {
		v, bypass := p.Victim(0, mem.Access{})
		if bypass {
			t.Fatal("PLRU must not bypass")
		}
		seen[v] = true
		p.OnFill(0, v, mem.Access{})
	}
	if len(seen) != 4 {
		t.Fatalf("victims covered %d/4 ways", len(seen))
	}
}

func TestPLRUHitRateTracksLRUOnLoops(t *testing.T) {
	// PLRU approximates LRU: on a looping working set that fits, both get
	// 100% hits after warm-up; on 2x capacity both thrash similarly.
	fit := cache.MustNew(cache.Config{SizeBytes: 8 * cache.BlockSize, Ways: 8}, NewPLRU(1, 8))
	for rep := 0; rep < 10; rep++ {
		for i := uint64(0); i < 8; i++ {
			fit.Access(mem.Access{Addr: i << cache.BlockBits})
		}
	}
	if fit.Stats.Hits != 8*9 {
		t.Fatalf("PLRU hits on fitting loop = %d, want 72", fit.Stats.Hits)
	}
}

func TestSHiPPCLearnsPerPC(t *testing.T) {
	p := NewSHiP(1, 4, true)
	c := cache.MustNew(cache.Config{SizeBytes: 4 * cache.BlockSize, Ways: 4}, p)
	pcDead := mem.PC("stream")
	pcLive := mem.PC("reuse")
	for rep := 0; rep < 30; rep++ {
		for i := uint64(0); i < 8; i++ {
			c.Access(mem.Access{Addr: (100 + i + uint64(rep)*8) << cache.BlockBits, PC: pcDead})
		}
		c.Access(mem.Access{Addr: 1 << cache.BlockBits, PC: pcLive})
		c.Access(mem.Access{Addr: 1 << cache.BlockBits, PC: pcLive})
	}
	sh := p.SHCTSnapshot()
	if sh[uint64(pcDead)] != 0 {
		t.Fatalf("streaming PC counter = %d, want 0", sh[uint64(pcDead)])
	}
	if sh[uint64(pcLive)] < 2 {
		t.Fatalf("reusing PC counter = %d, want >= 2", sh[uint64(pcLive)])
	}
}

func TestSHiPPCCannotSeparateSharedPC(t *testing.T) {
	// The paper's core argument (Sec. II-F): hot and cold blocks accessed
	// by the SAME PC get the same prediction. Verify the table has exactly
	// one entry after a mixed hot/cold stream through one PC.
	p := NewSHiP(4, 4, true)
	c := cache.MustNew(cache.Config{SizeBytes: 16 * cache.BlockSize, Ways: 4}, p)
	pc := mem.PC("property.load")
	r := newTestRNG(9)
	for i := 0; i < 5000; i++ {
		var block uint64
		if r.next()%2 == 0 {
			block = r.next() % 4 // hot
		} else {
			block = 100 + r.next()%10000 // cold
		}
		c.Access(mem.Access{Addr: block << cache.BlockBits, PC: pc})
	}
	if n := len(p.SHCTSnapshot()); n != 1 {
		t.Fatalf("SHCT has %d entries for a single-PC stream, want 1", n)
	}
}

func TestPLRUFuzz(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		r := newTestRNG(seed)
		c := cache.MustNew(cache.Config{SizeBytes: 8 * 8 * cache.BlockSize, Ways: 8}, NewPLRU(8, 8))
		for i := 0; i < int(n%2000)+10; i++ {
			c.Access(mem.Access{Addr: (r.next() % 512) << cache.BlockBits})
		}
		return c.Stats.Accesses() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
