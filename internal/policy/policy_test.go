package policy

import (
	"testing"
	"testing/quick"

	"grasp/internal/cache"
	"grasp/internal/mem"
)

// llcWith builds a 1-set cache of the given associativity around a policy,
// making eviction order directly observable.
func llcWith(t *testing.T, ways uint32, p cache.Policy) *cache.Cache {
	t.Helper()
	return cache.MustNew(cache.Config{SizeBytes: uint64(ways) * cache.BlockSize, Ways: ways}, p)
}

func blockAddr(i uint64) uint64 { return i << cache.BlockBits }

func TestSRRIPScanResistanceShape(t *testing.T) {
	// SRRIP inserts at long (6), hits promote to 0. A block that hits once
	// survives a subsequent burst of single-use blocks longer than under
	// insertion-at-MRU.
	c := llcWith(t, 4, NewSRRIP(1, 4))
	c.Access(mem.Access{Addr: blockAddr(100)}) // fill at RRPV 6
	c.Access(mem.Access{Addr: blockAddr(100)}) // hit -> RRPV 0
	// Three scan blocks fill the other ways at RRPV 6.
	for i := uint64(0); i < 3; i++ {
		c.Access(mem.Access{Addr: blockAddr(i)})
	}
	// A fourth scan block must evict a scan block, not the reused one.
	c.Access(mem.Access{Addr: blockAddr(50)})
	if !c.Contains(blockAddr(100)) {
		t.Fatal("reused block evicted before single-use scan blocks")
	}
}

func TestRRIPMetaVictimAging(t *testing.T) {
	m := NewRRIPMeta(1, 4)
	for w := uint32(0); w < 4; w++ {
		m.Set(0, w, 3)
	}
	m.Set(0, 2, 5)
	// Victim must age everyone until way 2 reaches 7 first.
	if v := m.Victim(0); v != 2 {
		t.Fatalf("victim = %d, want 2", v)
	}
	// After aging, others are at 5.
	if m.Get(0, 0) != 5 {
		t.Fatalf("aging wrong: got %d, want 5", m.Get(0, 0))
	}
}

func TestBRRIPMostlyDistant(t *testing.T) {
	p := NewBRRIP(16, 4)
	c := cache.MustNew(cache.Config{SizeBytes: 4096, Ways: 4}, p)
	distant := 0
	total := 200
	for i := 0; i < total; i++ {
		a := mem.Access{Addr: blockAddr(uint64(i * 16))}
		c.Access(a)
		block := cache.BlockAddr(a.Addr)
		set := uint32(block & uint64(15))
		// Find the way just filled and check its RRPV.
		for w := uint32(0); w < 4; w++ {
			if p.meta.Get(set, w) == RRPVMax {
				distant++
				break
			}
		}
	}
	if distant < total/2 {
		t.Fatalf("BRRIP inserted at distant only %d/%d times", distant, total)
	}
}

func TestDRRIPDuelingConverges(t *testing.T) {
	// Thrashing pattern over a working set larger than the cache: BRRIP
	// wins the duel (PSEL should move toward BRRIP) because SRRIP leader
	// sets keep missing.
	p := NewDRRIP(64, 4)
	c := cache.MustNew(cache.Config{SizeBytes: 64 * 4 * cache.BlockSize, Ways: 4}, p)
	for rep := 0; rep < 30; rep++ {
		for i := uint64(0); i < 64*8; i++ { // 2x capacity, cyclic
			c.Access(mem.Access{Addr: blockAddr(i)})
		}
	}
	if p.duel.psel >= 0 {
		t.Fatalf("PSEL = %d; expected negative (BRRIP preferred) under thrashing", p.duel.psel)
	}
	// BRRIP must retain part of the working set: hits > 0, better than pure
	// LRU which would get zero hits on this pattern.
	if c.Stats.Hits == 0 {
		t.Fatal("DRRIP earned no hits on a thrashing loop; thrash resistance broken")
	}
}

func TestLRUZeroHitsOnThrash(t *testing.T) {
	// Sanity for the previous test's premise: cyclic loop over 2x capacity
	// gives LRU zero hits.
	c := cache.MustNew(cache.Config{SizeBytes: 64 * 4 * cache.BlockSize, Ways: 4},
		cache.NewLRU(64, 4))
	for rep := 0; rep < 5; rep++ {
		for i := uint64(0); i < 64*8; i++ {
			c.Access(mem.Access{Addr: blockAddr(i)})
		}
	}
	if c.Stats.Hits != 0 {
		t.Fatalf("LRU got %d hits on a thrashing loop", c.Stats.Hits)
	}
}

func TestDIPBehavesUnderThrash(t *testing.T) {
	p := NewDIP(64, 4)
	c := cache.MustNew(cache.Config{SizeBytes: 64 * 4 * cache.BlockSize, Ways: 4}, p)
	for rep := 0; rep < 30; rep++ {
		for i := uint64(0); i < 64*8; i++ {
			c.Access(mem.Access{Addr: blockAddr(i)})
		}
	}
	if c.Stats.Hits == 0 {
		t.Fatal("DIP earned no hits under thrashing; BIP mode broken")
	}
}

func TestSHiPLearnsDeadRegion(t *testing.T) {
	p := NewSHiP(1, 4, false)
	c := llcWith(t, 4, p)
	// Region A (low addresses): streamed once, never reused. Region B:
	// reused heavily. After training, A's signature should be 0 and B's
	// high.
	regionA := uint64(0)
	regionB := uint64(1) << shipRegionBits
	for rep := 0; rep < 30; rep++ {
		for i := uint64(0); i < 8; i++ {
			c.Access(mem.Access{Addr: regionA + i<<cache.BlockBits})
		}
		for i := uint64(0); i < 2; i++ {
			c.Access(mem.Access{Addr: regionB + i<<cache.BlockBits})
			c.Access(mem.Access{Addr: regionB + i<<cache.BlockBits})
		}
	}
	sh := p.SHCTSnapshot()
	if sh[p.signature(mem.Access{Addr: regionA})] != 0 {
		t.Fatalf("dead region counter = %d, want 0", sh[p.signature(mem.Access{Addr: regionA})])
	}
	if sh[p.signature(mem.Access{Addr: regionB})] < 2 {
		t.Fatalf("live region counter = %d, want >= 2", sh[p.signature(mem.Access{Addr: regionB})])
	}
}

func TestHawkeyeTrainsAverseOnThrash(t *testing.T) {
	// A single PC cyclically streaming a working set far beyond capacity:
	// OPTgen must conclude the PC is cache-averse.
	p := NewHawkeye(8, 4)
	c := cache.MustNew(cache.Config{SizeBytes: 8 * 4 * cache.BlockSize, Ways: 4}, p)
	pc := mem.PC("stream")
	for rep := 0; rep < 50; rep++ {
		for i := uint64(0); i < 8*64; i++ {
			c.Access(mem.Access{Addr: blockAddr(i), PC: pc})
		}
	}
	snap := p.PredictorSnapshot()
	if ctr, ok := snap[pc]; !ok || ctr >= 4 {
		t.Fatalf("streaming PC counter = %d (ok=%v), want cache-averse (<4)", ctr, ok)
	}
}

func TestHawkeyeTrainsFriendlyOnReuse(t *testing.T) {
	// A PC whose blocks fit in the sampled set and are reused at short
	// intervals must train cache-friendly.
	p := NewHawkeye(8, 4)
	c := cache.MustNew(cache.Config{SizeBytes: 8 * 4 * cache.BlockSize, Ways: 4}, p)
	pc := mem.PC("hot")
	for rep := 0; rep < 200; rep++ {
		for i := uint64(0); i < 2; i++ {
			// Blocks mapping to set 0 (the sampled set): block = i*8.
			c.Access(mem.Access{Addr: blockAddr(i * 8), PC: pc})
		}
	}
	snap := p.PredictorSnapshot()
	if ctr := snap[pc]; ctr < 4 {
		t.Fatalf("reused PC counter = %d, want friendly (>=4)", ctr)
	}
	if c.Stats.Hits == 0 {
		t.Fatal("no hits for a trivially cacheable pattern")
	}
}

// forceHawkeyeCounter drives pc's predictor counter to c through the
// predictor's own training steps, whatever the table's representation.
func forceHawkeyeCounter(p *Hawkeye, pc uint32, c uint8) {
	for i := 0; i < hawkeyePredMax; i++ {
		p.train(pc, false)
	}
	for i := uint8(0); i < c; i++ {
		p.train(pc, true)
	}
}

func TestHawkeyeDemotesAverseHits(t *testing.T) {
	// The pathology from Sec. V-A: once a PC is predicted averse, even a
	// hit demotes the block to distant RRPV.
	p := NewHawkeye(1, 4)
	pc := mem.PC("averse")
	forceHawkeyeCounter(p, pc, 0) // force cache-averse
	c := llcWith(t, 4, p)
	c.Access(mem.Access{Addr: blockAddr(0), PC: pc})
	c.Access(mem.Access{Addr: blockAddr(0), PC: pc}) // hit
	if p.meta.Get(0, 0) != RRPVMax {
		t.Fatalf("averse hit left RRPV %d, want %d", p.meta.Get(0, 0), RRPVMax)
	}
}

func TestLeewayConservativeGrowShrink(t *testing.T) {
	// White-box check of the conservative ("grow fast, shrink slow")
	// table-update policy. Set 0 is a conservative leader.
	p := NewLeeway(1, 4)
	pc := mem.PC("x")
	evictWith := func(observed uint8) {
		p.pc[0] = pc
		p.maxHitPos[0] = observed
		p.OnEvict(0, 0)
	}
	evictWith(2) // first observation seeds the entry
	if ld := p.TableSnapshot()[pc]; ld != 2 {
		t.Fatalf("seed ld = %d, want 2", ld)
	}
	// Dead evictions below the hysteresis threshold keep ld at 2.
	for i := 0; i < ldHysteresis-1; i++ {
		evictWith(noHit) // noHit -> observed live distance 0
	}
	if ld := p.TableSnapshot()[pc]; ld != 2 {
		t.Fatalf("ld after %d dead evictions = %d, want 2 (shrink-slow)", ldHysteresis-1, ld)
	}
	// Crossing the hysteresis decays ld by one.
	evictWith(noHit)
	if ld := p.TableSnapshot()[pc]; ld != 1 {
		t.Fatalf("ld after hysteresis crossed = %d, want 1", ld)
	}
	// A deeper observation grows immediately.
	evictWith(3)
	if ld := p.TableSnapshot()[pc]; ld != 3 {
		t.Fatalf("ld after deep hit = %d, want 3 (grow-fast)", ld)
	}
}

func TestLeewayVictimPrefersDead(t *testing.T) {
	p := NewLeeway(1, 4)
	c := llcWith(t, 4, p)
	pcDead := mem.PC("dead")
	pcLive := mem.PC("live")
	// Pre-train: dead PC has LD 0.
	p.table[pcDead] = &ldEntry{ld: 0}
	p.table[pcLive] = &ldEntry{ld: 3}
	c.Access(mem.Access{Addr: blockAddr(0), PC: pcLive})
	c.Access(mem.Access{Addr: blockAddr(1), PC: pcDead})
	c.Access(mem.Access{Addr: blockAddr(2), PC: pcLive})
	c.Access(mem.Access{Addr: blockAddr(3), PC: pcLive})
	// Block 1 (dead, stack position 2 > LD 0) should be victimized even
	// though block 0 is the LRU.
	c.Access(mem.Access{Addr: blockAddr(4), PC: pcLive})
	if c.Contains(blockAddr(1)) {
		t.Fatal("predicted-dead block survived; LRU block likely evicted instead")
	}
	if !c.Contains(blockAddr(0)) {
		t.Fatal("live LRU block evicted despite a dead candidate")
	}
}

func TestXMemPinsHighReuse(t *testing.T) {
	p := NewXMem(1, 4, 50) // quota = 2 ways
	c := llcWith(t, 4, p)
	if p.Quota() != 2 {
		t.Fatalf("quota = %d, want 2", p.Quota())
	}
	// Two High-Reuse fills pin.
	c.Access(mem.Access{Addr: blockAddr(100), Hint: mem.HintHigh})
	c.Access(mem.Access{Addr: blockAddr(101), Hint: mem.HintHigh})
	if p.PinnedCount() != 2 {
		t.Fatalf("pinned = %d, want 2", p.PinnedCount())
	}
	// Third High-Reuse fill exceeds quota: not pinned.
	c.Access(mem.Access{Addr: blockAddr(102), Hint: mem.HintHigh})
	if p.PinnedCount() != 2 {
		t.Fatalf("pinned = %d after quota, want 2", p.PinnedCount())
	}
	// Thrash with Low-Reuse blocks: pinned blocks must survive.
	for i := uint64(0); i < 50; i++ {
		c.Access(mem.Access{Addr: blockAddr(i), Hint: mem.HintLow})
	}
	if !c.Contains(blockAddr(100)) || !c.Contains(blockAddr(101)) {
		t.Fatal("pinned block evicted")
	}
}

func TestXMemPin100Bypass(t *testing.T) {
	p := NewXMem(1, 4, 100)
	c := llcWith(t, 4, p)
	for i := uint64(0); i < 4; i++ {
		c.Access(mem.Access{Addr: blockAddr(100 + i), Hint: mem.HintHigh})
	}
	if p.PinnedCount() != 4 {
		t.Fatalf("pinned = %d, want 4", p.PinnedCount())
	}
	// Set is fully pinned: further misses bypass.
	c.Access(mem.Access{Addr: blockAddr(7), Hint: mem.HintLow})
	if c.Stats.Bypasses != 1 {
		t.Fatalf("bypasses = %d, want 1", c.Stats.Bypasses)
	}
	for i := uint64(0); i < 4; i++ {
		if !c.Contains(blockAddr(100 + i)) {
			t.Fatal("pinned block lost")
		}
	}
}

func TestXMemZeroQuotaActsAsRRIP(t *testing.T) {
	p := NewXMem(1, 4, 0)
	c := llcWith(t, 4, p)
	c.Access(mem.Access{Addr: blockAddr(1), Hint: mem.HintHigh})
	if p.PinnedCount() != 0 {
		t.Fatal("PIN-0 pinned a block")
	}
	if !c.Contains(blockAddr(1)) {
		t.Fatal("block not cached")
	}
}

func TestOPTSimpleSequence(t *testing.T) {
	// Classic example: with 2 ways and trace a b c a b, OPT evicts c (or
	// bypasses it) and hits both re-references.
	trace := []uint64{1, 2, 3, 1, 2}
	res := SimulateOPT(trace, 1, 2)
	if res.Hits != 2 || res.Misses != 3 {
		t.Fatalf("OPT: %d hits %d misses, want 2/3", res.Hits, res.Misses)
	}
}

func TestOPTNeverWorseThanLRU(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		r := newTestRNG(seed)
		length := int(n%2000) + 50
		trace := make([]uint64, length)
		accesses := make([]mem.Access, length)
		for i := range trace {
			b := r.next() % 48
			trace[i] = b
			accesses[i] = mem.Access{Addr: b << cache.BlockBits}
		}
		const sets, ways = 4, 4
		c := cache.MustNew(cache.Config{SizeBytes: sets * ways * cache.BlockSize, Ways: ways},
			cache.NewLRU(sets, ways))
		for _, a := range accesses {
			c.Access(a)
		}
		opt := SimulateOPT(trace, sets, ways)
		return opt.Misses <= c.Stats.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOPTNeverWorseThanRRIP(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		r := newTestRNG(seed)
		length := int(n%2000) + 50
		trace := make([]uint64, length)
		for i := range trace {
			trace[i] = r.next() % 64
		}
		const sets, ways = 4, 4
		c := cache.MustNew(cache.Config{SizeBytes: sets * ways * cache.BlockSize, Ways: ways},
			NewDRRIP(sets, ways))
		for _, b := range trace {
			c.Access(mem.Access{Addr: b << cache.BlockBits})
		}
		opt := SimulateOPT(trace, sets, ways)
		return opt.Misses <= c.Stats.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOPTMatchesBruteForceTinyCase(t *testing.T) {
	// Exhaustive check on a tiny trace: OPT's miss count must equal the
	// minimum achievable by any eviction sequence (found by brute force
	// over all eviction choices, with bypass allowed).
	trace := []uint64{1, 2, 3, 1, 4, 2, 1, 3, 2, 4, 1}
	const ways = 2
	var brute func(cached []uint64, i int) uint64
	brute = func(cached []uint64, i int) uint64 {
		if i == len(trace) {
			return 0
		}
		b := trace[i]
		for _, x := range cached {
			if x == b {
				return brute(cached, i+1)
			}
		}
		// Miss: try all placements (including bypass).
		best := uint64(1) + brute(cached, i+1) // bypass
		if len(cached) < ways {
			next := append(append([]uint64{}, cached...), b)
			if v := 1 + brute(next, i+1); v < best {
				best = v
			}
		} else {
			for k := range cached {
				next := append([]uint64{}, cached...)
				next[k] = b
				if v := 1 + brute(next, i+1); v < best {
					best = v
				}
			}
		}
		return best
	}
	want := brute(nil, 0)
	got := SimulateOPT(trace, 1, ways)
	if got.Misses != want {
		t.Fatalf("OPT misses = %d, brute force optimum = %d", got.Misses, want)
	}
}

func TestOPTBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two sets")
		}
	}()
	SimulateOPT([]uint64{1}, 3, 2)
}

// Tiny deterministic RNG for tests.
type testRNG struct{ s uint64 }

func newTestRNG(seed uint64) *testRNG { return &testRNG{s: seed*2654435761 + 1} }
func (r *testRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}
