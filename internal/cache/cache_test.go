package cache

import (
	"testing"
	"testing/quick"

	"grasp/internal/mem"
)

func smallCache(t *testing.T, sizeBytes uint64, ways uint32) *Cache {
	t.Helper()
	cfg := Config{SizeBytes: sizeBytes, Ways: ways}
	c, err := New(cfg, NewLRU(cfg.Sets(), ways))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheGeometry(t *testing.T) {
	c := smallCache(t, 8192, 4) // 8KB, 4-way, 64B blocks -> 32 sets
	if c.NumSets() != 32 || c.NumWays() != 4 {
		t.Fatalf("geometry %d sets %d ways", c.NumSets(), c.NumWays())
	}
	if c.SizeBytes() != 8192 {
		t.Fatalf("size %d", c.SizeBytes())
	}
}

func TestCacheBadGeometry(t *testing.T) {
	if _, err := New(Config{SizeBytes: 1000, Ways: 4}, nil); err == nil {
		t.Fatal("expected error for non-power-of-two sets")
	}
	if _, err := New(Config{SizeBytes: 0, Ways: 4}, nil); err == nil {
		t.Fatal("expected error for zero size")
	}
}

func TestHitAfterFill(t *testing.T) {
	c := smallCache(t, 4096, 4)
	a := mem.Access{Addr: 0x1000}
	if c.Access(a) {
		t.Fatal("first access must miss")
	}
	if !c.Access(a) {
		t.Fatal("second access must hit")
	}
	// Same block, different byte.
	if !c.Access(mem.Access{Addr: 0x103F}) {
		t.Fatal("same-block access must hit")
	}
	if c.Access(mem.Access{Addr: 0x1040}) {
		t.Fatal("next block must miss")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 2 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	// 4 ways, 1 set: size = 4*64 = 256 bytes... sets must be power of two;
	// 256B/4way = 1 set. Fill 4 blocks mapping to set 0, then a 5th evicts
	// the least recently used.
	c := smallCache(t, 256, 4)
	blocks := []uint64{0x0, 0x1000, 0x2000, 0x3000}
	for _, b := range blocks {
		c.Access(mem.Access{Addr: b})
	}
	// Touch block 0 to make it MRU; block at 0x1000 is now LRU.
	c.Access(mem.Access{Addr: 0x0})
	c.Access(mem.Access{Addr: 0x4000}) // evicts 0x1000
	if !c.Contains(0x0) {
		t.Fatal("MRU block evicted")
	}
	if c.Contains(0x1000) {
		t.Fatal("LRU block not evicted")
	}
	for _, b := range []uint64{0x2000, 0x3000, 0x4000} {
		if !c.Contains(b) {
			t.Fatalf("block %#x missing", b)
		}
	}
}

func TestLRUStackProperty(t *testing.T) {
	// Inclusion property: a hit under a k-way LRU implies a hit under any
	// larger associativity with the same set count. Verified against a
	// reference stack model on a random trace.
	f := func(seed uint64, steps uint16) bool {
		r := newTestRNG(seed)
		c := MustNew(Config{SizeBytes: 1024, Ways: 16}, NewLRU(1, 16)) // 1 set, 16 ways
		var stack []uint64                                             // reference: front = MRU
		for i := 0; i < int(steps%500)+10; i++ {
			block := uint64(r.next()%24) << BlockBits
			hit := c.Access(mem.Access{Addr: block})
			// Reference model.
			pos := -1
			for j, b := range stack {
				if b == block {
					pos = j
					break
				}
			}
			refHit := pos >= 0
			if refHit {
				stack = append(stack[:pos], stack[pos+1:]...)
			} else if len(stack) == 16 {
				stack = stack[:15]
			}
			stack = append([]uint64{block}, stack...)
			if hit != refHit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFlush(t *testing.T) {
	c := smallCache(t, 4096, 4)
	c.Access(mem.Access{Addr: 0x40})
	c.Flush()
	if c.Stats.Accesses() != 0 {
		t.Fatal("stats not cleared")
	}
	if c.Contains(0x40) {
		t.Fatal("block survived flush")
	}
}

func TestPropertyBreakdownStats(t *testing.T) {
	c := smallCache(t, 4096, 4)
	c.Access(mem.Access{Addr: 0x40, Property: true})  // miss
	c.Access(mem.Access{Addr: 0x40, Property: true})  // hit
	c.Access(mem.Access{Addr: 0x80, Property: false}) // miss
	if c.Stats.PropMisses != 1 || c.Stats.PropHits != 1 {
		t.Fatalf("property stats %+v", c.Stats)
	}
	if c.Stats.MissRatio() < 0.6 || c.Stats.MissRatio() > 0.7 {
		t.Fatalf("miss ratio %f, want 2/3", c.Stats.MissRatio())
	}
}

type fixedClassifier struct{ h mem.Hint }

func (f fixedClassifier) Classify(uint64) mem.Hint { return f.h }

// hintSpy records the hint seen by the policy.
type hintSpy struct {
	LRU
	last mem.Hint
}

func newHintSpy(sets, ways uint32) *hintSpy {
	return &hintSpy{LRU: *NewLRU(sets, ways)}
}
func (h *hintSpy) OnFill(set, way uint32, a mem.Access) {
	h.last = a.Hint
	h.LRU.OnFill(set, way, a)
}

func TestClassifierAttachesHints(t *testing.T) {
	spy := newHintSpy(16, 4)
	c := MustNew(Config{SizeBytes: 4096, Ways: 4}, spy)
	c.SetClassifier(fixedClassifier{h: mem.HintHigh})
	c.Access(mem.Access{Addr: 0x40})
	if spy.last != mem.HintHigh {
		t.Fatalf("policy saw hint %v, want High", spy.last)
	}
	c.SetClassifier(nil)
	c.Access(mem.Access{Addr: 0x2040})
	if spy.last != mem.HintDefault {
		t.Fatalf("policy saw hint %v, want Default with nil classifier", spy.last)
	}
}

func TestHierarchyFiltering(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	h, err := NewHierarchy(cfg, NewLRU(cfg.LLC.Sets(), cfg.LLC.Ways), nil)
	if err != nil {
		t.Fatal(err)
	}
	// A tight loop over a small footprint should be absorbed by the L1:
	// the LLC sees only cold misses.
	for rep := 0; rep < 10; rep++ {
		for b := uint64(0); b < 64; b++ {
			h.Access(mem.Access{Addr: b * BlockSize})
		}
	}
	if h.LLC.Stats.Accesses() != 64 {
		t.Fatalf("LLC accesses = %d, want 64 cold misses only", h.LLC.Stats.Accesses())
	}
	if h.L1.Stats.Hits == 0 {
		t.Fatal("L1 absorbed nothing")
	}
}

func TestHierarchyMemoryCycles(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	h, _ := NewHierarchy(cfg, NewLRU(cfg.LLC.Sets(), cfg.LLC.Ways), nil)
	h.Access(mem.Access{Addr: 0}) // miss everywhere
	h.Access(mem.Access{Addr: 0}) // L1 hit
	want := 2*float64(cfg.L1Latency) +
		(float64(cfg.L2Latency)+float64(cfg.LLCLatency)+float64(cfg.MemLatency))/cfg.MLP
	if got := h.MemoryCycles(); got != want {
		t.Fatalf("cycles = %f, want %f", got, want)
	}
}

func TestHierarchyBadConfig(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.L2.SizeBytes = 1000
	if _, err := NewHierarchy(cfg, NewLRU(1, 1), nil); err == nil {
		t.Fatal("expected error for bad L2 geometry")
	}
	// The upper levels reject what New rejects, and say which level.
	for _, tc := range []struct {
		level string
		bad   Config
	}{
		{"L1", Config{SizeBytes: 3 * 8 * BlockSize, Ways: 8}},     // 3 sets
		{"L1", Config{SizeBytes: 0, Ways: 8}},                     // no sets
		{"L2", Config{SizeBytes: (8*8 + 1) * BlockSize, Ways: 8}}, // not divisible
	} {
		cfg := DefaultHierarchyConfig()
		if tc.level == "L1" {
			cfg.L1 = tc.bad
		} else {
			cfg.L2 = tc.bad
		}
		_, err := NewUpperLevels(cfg)
		_, want := New(tc.bad, nil)
		if err == nil || want == nil || err.Error() != tc.level+": "+want.Error() {
			t.Errorf("NewUpperLevels(%s = %+v) error %v, want %s: %v", tc.level, tc.bad, err, tc.level, want)
		}
	}
}

// Tiny deterministic RNG for tests, independent of the graph package.
type testRNG struct{ s uint64 }

func newTestRNG(seed uint64) *testRNG { return &testRNG{s: seed*2654435761 + 1} }
func (r *testRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func TestWritebackAccounting(t *testing.T) {
	// 1-set, 2-way cache: a dirty block's eviction counts as a writeback;
	// clean evictions do not.
	c := MustNew(Config{SizeBytes: 2 * BlockSize, Ways: 2}, NewLRU(1, 2))
	c.Access(mem.Access{Addr: 0x000, Write: true}) // dirty fill
	c.Access(mem.Access{Addr: 0x040})              // clean fill
	c.Access(mem.Access{Addr: 0x080})              // evicts LRU (dirty 0x000)
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	c.Access(mem.Access{Addr: 0x0C0}) // evicts clean 0x040
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d after clean eviction, want 1", c.Stats.Writebacks)
	}
	// A write hit dirties a clean block.
	c.Access(mem.Access{Addr: 0x080, Write: true})
	c.Access(mem.Access{Addr: 0x100})
	c.Access(mem.Access{Addr: 0x140}) // one of these evicts dirty 0x080
	if c.Stats.Writebacks != 2 {
		t.Fatalf("writebacks = %d after dirtied-by-hit eviction, want 2", c.Stats.Writebacks)
	}
}

func TestFlushClearsDirty(t *testing.T) {
	c := MustNew(Config{SizeBytes: 2 * BlockSize, Ways: 2}, NewLRU(1, 2))
	c.Access(mem.Access{Addr: 0x000, Write: true})
	c.Flush()
	c.Access(mem.Access{Addr: 0x000}) // clean refill
	c.Access(mem.Access{Addr: 0x040})
	c.Access(mem.Access{Addr: 0x080})
	if c.Stats.Writebacks != 0 {
		t.Fatalf("writebacks = %d after flush, want 0", c.Stats.Writebacks)
	}
}
