package core

import (
	"testing"
	"testing/quick"

	"grasp/internal/cache"
	"grasp/internal/mem"
	"grasp/internal/policy"
)

const llcBytes = 1 << 20 // 1MB LLC for classification tests

func TestABRsDefaultWhenUnset(t *testing.T) {
	r := NewABRs(llcBytes)
	if r.Classify(0x1234) != mem.HintDefault {
		t.Fatal("unset ABRs must classify everything Default")
	}
	if r.NumPairs() != 0 {
		t.Fatal("fresh ABRs must have no pairs")
	}
}

func TestABRsSingleArrayRegions(t *testing.T) {
	r := NewABRs(llcBytes)
	base := uint64(0x1000_0000)
	end := base + 8*llcBytes // Property Array = 8x LLC
	if err := r.SetBounds(base, end); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr uint64
		want mem.Hint
	}{
		{base, mem.HintHigh},
		{base + llcBytes - 1, mem.HintHigh},
		{base + llcBytes, mem.HintModerate},
		{base + 2*llcBytes - 1, mem.HintModerate},
		{base + 2*llcBytes, mem.HintLow},
		{end - 1, mem.HintLow},
		{end, mem.HintLow},      // outside array but graph app active
		{0x42, mem.HintLow},     // unrelated address
		{base - 1, mem.HintLow}, // just below
	}
	for _, c := range cases {
		if got := r.Classify(c.addr); got != c.want {
			t.Errorf("Classify(%#x) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestABRsTwoArraysSplitRegions(t *testing.T) {
	// With two Property Arrays each gets LLC/2-sized regions.
	r := NewABRs(llcBytes)
	a0, a1 := uint64(0x1000_0000), uint64(0x2000_0000)
	if err := r.SetBounds(a0, a0+4*llcBytes); err != nil {
		t.Fatal(err)
	}
	if err := r.SetBounds(a1, a1+4*llcBytes); err != nil {
		t.Fatal(err)
	}
	half := uint64(llcBytes / 2)
	for _, base := range []uint64{a0, a1} {
		if got := r.Classify(base + half - 1); got != mem.HintHigh {
			t.Errorf("array %#x: high region end misclassified: %v", base, got)
		}
		if got := r.Classify(base + half); got != mem.HintModerate {
			t.Errorf("array %#x: moderate region start misclassified: %v", base, got)
		}
		if got := r.Classify(base + 2*half); got != mem.HintLow {
			t.Errorf("array %#x: tail misclassified: %v", base, got)
		}
	}
}

func TestABRsSmallArrayClamped(t *testing.T) {
	// Property Array smaller than the LLC: the whole array is High.
	r := NewABRs(llcBytes)
	base := uint64(0x1000)
	if err := r.SetBounds(base, base+llcBytes/4); err != nil {
		t.Fatal(err)
	}
	if got := r.Classify(base + llcBytes/4 - 1); got != mem.HintHigh {
		t.Fatalf("small array end = %v, want High", got)
	}
}

func TestABRsReversedBounds(t *testing.T) {
	r := NewABRs(llcBytes)
	if err := r.SetBounds(100, 50); err == nil {
		t.Fatal("expected error for reversed bounds")
	}
}

func TestABRsResetAndSetArray(t *testing.T) {
	as := mem.NewAddressSpace()
	prop := as.Register("prop", 8, 1<<20, true)
	r := NewABRs(llcBytes)
	if err := r.SetArray(prop); err != nil {
		t.Fatal(err)
	}
	if r.Classify(prop.Base) != mem.HintHigh {
		t.Fatal("array start must be High")
	}
	r.Reset()
	if r.Classify(prop.Base) != mem.HintDefault {
		t.Fatal("Reset must restore Default classification")
	}
	if len(r.Pairs()) != 0 {
		t.Fatal("Pairs() after reset not empty")
	}
}

// Table II behaviour: verify the RRPV transitions of the full GRASP policy.
func TestGRASPTableII(t *testing.T) {
	p := NewPolicy(1, 4, ModeFull)
	meta := p.base.Meta()
	// Insertion positions.
	p.OnFill(0, 0, mem.Access{Hint: mem.HintHigh})
	if meta.Get(0, 0) != 0 {
		t.Fatalf("High insert RRPV = %d, want 0", meta.Get(0, 0))
	}
	p.OnFill(0, 1, mem.Access{Hint: mem.HintModerate})
	if meta.Get(0, 1) != 6 {
		t.Fatalf("Moderate insert RRPV = %d, want 6", meta.Get(0, 1))
	}
	p.OnFill(0, 2, mem.Access{Hint: mem.HintLow})
	if meta.Get(0, 2) != 7 {
		t.Fatalf("Low insert RRPV = %d, want 7", meta.Get(0, 2))
	}
	// Hit transitions: High -> 0.
	meta.Set(0, 0, 5)
	p.OnHit(0, 0, mem.Access{Hint: mem.HintHigh})
	if meta.Get(0, 0) != 0 {
		t.Fatalf("High hit RRPV = %d, want 0", meta.Get(0, 0))
	}
	// Moderate/Low: gradual decrement.
	p.OnHit(0, 1, mem.Access{Hint: mem.HintModerate})
	if meta.Get(0, 1) != 5 {
		t.Fatalf("Moderate hit RRPV = %d, want 5", meta.Get(0, 1))
	}
	p.OnHit(0, 2, mem.Access{Hint: mem.HintLow})
	if meta.Get(0, 2) != 6 {
		t.Fatalf("Low hit RRPV = %d, want 6", meta.Get(0, 2))
	}
	// Gradual promotion saturates at 0.
	meta.Set(0, 1, 0)
	p.OnHit(0, 1, mem.Access{Hint: mem.HintModerate})
	if meta.Get(0, 1) != 0 {
		t.Fatalf("Moderate hit at 0 changed RRPV to %d", meta.Get(0, 1))
	}
	// Default hit promotes to 0 (base RRIP).
	meta.Set(0, 3, 4)
	p.OnHit(0, 3, mem.Access{Hint: mem.HintDefault})
	if meta.Get(0, 3) != 0 {
		t.Fatalf("Default hit RRPV = %d, want 0", meta.Get(0, 3))
	}
}

func TestGRASPInsertionOnlyHitPolicy(t *testing.T) {
	p := NewPolicy(1, 4, ModeInsertionOnly)
	meta := p.base.Meta()
	p.OnFill(0, 0, mem.Access{Hint: mem.HintModerate})
	if meta.Get(0, 0) != 6 {
		t.Fatalf("insertion-only Moderate insert = %d, want 6", meta.Get(0, 0))
	}
	// Hit policy unchanged from RRIP: straight to 0.
	p.OnHit(0, 0, mem.Access{Hint: mem.HintModerate})
	if meta.Get(0, 0) != 0 {
		t.Fatalf("insertion-only Moderate hit = %d, want 0 (RRIP promotion)", meta.Get(0, 0))
	}
}

func TestGRASPHintsOnlyInsertion(t *testing.T) {
	p := NewPolicy(1, 4, ModeHintsOnly)
	meta := p.base.Meta()
	p.OnFill(0, 0, mem.Access{Hint: mem.HintHigh})
	if meta.Get(0, 0) != 6 {
		t.Fatalf("RRIP+Hints High insert = %d, want 6 (near LRU)", meta.Get(0, 0))
	}
	p.OnFill(0, 1, mem.Access{Hint: mem.HintLow})
	if meta.Get(0, 1) != 7 {
		t.Fatalf("RRIP+Hints Low insert = %d, want 7", meta.Get(0, 1))
	}
}

// End-to-end: GRASP protects hot blocks against a cold-block thrash storm
// where plain RRIP loses them.
func TestGRASPProtectsHotBlocks(t *testing.T) {
	const sets, ways = 16, 4
	cfg := cache.Config{SizeBytes: sets * ways * cache.BlockSize, Ways: ways}

	run := func(p cache.Policy, cl cache.Classifier) uint64 {
		c := cache.MustNew(cfg, p)
		c.SetClassifier(cl)
		hot := make([]uint64, 32) // half the cache: hot working set
		for i := range hot {
			hot[i] = uint64(i) << cache.BlockBits
		}
		var hotMisses uint64
		coldBase := uint64(1) << 20
		for rep := 0; rep < 200; rep++ {
			for _, a := range hot {
				if !c.Access(mem.Access{Addr: a}) {
					hotMisses++
				}
			}
			// Cold storm: 4x cache capacity, never reused.
			for i := uint64(0); i < 4*sets*ways; i++ {
				c.Access(mem.Access{Addr: coldBase + (uint64(rep)*4096+i)<<cache.BlockBits})
			}
		}
		return hotMisses
	}

	abrs := NewABRs(cfg.SizeBytes)
	// Hot region: the first 32 blocks; everything else is beyond the array.
	if err := abrs.SetBounds(0, 32<<cache.BlockBits); err != nil {
		t.Fatal(err)
	}
	graspMisses := run(NewPolicy(sets, ways, ModeFull), abrs)
	rripMisses := run(policy.NewDRRIP(sets, ways), nil)
	if graspMisses >= rripMisses {
		t.Fatalf("GRASP hot misses %d not better than RRIP %d under thrashing", graspMisses, rripMisses)
	}
	// GRASP should keep the hot set essentially resident after warm-up.
	if graspMisses > 64 {
		t.Fatalf("GRASP hot misses = %d, want near-cold-only (<= 64)", graspMisses)
	}
}

// Flexibility (anti-pinning) property: blocks that stop being accessed must
// eventually yield space even if they were High-Reuse.
func TestGRASPHighReuseBlocksEventuallyEvictable(t *testing.T) {
	const ways = 4
	p := NewPolicy(1, ways, ModeFull)
	c := cache.MustNew(cache.Config{SizeBytes: ways * cache.BlockSize, Ways: ways}, p)
	// Fill the set with High-Reuse blocks (RRPV 0), then stream Moderate
	// blocks; aging must eventually evict the stale High blocks.
	for i := uint64(0); i < ways; i++ {
		c.Access(mem.Access{Addr: i << cache.BlockBits, Hint: mem.HintHigh})
	}
	for i := uint64(100); i < 120; i++ {
		c.Access(mem.Access{Addr: i << cache.BlockBits, Hint: mem.HintModerate})
	}
	evicted := 0
	for i := uint64(0); i < ways; i++ {
		if !c.Contains(i << cache.BlockBits) {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatal("stale High-Reuse blocks were never evicted; GRASP must not pin")
	}
}

func TestGRASPLRUStackManipulation(t *testing.T) {
	p := NewLRUPolicy(1, 4)
	// Fill ways 0..3 with Default hint: each goes to MRU.
	for w := uint32(0); w < 4; w++ {
		p.OnFill(0, w, mem.Access{})
	}
	// Stack should now be [3 2 1 0].
	if got := p.StackOrder(0); got[0] != 3 || got[3] != 0 {
		t.Fatalf("stack = %v, want [3 2 1 0]", got)
	}
	// Low-Reuse fill of way 0 goes to LRU.
	p.OnFill(0, 0, mem.Access{Hint: mem.HintLow})
	if got := p.StackOrder(0); got[3] != 0 {
		t.Fatalf("Low fill not at LRU: %v", got)
	}
	// Moderate fill of way 1 goes one above LRU.
	p.OnFill(0, 1, mem.Access{Hint: mem.HintModerate})
	if got := p.StackOrder(0); got[2] != 1 {
		t.Fatalf("Moderate fill not near LRU: %v", got)
	}
	// Moderate hit moves up exactly one step.
	p.OnHit(0, 1, mem.Access{Hint: mem.HintModerate})
	if got := p.StackOrder(0); got[1] != 1 {
		t.Fatalf("Moderate hit did not move one step: %v", got)
	}
	// High hit goes straight to MRU.
	p.OnHit(0, 0, mem.Access{Hint: mem.HintHigh})
	if got := p.StackOrder(0); got[0] != 0 {
		t.Fatalf("High hit not at MRU: %v", got)
	}
	// Victim is the stack bottom.
	v, bypass := p.Victim(0, mem.Access{})
	if bypass {
		t.Fatal("GRASP-LRU must not bypass")
	}
	if got := p.StackOrder(0); uint32(got[3]) != v {
		t.Fatalf("victim %d is not the LRU way %d", v, got[3])
	}
}

func TestGRASPLRUBehavesAsLRUWithoutHints(t *testing.T) {
	// With Default hints only, GRASP-LRU must be exactly LRU.
	f := func(seed uint64, n uint16) bool {
		r := seed*2654435761 + 1
		next := func() uint64 {
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			return r
		}
		const sets, ways = 4, 4
		cfgSize := uint64(sets * ways * cache.BlockSize)
		cg := cache.MustNew(cache.Config{SizeBytes: cfgSize, Ways: ways}, NewLRUPolicy(sets, ways))
		cl := cache.MustNew(cache.Config{SizeBytes: cfgSize, Ways: ways}, cache.NewLRU(sets, ways))
		for i := 0; i < int(n%1000)+10; i++ {
			a := mem.Access{Addr: (next() % 128) << cache.BlockBits}
			if cg.Access(a) != cl.Access(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Classify is total and consistent — every address gets exactly
// one hint, and addresses inside a registered array never classify Default.
func TestClassifyQuick(t *testing.T) {
	f := func(addrs []uint64) bool {
		r := NewABRs(llcBytes)
		base := uint64(0x4000_0000)
		if err := r.SetBounds(base, base+16*llcBytes); err != nil {
			return false
		}
		for _, a := range addrs {
			h := r.Classify(a)
			if h == mem.HintDefault {
				return false // graph app active: Default impossible
			}
			inHigh := a >= base && a < base+llcBytes
			if inHigh != (h == mem.HintHigh) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
