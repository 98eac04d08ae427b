package policy_test

import (
	"testing"
	"testing/quick"

	"grasp/internal/cache"
	"grasp/internal/mem"
	"grasp/internal/policy"
	"grasp/internal/sim"
)

// Tests over every registered LLC policy. sim's registry is the one list
// of policies, so they range over it: the prior schemes and the GRASP
// variants alike.

// TestAllPoliciesFuzz: every policy behaves sanely (no panics, every
// access counted) on arbitrary traces.
func TestAllPoliciesFuzz(t *testing.T) {
	for _, pinfo := range sim.Policies() {
		t.Run(pinfo.Name, func(t *testing.T) {
			f := func(seed uint64, n uint16) bool {
				next := policy.NewTestRNG(seed)
				const sets, ways = 8, 4
				c := cache.MustNew(cache.Config{SizeBytes: sets * ways * cache.BlockSize, Ways: ways},
					pinfo.New(sets, ways))
				length := int(n%1500) + 10
				for i := 0; i < length; i++ {
					c.Access(mem.Access{
						Addr:  (next() % 256) << cache.BlockBits,
						PC:    uint32(next() % 4),
						Hint:  mem.Hint(next() % 4),
						Write: next()%2 == 0,
					})
				}
				return c.Stats.Accesses() == uint64(length)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBeladyOptimality asserts OPT's lower bound against every registered
// policy. Bypasses are counted with misses: either way the block came from
// memory.
func TestBeladyOptimality(t *testing.T) {
	const sets, ways = 4, 4
	for _, seed := range policy.PropertySeeds {
		blocks, accs := policy.PropertyTrace(seed)
		opt := policy.SimulateOPT(blocks, sets, ways)
		if opt.Accesses() != uint64(len(blocks)) {
			t.Fatalf("seed %#x: OPT dropped accesses: %d != %d", seed, opt.Accesses(), len(blocks))
		}
		for _, pinfo := range sim.Policies() {
			c := cache.MustNew(cache.Config{SizeBytes: sets * ways * cache.BlockSize, Ways: ways},
				pinfo.New(sets, ways))
			for _, a := range accs {
				c.Access(a)
			}
			if opt.Misses > c.Stats.Misses {
				t.Errorf("seed %#x: OPT misses (%d) exceed %s's (%d); Belady bound violated",
					seed, opt.Misses, pinfo.Name, c.Stats.Misses)
			}
		}
	}
}
