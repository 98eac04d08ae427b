// Custom policy: how to plug a user-defined LLC replacement policy into
// the simulator and evaluate it against the built-ins on a graph workload.
//
// The example implements "HintLRU", a toy policy that uses GRASP's reuse
// hints with a plain LRU stack: High-Reuse blocks are exempted from
// eviction unless the whole set is High-Reuse. It demonstrates the
// cache.Policy interface and the GRASP software-hardware interface (ABRs)
// end to end.
package main

import (
	"fmt"
	"log"

	"grasp/internal/apps"
	"grasp/internal/cache"
	"grasp/internal/core"
	"grasp/internal/graph"
	"grasp/internal/ligra"
	"grasp/internal/mem"
	"grasp/internal/reorder"
)

// HintLRU is LRU except that the victim search skips blocks whose last
// access carried a High-Reuse hint, falling back to plain LRU when every
// way is High-Reuse. (Unlike GRASP it stores the hint per block — this is
// exactly the metadata cost the paper's design avoids; run it and see that
// the extra rigidity does not pay.)
type HintLRU struct {
	stamps []uint64
	high   []bool
	ways   uint32
	clock  uint64
}

// NewHintLRU creates the policy.
func NewHintLRU(sets, ways uint32) *HintLRU {
	return &HintLRU{stamps: make([]uint64, sets*ways), high: make([]bool, sets*ways), ways: ways}
}

// OnHit implements cache.Policy.
func (p *HintLRU) OnHit(set, way uint32, a mem.Access) {
	p.clock++
	i := set*p.ways + way
	p.stamps[i] = p.clock
	p.high[i] = a.Hint == mem.HintHigh
}

// OnFill implements cache.Policy.
func (p *HintLRU) OnFill(set, way uint32, a mem.Access) {
	p.clock++
	i := set*p.ways + way
	p.stamps[i] = p.clock
	p.high[i] = a.Hint == mem.HintHigh
}

// Victim implements cache.Policy: LRU among non-High blocks.
func (p *HintLRU) Victim(set uint32, _ mem.Access) (uint32, bool) {
	base := set * p.ways
	best, bestStamp, found := uint32(0), uint64(0), false
	for w := uint32(0); w < p.ways; w++ {
		i := base + w
		if p.high[i] {
			continue
		}
		if !found || p.stamps[i] < bestStamp {
			best, bestStamp, found = w, p.stamps[i], true
		}
	}
	if found {
		return best, false
	}
	// Whole set High-Reuse: plain LRU.
	best = 0
	for w := uint32(1); w < p.ways; w++ {
		if p.stamps[base+w] < p.stamps[base+best] {
			best = w
		}
	}
	return best, false
}

// OnEvict implements cache.Policy.
func (p *HintLRU) OnEvict(set, way uint32) { p.high[set*p.ways+way] = false }

func main() {
	// Workload: PageRank on a DBG-reordered power-law graph.
	g := graph.GenZipf(16384, 16, 0.75, 11, false)
	g = reorder.Apply(g, reorder.DBG(g, reorder.BySum))
	hcfg := cache.DefaultHierarchyConfig()
	hcfg.L1.SizeBytes /= 8
	hcfg.L2.SizeBytes /= 8
	hcfg.LLC.SizeBytes /= 8

	run := func(p cache.Policy, useABRs bool) cache.Stats {
		fg := ligra.NewGraph(g)
		app := apps.NewPR(fg, apps.DefaultPRIterations, apps.LayoutMerged)
		var cl cache.Classifier
		if useABRs {
			abrs := core.NewABRs(hcfg.LLC.SizeBytes)
			for _, a := range app.ABRArrays() {
				if err := abrs.SetArray(a); err != nil {
					log.Fatal(err)
				}
			}
			cl = abrs
		}
		h, err := cache.NewHierarchy(hcfg, p, cl)
		if err != nil {
			log.Fatal(err)
		}
		app.Run(ligra.NewTracer(h))
		return h.LLC.Stats
	}

	sets, ways := hcfg.LLC.Sets(), hcfg.LLC.Ways
	lru := run(cache.NewLRU(sets, ways), false)
	mine := run(NewHintLRU(sets, ways), true)
	grasp := run(core.NewPolicy(sets, ways, core.ModeFull), true)

	fmt.Println("PageRank LLC misses by policy:")
	fmt.Printf("  %-8s %9d\n", "LRU", lru.Misses)
	fmt.Printf("  %-8s %9d  (custom policy)\n", "HintLRU", mine.Misses)
	fmt.Printf("  %-8s %9d\n", "GRASP", grasp.Misses)
}
