package policy

import (
	"math/bits"

	"grasp/internal/mem"
)

// DIP is Dynamic Insertion Policy [Qureshi et al., ISCA'07]: set dueling
// between traditional LRU insertion and Bimodal Insertion (BIP — insert at
// LRU position except 1/32 of the time). Included because the paper lists
// DIP among the base schemes GRASP can augment.
type DIP struct {
	stamps []uint64
	// zero[set] has bit w set exactly when way w < 64 holds stamp 0 (the
	// LRU position a BIP fill inserts at). Nonzero stamps are unique, so
	// when any way holds 0 the least recent stamp's first way is the
	// lowest such bit and Victim needs no scan.
	zero  []uint64
	ways  uint32
	clock uint64
	duel  Duel // first policy LRU insertion, second BIP
	bip   Bimodal
}

// NewDIP creates a DIP policy.
func NewDIP(sets, ways uint32) *DIP {
	p := &DIP{stamps: make([]uint64, sets*ways), zero: make([]uint64, sets),
		ways: ways, duel: NewDuel(sets, pselMax)}
	all := ^uint64(0)
	if ways < 64 {
		all = 1<<ways - 1
	}
	for s := range p.zero {
		p.zero[s] = all
	}
	return p
}

// stamp records way's new stamp and keeps zero in step.
func (p *DIP) stamp(set, way uint32, t uint64) {
	p.stamps[set*p.ways+way] = t
	if way < 64 {
		if t == 0 {
			p.zero[set] |= 1 << way
		} else {
			p.zero[set] &^= 1 << way
		}
	}
}

// OnHit implements cache.Policy: promote to MRU.
func (p *DIP) OnHit(set, way uint32, _ mem.Access) {
	p.clock++
	p.stamp(set, way, p.clock)
}

// OnFill implements cache.Policy: MRU insertion, or BIP's insertion at
// the LRU position except one fill in 32, as the duel decides.
func (p *DIP) OnFill(set, way uint32, _ mem.Access) {
	p.clock++
	if p.duel.First(set) || p.bip.Next() {
		p.stamp(set, way, p.clock) // MRU insertion
	} else {
		p.stamp(set, way, 0) // LRU position
	}
}

// Victim implements cache.Policy: the first way holding the least recent
// stamp.
func (p *DIP) Victim(set uint32, _ mem.Access) (uint32, bool) {
	if z := p.zero[set]; z != 0 {
		return uint32(bits.TrailingZeros64(z)), false
	}
	base := set * p.ways
	best := uint32(0)
	for w := uint32(1); w < p.ways; w++ {
		if p.stamps[base+w] < p.stamps[base+best] {
			best = w
		}
	}
	return best, false
}

// OnEvict implements cache.Policy.
func (p *DIP) OnEvict(uint32, uint32) {}
