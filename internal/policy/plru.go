package policy

import (
	"math/bits"

	"grasp/internal/cache"
	"grasp/internal/mem"
)

// PLRU is tree-based Pseudo-LRU, the replacement scheme most commonly
// shipped in real L1/L2 caches and one of the base schemes the paper names
// as a GRASP substrate (Sec. III-C). Each set keeps ways-1 tree bits; a
// hit or fill flips the bits along the block's root path to point away
// from it, and the victim is found by following the bits from the root.
//
// Associativity must be a power of two no larger than 64: a set's tree
// bits are packed into one uint64.
type PLRU struct {
	// bits[set] holds the set's tree in heap layout: bit i is node i, whose
	// children are nodes 2i+1 and 2i+2, and leaf ways-1+w is way w. A set
	// bit sends the victim search right.
	bits []uint64
	// pathMask[w] selects the nodes on way w's root path and pathVal[w]
	// their values after w is touched: each points away from w.
	pathMask, pathVal []uint64
	ways              uint32
	levels            int
}

// NewPLRU creates a tree-PLRU policy.
func NewPLRU(sets, ways uint32) *PLRU {
	if ways == 0 || ways&(ways-1) != 0 || ways > 64 {
		panic("policy: PLRU requires power-of-two associativity of at most 64")
	}
	p := &PLRU{bits: make([]uint64, sets), pathMask: make([]uint64, ways),
		pathVal: make([]uint64, ways), ways: ways, levels: bits.TrailingZeros32(ways)}
	for w := uint32(0); w < ways; w++ {
		node := uint32(0)
		lo, hi := uint32(0), ways
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			p.pathMask[w] |= 1 << node
			if w < mid {
				p.pathVal[w] |= 1 << node // victim search should go right
				node = 2*node + 1
				hi = mid
			} else {
				node = 2*node + 2 // victim search should go left
				lo = mid
			}
		}
	}
	return p
}

var _ cache.Policy = (*PLRU)(nil)

// touch points the tree bits on way's root path away from it.
func (p *PLRU) touch(set, way uint32) {
	p.bits[set] = p.bits[set]&^p.pathMask[way] | p.pathVal[way]
}

// OnHit implements cache.Policy.
func (p *PLRU) OnHit(set, way uint32, _ mem.Access) { p.touch(set, way) }

// OnFill implements cache.Policy.
func (p *PLRU) OnFill(set, way uint32, _ mem.Access) { p.touch(set, way) }

// Victim implements cache.Policy: follow the tree bits from the root.
func (p *PLRU) Victim(set uint32, _ mem.Access) (uint32, bool) {
	t := p.bits[set]
	node := uint32(0)
	for l := 0; l < p.levels; l++ {
		node = 2*node + 1 + uint32(t>>node&1)
	}
	return node - (p.ways - 1), false
}

// OnEvict implements cache.Policy.
func (p *PLRU) OnEvict(uint32, uint32) {}

// VictimPath exposes the would-be victim without side effects (tests).
func (p *PLRU) VictimPath(set uint32) uint32 {
	v, _ := p.Victim(set, mem.Access{})
	return v
}
