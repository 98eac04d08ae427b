package core

import (
	"grasp/internal/cache"
	"grasp/internal/mem"
)

// LRUPolicy is GRASP implemented over an LRU base instead of RRIP,
// demonstrating the paper's claim that "GRASP is not fundamentally
// dependent on RRIP and can be implemented over many other schemes
// including, but not limited to, LRU, Pseudo-LRU and DIP" (Sec. III-C).
//
// The recency stack is explicit per set so that the specialized insertion
// positions (MRU / near-LRU / LRU) and the gradual one-step hit promotion
// have exact analogues of the RRPV manipulations in Table II:
//
//	High-Reuse:     insert at MRU, promote to MRU on hit
//	Moderate-Reuse: insert one above LRU, move one step MRU-ward on hit
//	Low-Reuse:      insert at LRU, move one step MRU-ward on hit
//	Default:        insert at MRU, promote to MRU on hit (plain LRU)
type LRUPolicy struct {
	// order lists each set's ways from MRU (index 0) to LRU (index
	// ways-1), set-major; pos is its inverse, the stack index of every
	// way, so neither a lookup nor a move scans the stack.
	order []uint8
	pos   []uint8
	ways  uint32
}

// NewLRUPolicy creates a GRASP-over-LRU policy.
func NewLRUPolicy(sets, ways uint32) *LRUPolicy {
	p := &LRUPolicy{order: make([]uint8, sets*ways), pos: make([]uint8, sets*ways), ways: ways}
	for i := range p.order {
		p.order[i] = uint8(uint32(i) % ways)
		p.pos[i] = p.order[i]
	}
	return p
}

var _ cache.Policy = (*LRUPolicy)(nil)

// position returns the stack index of way in set (0 = MRU).
func (p *LRUPolicy) position(set uint32, way uint8) int {
	return int(p.pos[set*p.ways+uint32(way)])
}

// moveTo relocates way to stack index target; the ways in between shift
// one place toward the slot it left.
func (p *LRUPolicy) moveTo(set uint32, way uint8, target int) {
	base := set * p.ways
	st := p.order[base : base+p.ways : base+p.ways]
	pos := p.pos[base : base+p.ways : base+p.ways]
	cur := int(pos[way])
	for ; cur < target; cur++ {
		st[cur] = st[cur+1]
		pos[st[cur]] = uint8(cur)
	}
	for ; cur > target; cur-- {
		st[cur] = st[cur-1]
		pos[st[cur]] = uint8(cur)
	}
	st[target] = way
	pos[way] = uint8(target)
}

// OnHit implements cache.Policy.
func (p *LRUPolicy) OnHit(set, way uint32, a mem.Access) {
	w := uint8(way)
	switch a.Hint {
	case mem.HintModerate, mem.HintLow:
		if cur := p.position(set, w); cur > 0 {
			p.moveTo(set, w, cur-1) // one step toward MRU
		}
	default: // High-Reuse and Default: straight to MRU
		p.moveTo(set, w, 0)
	}
}

// OnFill implements cache.Policy.
func (p *LRUPolicy) OnFill(set, way uint32, a mem.Access) {
	w := uint8(way)
	last := int(p.ways) - 1
	switch a.Hint {
	case mem.HintModerate:
		target := last - 1
		if target < 0 {
			target = 0
		}
		p.moveTo(set, w, target)
	case mem.HintLow:
		p.moveTo(set, w, last)
	default:
		p.moveTo(set, w, 0)
	}
}

// Victim implements cache.Policy: the LRU way, hint-blind as always.
func (p *LRUPolicy) Victim(set uint32, _ mem.Access) (uint32, bool) {
	return uint32(p.order[set*p.ways+p.ways-1]), false
}

// OnEvict implements cache.Policy.
func (p *LRUPolicy) OnEvict(uint32, uint32) {}

// StackOrder returns a copy of the recency stack of a set (tests).
func (p *LRUPolicy) StackOrder(set uint32) []uint8 {
	base := set * p.ways
	return append([]uint8(nil), p.order[base:base+p.ways]...)
}
