package core

import (
	"grasp/internal/cache"
	"grasp/internal/mem"
	"grasp/internal/policy"
)

// GRASP over additional base schemes, substantiating the paper's claim
// that "GRASP is not fundamentally dependent on RRIP and can be
// implemented over many other schemes including, but not limited to, LRU,
// Pseudo-LRU and DIP" (Sec. III-C). LRUPolicy covers the LRU base; this
// file adds the Pseudo-LRU and DIP bases.

// PLRUPolicy is GRASP over tree-PLRU. PLRU has no notion of insertion
// position, so the specialized policies act through the protection bits:
//
//	High-Reuse:     touch on insert and on hit (fully protected path)
//	Moderate-Reuse: leave the tree unchanged on insert, touch on every
//	                second hit (gradual promotion)
//	Low-Reuse:      leave the tree unchanged on insert (the block stays
//	                the path's next victim), touch on every second hit
//	Default:        plain PLRU
type PLRUPolicy struct {
	base *policy.PLRU
	// hitParity implements "promote on every second hit" for Moderate/Low
	// blocks without per-block metadata (a single global toggle, in the
	// spirit of GRASP's negligible hardware cost).
	hitParity bool
}

// NewPLRUPolicy creates GRASP over tree-PLRU.
func NewPLRUPolicy(sets, ways uint32) *PLRUPolicy {
	return &PLRUPolicy{base: policy.NewPLRU(sets, ways)}
}

var _ cache.Policy = (*PLRUPolicy)(nil)

// OnHit implements cache.Policy.
func (p *PLRUPolicy) OnHit(set, way uint32, a mem.Access) {
	switch a.Hint {
	case mem.HintModerate, mem.HintLow:
		p.hitParity = !p.hitParity
		if p.hitParity {
			p.base.OnHit(set, way, a)
		}
	default:
		p.base.OnHit(set, way, a)
	}
}

// OnFill implements cache.Policy.
func (p *PLRUPolicy) OnFill(set, way uint32, a mem.Access) {
	switch a.Hint {
	case mem.HintModerate, mem.HintLow:
		// Do not touch: the tree still points at this way, making it an
		// immediate replacement candidate (the LRU-insertion analogue).
	default:
		p.base.OnFill(set, way, a)
	}
}

// Victim implements cache.Policy: unmodified PLRU eviction.
func (p *PLRUPolicy) Victim(set uint32, a mem.Access) (uint32, bool) {
	return p.base.Victim(set, a)
}

// OnEvict implements cache.Policy.
func (p *PLRUPolicy) OnEvict(set, way uint32) { p.base.OnEvict(set, way) }

// DIPPolicy is GRASP over DIP: the Default class keeps DIP's dueling
// insertion, while hinted classes are steered exactly like GRASP-LRU
// (DIP's base is an LRU stack). Implemented by composing the explicit
// recency stack of LRUPolicy for hinted accesses with a BIP-style bimodal
// default insertion. Its PSEL saturates at ±dipPselMax, twice DIP's ±512.
type DIPPolicy struct {
	stack *LRUPolicy
	duel  policy.Duel // first policy LRU insertion, second BIP
	bip   policy.Bimodal
}

const dipPselMax = 1024

// NewDIPPolicy creates GRASP over DIP.
func NewDIPPolicy(sets, ways uint32) *DIPPolicy {
	return &DIPPolicy{stack: NewLRUPolicy(sets, ways), duel: policy.NewDuel(sets, dipPselMax)}
}

var _ cache.Policy = (*DIPPolicy)(nil)

// OnHit implements cache.Policy: hinted behaviour as in GRASP-LRU.
func (p *DIPPolicy) OnHit(set, way uint32, a mem.Access) { p.stack.OnHit(set, way, a) }

// OnFill implements cache.Policy.
func (p *DIPPolicy) OnFill(set, way uint32, a mem.Access) {
	if a.Hint != mem.HintDefault {
		p.stack.OnFill(set, way, a)
		return
	}
	// DIP dueling for unhinted fills: LRU insertion vs bimodal insertion.
	if p.duel.First(set) || p.bip.Next() {
		p.stack.OnFill(set, way, mem.Access{Hint: mem.HintDefault}) // MRU
	} else {
		p.stack.OnFill(set, way, mem.Access{Hint: mem.HintLow}) // LRU position
	}
}

// Victim implements cache.Policy: LRU-stack bottom, hint-blind.
func (p *DIPPolicy) Victim(set uint32, a mem.Access) (uint32, bool) {
	return p.stack.Victim(set, a)
}

// OnEvict implements cache.Policy.
func (p *DIPPolicy) OnEvict(set, way uint32) { p.stack.OnEvict(set, way) }
