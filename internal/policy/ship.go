package policy

import (
	"grasp/internal/cache"
	"grasp/internal/mem"
)

// SHiP is the Signature-based Hit Predictor [Wu et al., MICRO'11]. A
// Signature History Counter Table (SHCT) of 3-bit saturating counters
// tracks whether blocks filled under a signature tend to be re-referenced;
// per the paper's methodology the table has an unlimited number of entries
// (a map) to assess the scheme's maximum potential.
//
// The signature is the block's 16KB memory region (SHiP-MEM) or the PC of
// the filling access (SHiP-PC, the original proposal). The paper
// evaluates SHiP-MEM because PC correlation is useless for graph analytics
// (Sec. II-F: one PC touches hot and cold vertices alike); SHiP-PC exists
// to demonstrate that claim quantitatively — see the "ablation" experiment
// and its test, where SHiP-PC fails to separate the Property Array's hot
// and cold blocks.
//
// Insertion: signature predicted zero-reuse -> distant (RRPV max);
// otherwise long (max-1). Hits promote to RRPV 0 and train the SHCT up;
// evictions of never-reused blocks train it down.
type SHiP struct {
	meta *RRIPMeta
	shct map[uint64]uint8 // signature -> 3-bit counter
	// Per-block bookkeeping (this is the kind of embedded metadata GRASP
	// avoids, Sec. III-D): the inserting signature and a reused bit.
	sig    []uint64
	reused []bool
	ways   uint32
	byPC   bool
}

const (
	shipRegionBits = 14 // 16KB regions, as in the original proposal
	shctMax        = 7  // 3-bit saturating counter
	shctInit       = 1  // weakly reused
)

// NewSHiP creates a SHiP policy whose signature is the PC when byPC is
// set (SHiP-PC) and the memory region otherwise (SHiP-MEM).
func NewSHiP(sets, ways uint32, byPC bool) *SHiP {
	return &SHiP{
		meta:   NewRRIPMeta(sets, ways),
		shct:   make(map[uint64]uint8),
		sig:    make([]uint64, sets*ways),
		reused: make([]bool, sets*ways),
		ways:   ways,
		byPC:   byPC,
	}
}

var _ cache.Policy = (*SHiP)(nil)

// signature returns the SHCT index of an access.
func (p *SHiP) signature(a mem.Access) uint64 {
	if p.byPC {
		return uint64(a.PC)
	}
	return a.Addr >> shipRegionBits
}

// OnHit implements cache.Policy: promote, mark reused, train up.
func (p *SHiP) OnHit(set, way uint32, _ mem.Access) {
	p.meta.Set(set, way, RRPVNear)
	i := set*p.ways + way
	if !p.reused[i] {
		p.reused[i] = true
		if c := p.shct[p.sig[i]]; c < shctMax {
			p.shct[p.sig[i]] = c + 1
		}
	}
}

// OnFill implements cache.Policy: insert by SHCT prediction.
func (p *SHiP) OnFill(set, way uint32, a mem.Access) {
	s := p.signature(a)
	i := set*p.ways + way
	p.sig[i] = s
	p.reused[i] = false
	c, ok := p.shct[s]
	if !ok {
		c = shctInit
		p.shct[s] = c
	}
	if c == 0 {
		p.meta.Set(set, way, RRPVMax) // predicted no reuse: distant
	} else {
		p.meta.Set(set, way, RRPVLong)
	}
}

// Victim implements cache.Policy.
func (p *SHiP) Victim(set uint32, _ mem.Access) (uint32, bool) {
	return p.meta.Victim(set), false
}

// OnEvict implements cache.Policy: a block evicted without reuse trains its
// signature down.
func (p *SHiP) OnEvict(set, way uint32) {
	i := set*p.ways + way
	if !p.reused[i] {
		if c := p.shct[p.sig[i]]; c > 0 {
			p.shct[p.sig[i]] = c - 1
		}
	}
}

// SHCTSnapshot returns a copy of the signature table (tests/inspection).
func (p *SHiP) SHCTSnapshot() map[uint64]uint8 {
	out := make(map[uint64]uint8, len(p.shct))
	for k, v := range p.shct {
		out[k] = v
	}
	return out
}
