package core

// The LLC policy kernels as they were before their per-access callbacks
// were rewritten (one shared set-dueling role, packed PLRU trees,
// word-parallel victim searches, inverse rank and position indexes,
// open-addressed predictor tables), kept verbatim as the references TestPolicyKernelsMatchReference
// and FuzzPolicyKernels compare the rewrites against. Only identifiers
// changed: every type and constructor carries a ref prefix, and the
// internal/policy code lives here, unqualified, so that the GRASP variants
// compose reference bases instead of the rewritten ones. The two SHiP
// variants are kept as the two types they were before they merged, and the
// Name methods went when cache.Policy dropped Name.

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"grasp/internal/cache"
	"grasp/internal/mem"
)

// RRPV constants for the 3-bit re-reference prediction values used
// throughout the paper (Table II): 0 = near-immediate re-reference
// (MRU-like), 7 = distant re-reference (LRU-like, immediate eviction
// candidate).
const (
	RRPVBits     = 3
	RRPVMax      = (1 << RRPVBits) - 1 // 7: distant (Low-Reuse insertion)
	RRPVLong     = RRPVMax - 1         // 6: long (SRRIP insertion)
	RRPVNear     = 0                   // near-immediate (MRU position)
	brripEpsilon = 32                  // BRRIP inserts at RRPVLong 1/32 of the time
)

// RRIPMeta is the shared per-block RRPV state used by the RRIP family and
// every policy layered on it (GRASP, SHiP, Hawkeye-style aging). It is
// factored out so derived policies compose instead of re-implementing the
// victim scan.
type refRRIPMeta struct {
	rrpv []uint8
	ways uint32
}

// NewRRIPMeta allocates RRPV state for sets x ways blocks, initialized to
// distant (empty ways are filled before Victim is ever called, so initial
// values only matter for determinism).
func newRefRRIPMeta(sets, ways uint32) *refRRIPMeta {
	m := &refRRIPMeta{rrpv: make([]uint8, sets*ways), ways: ways}
	for i := range m.rrpv {
		m.rrpv[i] = RRPVMax
	}
	return m
}

// Get returns the RRPV of set/way.
func (m *refRRIPMeta) Get(set, way uint32) uint8 { return m.rrpv[set*m.ways+way] }

// Set assigns the RRPV of set/way.
func (m *refRRIPMeta) Set(set, way uint32, v uint8) { m.rrpv[set*m.ways+way] = v }

// Victim implements the SRRIP victim search: find the first way with
// RRPV==max, aging the whole set (incrementing every RRPV) until one
// appears. Ways are scanned in index order, matching the CRC reference
// implementation. Rather than rescanning per aging round, the search finds
// the first way holding the set's maximum RRPV — the way the iterated
// search would reach distant first — and applies the aggregate aging delta
// once; the resulting RRPV state and victim choice are identical to the
// literal loop's.
//
// When the associativity is a multiple of eight the row is scanned eight
// ways per step (DESIGN.md Sec. 7): read as little-endian uint64s, so byte
// j of word k is way 8k+j. The set's maximum is found by testing for the
// value v = 7, 6, ... in turn: row^v·0x01…01 has a zero byte exactly where
// a way holds v, and because every RRPV is at most 7 each byte of that XOR
// is at most 7, so adding 0x7f to every byte at once cannot carry into the
// next byte and the top bit of each byte of the sum says "nonzero" exactly.
// Aging adds (7-v) to every byte at once; no way exceeds v, so no byte
// exceeds 7 and again nothing carries. After a victim search the set's
// maximum is 7 and a fill inserts at 6 or 7, so the first or second v
// usually hits.
func (m *refRRIPMeta) Victim(set uint32) uint32 {
	base := set * m.ways
	r := m.rrpv[base : base+m.ways : base+m.ways]
	if len(r)%8 != 0 {
		return refVictimScalar(r)
	}
	const (
		ones = 0x0101010101010101
		lo7  = 0x7f7f7f7f7f7f7f7f
		hi   = 0x8080808080808080
	)
	for v := RRPVMax; v >= 0; v-- {
		for k := 0; k < len(r); k += 8 {
			y := binary.LittleEndian.Uint64(r[k:]) ^ uint64(v)*ones
			held := ^(y + lo7) & hi // top bit of every byte whose way holds v
			if held == 0 {
				continue
			}
			if delta := uint64(RRPVMax-v) * ones; delta != 0 {
				for a := 0; a < len(r); a += 8 {
					binary.LittleEndian.PutUint64(r[a:], binary.LittleEndian.Uint64(r[a:])+delta)
				}
			}
			return uint32(k + bits.TrailingZeros64(held)/8)
		}
	}
	panic("policy: RRPV above RRPVMax")
}

// victimScalar is Victim for associativities that are not a multiple of
// eight: one pass for the first way holding the maximum, one conditional
// pass for the aging delta.
func refVictimScalar(r []uint8) uint32 {
	best := uint32(0)
	maxv := r[0]
	for w := 1; w < len(r); w++ {
		if r[w] > maxv {
			maxv = r[w]
			best = uint32(w)
		}
	}
	if delta := uint8(RRPVMax) - maxv; delta > 0 {
		for w := range r {
			r[w] += delta
		}
	}
	return best
}

// SRRIP is Static RRIP [Jaleel et al., ISCA'10]: insert at "long" (max-1),
// promote to 0 on hit (hit-priority variant).
type refSRRIP struct {
	meta *refRRIPMeta
}

// NewSRRIP creates an SRRIP policy.
func newRefSRRIP(sets, ways uint32) *refSRRIP {
	return &refSRRIP{meta: newRefRRIPMeta(sets, ways)}
}

// OnHit implements cache.Policy.
func (p *refSRRIP) OnHit(set, way uint32, _ mem.Access) { p.meta.Set(set, way, RRPVNear) }

// OnFill implements cache.Policy.
func (p *refSRRIP) OnFill(set, way uint32, _ mem.Access) { p.meta.Set(set, way, RRPVLong) }

// Victim implements cache.Policy.
func (p *refSRRIP) Victim(set uint32, _ mem.Access) (uint32, bool) { return p.meta.Victim(set), false }

// OnEvict implements cache.Policy.
func (p *refSRRIP) OnEvict(uint32, uint32) {}

// BRRIP is Bimodal RRIP: insert at distant (max) with high probability and
// at long (max-1) infrequently (1/32), providing thrash resistance.
type refBRRIP struct {
	meta    *refRRIPMeta
	counter uint64
}

// NewBRRIP creates a BRRIP policy.
func newRefBRRIP(sets, ways uint32) *refBRRIP {
	return &refBRRIP{meta: newRefRRIPMeta(sets, ways)}
}

// OnHit implements cache.Policy.
func (p *refBRRIP) OnHit(set, way uint32, _ mem.Access) { p.meta.Set(set, way, RRPVNear) }

// OnFill implements cache.Policy.
func (p *refBRRIP) OnFill(set, way uint32, _ mem.Access) {
	p.counter++
	if p.counter%brripEpsilon == 0 {
		p.meta.Set(set, way, RRPVLong)
	} else {
		p.meta.Set(set, way, RRPVMax)
	}
}

// Victim implements cache.Policy.
func (p *refBRRIP) Victim(set uint32, _ mem.Access) (uint32, bool) { return p.meta.Victim(set), false }

// OnEvict implements cache.Policy.
func (p *refBRRIP) OnEvict(uint32, uint32) {}

// DRRIP is Dynamic RRIP: set dueling between SRRIP and BRRIP insertion with
// a saturating policy-selector counter (PSEL). This is the "RRIP" baseline
// of the paper's evaluation (Sec. IV-C cites the CRC DRRIP source).
type refDRRIP struct {
	meta *refRRIPMeta
	sets uint32
	// Set dueling: every duelPeriod-th set leads SRRIP; sets offset by
	// duelPeriod/2 lead BRRIP.
	psel    int32 // saturating counter; >= 0 prefers SRRIP
	counter uint64
}

const (
	duelPeriod = 32
	pselMax    = 512
)

// NewDRRIP creates a DRRIP policy.
func newRefDRRIP(sets, ways uint32) *refDRRIP {
	return &refDRRIP{meta: newRefRRIPMeta(sets, ways), sets: sets}
}

// leader returns +1 for SRRIP leader sets, -1 for BRRIP leaders, 0 for
// follower sets. The dueling period shrinks with the set count so tiny
// test caches still have one leader of each kind.
func (p *refDRRIP) leader(set uint32) int {
	period := uint32(duelPeriod)
	if p.sets < period {
		period = p.sets
	}
	switch set % period {
	case 0:
		return +1
	case period / 2:
		return -1
	}
	return 0
}

// OnHit implements cache.Policy.
func (p *refDRRIP) OnHit(set, way uint32, _ mem.Access) { p.meta.Set(set, way, RRPVNear) }

// OnFill implements cache.Policy. Leader sets use their fixed policy and
// a miss in a leader set trains PSEL toward the other policy; followers
// use the winning policy.
func (p *refDRRIP) OnFill(set, way uint32, _ mem.Access) {
	useSRRIP := p.psel >= 0
	switch p.leader(set) {
	case +1:
		useSRRIP = true
		if p.psel > -pselMax {
			p.psel-- // miss in SRRIP leader: vote for BRRIP
		}
	case -1:
		useSRRIP = false
		if p.psel < pselMax {
			p.psel++ // miss in BRRIP leader: vote for SRRIP
		}
	}
	if useSRRIP {
		p.meta.Set(set, way, RRPVLong)
		return
	}
	p.counter++
	if p.counter%brripEpsilon == 0 {
		p.meta.Set(set, way, RRPVLong)
	} else {
		p.meta.Set(set, way, RRPVMax)
	}
}

// Victim implements cache.Policy.
func (p *refDRRIP) Victim(set uint32, _ mem.Access) (uint32, bool) { return p.meta.Victim(set), false }

// OnEvict implements cache.Policy.
func (p *refDRRIP) OnEvict(uint32, uint32) {}

// Meta exposes the RRPV state for policies and tests layered on DRRIP.
func (p *refDRRIP) Meta() *refRRIPMeta { return p.meta }

// DIP is Dynamic Insertion Policy [Qureshi et al., ISCA'07]: set dueling
// between traditional LRU insertion and Bimodal Insertion (BIP — insert at
// LRU position except 1/32 of the time). Included because the paper lists
// DIP among the base schemes GRASP can augment.
type refDIP struct {
	stamps  []uint64
	sets    uint32
	ways    uint32
	clock   uint64
	psel    int32
	counter uint64
}

// NewDIP creates a DIP policy.
func newRefDIP(sets, ways uint32) *refDIP {
	return &refDIP{stamps: make([]uint64, sets*ways), sets: sets, ways: ways}
}

// OnHit implements cache.Policy: promote to MRU.
func (p *refDIP) OnHit(set, way uint32, _ mem.Access) {
	p.clock++
	p.stamps[set*p.ways+way] = p.clock
}

func (p *refDIP) leader(set uint32) int {
	period := uint32(duelPeriod)
	if p.sets < period {
		period = p.sets
	}
	switch set % period {
	case 0:
		return +1 // LRU-insertion leader
	case period / 2:
		return -1 // BIP leader
	}
	return 0
}

// OnFill implements cache.Policy.
func (p *refDIP) OnFill(set, way uint32, _ mem.Access) {
	useLRUIns := p.psel >= 0
	switch p.leader(set) {
	case +1:
		useLRUIns = true
		if p.psel > -pselMax {
			p.psel--
		}
	case -1:
		useLRUIns = false
		if p.psel < pselMax {
			p.psel++
		}
	}
	p.clock++
	if useLRUIns {
		p.stamps[set*p.ways+way] = p.clock // MRU insertion
		return
	}
	// BIP: insert at LRU except 1/32 of fills.
	p.counter++
	if p.counter%brripEpsilon == 0 {
		p.stamps[set*p.ways+way] = p.clock
	} else {
		p.stamps[set*p.ways+way] = 0 // LRU position
	}
}

// Victim implements cache.Policy: least recent stamp.
func (p *refDIP) Victim(set uint32, _ mem.Access) (uint32, bool) {
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
func (p *refDIP) OnEvict(uint32, uint32) {}

// PLRU is tree-based Pseudo-LRU, the replacement scheme most commonly
// shipped in real L1/L2 caches and one of the base schemes the paper names
// as a GRASP substrate (Sec. III-C). Each set keeps ways-1 tree bits; a
// hit or fill flips the bits along the block's root path to point away
// from it, and the victim is found by following the bits from the root.
//
// Associativity must be a power of two.
type refPLRU struct {
	bits []bool // (ways-1) bits per set, heap layout: node i has kids 2i+1, 2i+2
	ways uint32
}

// NewPLRU creates a tree-PLRU policy.
func newRefPLRU(sets, ways uint32) *refPLRU {
	if ways == 0 || ways&(ways-1) != 0 {
		panic("policy: PLRU requires power-of-two associativity")
	}
	return &refPLRU{bits: make([]bool, sets*(ways-1)), ways: ways}
}

var _ cache.Policy = (*refPLRU)(nil)

// touch flips the tree bits on way's root path to protect it.
func (p *refPLRU) touch(set, way uint32) {
	base := set * (p.ways - 1)
	// Walk from the root to the leaf; at each node record whether the
	// target is in the left or right subtree and point the bit the OTHER
	// way (bit true = next victim search goes right).
	node := uint32(0)
	lo, hi := uint32(0), p.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			p.bits[base+node] = true // victim search should go right
			node = 2*node + 1
			hi = mid
		} else {
			p.bits[base+node] = false // victim search should go left
			node = 2*node + 2
			lo = mid
		}
	}
}

// OnHit implements cache.Policy.
func (p *refPLRU) OnHit(set, way uint32, _ mem.Access) { p.touch(set, way) }

// OnFill implements cache.Policy.
func (p *refPLRU) OnFill(set, way uint32, _ mem.Access) { p.touch(set, way) }

// Victim implements cache.Policy: follow the tree bits.
func (p *refPLRU) Victim(set uint32, _ mem.Access) (uint32, bool) {
	base := set * (p.ways - 1)
	node := uint32(0)
	lo, hi := uint32(0), p.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if p.bits[base+node] {
			node = 2*node + 2
			lo = mid
		} else {
			node = 2*node + 1
			hi = mid
		}
	}
	return lo, false
}

// OnEvict implements cache.Policy.
func (p *refPLRU) OnEvict(uint32, uint32) {}

// VictimPath exposes the would-be victim without side effects (tests).
func (p *refPLRU) VictimPath(set uint32) uint32 {
	v, _ := p.Victim(set, mem.Access{})
	return v
}

// XMem [Vijaykumar et al., ISCA'18] adapted to graph analytics as in
// Sec. IV-C of the paper: the PIN-X configurations reserve X% of LLC
// capacity (X% of the ways in every set) for pinning cache blocks from the
// High Reuse Region, identified through the GRASP interface (High-Reuse
// hints). Pinned blocks can never be evicted; the remaining ways are
// managed by the base RRIP scheme. When every way of a set is pinned,
// further misses bypass the cache.
//
// This is the rigid scheme GRASP is contrasted against: on low-skew
// datasets pinned blocks squat on capacity without earning hits, and even
// on high-skew inputs pinning sacrifices the Moderate Reuse Region's
// temporal locality (Sec. V-B).
type refXMem struct {
	meta    *refRRIPMeta
	pinned  []bool
	pinCnt  []uint32 // pinned ways per set
	quota   uint32   // max pinned ways per set
	ways    uint32
	percent int
}

// NewXMem creates a PIN-X policy pinning up to percent% of each set.
func newRefXMem(sets, ways uint32, percent int) *refXMem {
	if percent < 0 || percent > 100 {
		panic(fmt.Sprintf("policy: invalid pin percentage %d", percent))
	}
	return &refXMem{
		meta:    newRefRRIPMeta(sets, ways),
		pinned:  make([]bool, sets*ways),
		pinCnt:  make([]uint32, sets),
		quota:   uint32(uint64(ways) * uint64(percent) / 100),
		ways:    ways,
		percent: percent,
	}
}

var _ cache.Policy = (*refXMem)(nil)

// Quota returns the per-set pinned-way limit.
func (p *refXMem) Quota() uint32 { return p.quota }

// OnHit implements cache.Policy: pinned blocks stay pinned; unpinned blocks
// get the base RRIP promotion.
func (p *refXMem) OnHit(set, way uint32, _ mem.Access) {
	p.meta.Set(set, way, RRPVNear)
}

// OnFill implements cache.Policy: a High-Reuse fill claims a pin slot if
// the set's quota allows; everything else is a base-scheme insertion.
func (p *refXMem) OnFill(set, way uint32, a mem.Access) {
	i := set*p.ways + way
	if p.pinned[i] {
		// The way was freed by Victim only if unpinned; a pinned way can
		// only be refilled after OnEvict cleared it.
		panic("policy: XMem fill into pinned way")
	}
	if a.Hint == mem.HintHigh && p.pinCnt[set] < p.quota {
		p.pinned[i] = true
		p.pinCnt[set]++
		p.meta.Set(set, way, RRPVNear)
		return
	}
	p.meta.Set(set, way, RRPVLong)
}

// Victim implements cache.Policy: base RRIP victim search restricted to
// unpinned ways; if the whole set is pinned the access bypasses.
func (p *refXMem) Victim(set uint32, _ mem.Access) (uint32, bool) {
	if p.pinCnt[set] >= p.ways {
		return 0, true
	}
	base := set * p.ways
	for {
		for w := uint32(0); w < p.ways; w++ {
			if !p.pinned[base+w] && p.meta.Get(set, w) == RRPVMax {
				return w, false
			}
		}
		for w := uint32(0); w < p.ways; w++ {
			if !p.pinned[base+w] {
				if v := p.meta.Get(set, w); v < RRPVMax {
					p.meta.Set(set, w, v+1)
				}
			}
		}
	}
}

// OnEvict implements cache.Policy.
func (p *refXMem) OnEvict(set, way uint32) {
	i := set*p.ways + way
	if p.pinned[i] {
		// Defensive: Victim never selects pinned ways.
		p.pinned[i] = false
		p.pinCnt[set]--
	}
}

// PinnedCount returns the total number of pinned blocks (tests).
func (p *refXMem) PinnedCount() uint64 {
	var n uint64
	for _, c := range p.pinCnt {
		n += uint64(c)
	}
	return n
}

// SHiPMem is the Signature-based Hit Predictor [Wu et al., MICRO'11] in its
// memory-region variant (SHiP-MEM), as evaluated by the paper: because
// PC-based correlation is useless for graph analytics (one PC touches hot
// and cold vertices alike), the signature is the 16KB memory region of the
// block. A Signature History Counter Table (SHCT) of 3-bit saturating
// counters tracks whether blocks from a region tend to be re-referenced;
// per the paper's methodology the table has an unlimited number of entries
// (a map) to assess the scheme's maximum potential.
//
// Insertion: signature predicted zero-reuse -> distant (RRPV max);
// otherwise long (max-1). Hits promote to RRPV 0 and train the SHCT up;
// evictions of never-reused blocks train it down.
type refSHiPMem struct {
	meta *refRRIPMeta
	shct map[uint64]uint8 // region signature -> 3-bit counter
	// Per-block bookkeeping (this is the kind of embedded metadata GRASP
	// avoids, Sec. III-D): the inserting signature and a reused bit.
	sig    []uint64
	reused []bool
	ways   uint32
}

const (
	shipRegionBits = 14 // 16KB regions, as in the original proposal
	shctMax        = 7  // 3-bit saturating counter
	shctInit       = 1  // weakly reused
)

// NewSHiPMem creates a SHiP-MEM policy.
func newRefSHiPMem(sets, ways uint32) *refSHiPMem {
	return &refSHiPMem{
		meta:   newRefRRIPMeta(sets, ways),
		shct:   make(map[uint64]uint8),
		sig:    make([]uint64, sets*ways),
		reused: make([]bool, sets*ways),
		ways:   ways,
	}
}

var _ cache.Policy = (*refSHiPMem)(nil)

func refSignature(addr uint64) uint64 { return addr >> shipRegionBits }

// OnHit implements cache.Policy: promote, mark reused, train up.
func (p *refSHiPMem) OnHit(set, way uint32, _ mem.Access) {
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
func (p *refSHiPMem) OnFill(set, way uint32, a mem.Access) {
	s := refSignature(a.Addr)
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
func (p *refSHiPMem) Victim(set uint32, _ mem.Access) (uint32, bool) {
	return p.meta.Victim(set), false
}

// OnEvict implements cache.Policy: a block evicted without reuse trains its
// signature down.
func (p *refSHiPMem) OnEvict(set, way uint32) {
	i := set*p.ways + way
	if !p.reused[i] {
		if c := p.shct[p.sig[i]]; c > 0 {
			p.shct[p.sig[i]] = c - 1
		}
	}
}

// SHCTSnapshot returns a copy of the signature table (tests/inspection).
func (p *refSHiPMem) SHCTSnapshot() map[uint64]uint8 {
	out := make(map[uint64]uint8, len(p.shct))
	for k, v := range p.shct {
		out[k] = v
	}
	return out
}

// SHiPPC is the original PC-signature variant of SHiP [Wu et al.,
// MICRO'11]. The paper evaluates the memory-region variant instead
// precisely because PC correlation is useless for graph analytics
// (Sec. II-F: one PC accesses hot and cold vertices alike); this
// implementation exists to demonstrate that claim quantitatively — see the
// "ablation" experiment and its test, where SHiP-PC fails to separate the
// Property Array's hot and cold blocks.
type refSHiPPC struct {
	meta   *refRRIPMeta
	shct   map[uint32]uint8
	sig    []uint32
	reused []bool
	ways   uint32
}

// NewSHiPPC creates a SHiP-PC policy.
func newRefSHiPPC(sets, ways uint32) *refSHiPPC {
	return &refSHiPPC{
		meta:   newRefRRIPMeta(sets, ways),
		shct:   make(map[uint32]uint8),
		sig:    make([]uint32, sets*ways),
		reused: make([]bool, sets*ways),
		ways:   ways,
	}
}

var _ cache.Policy = (*refSHiPPC)(nil)

// OnHit implements cache.Policy.
func (p *refSHiPPC) OnHit(set, way uint32, _ mem.Access) {
	p.meta.Set(set, way, RRPVNear)
	i := set*p.ways + way
	if !p.reused[i] {
		p.reused[i] = true
		if c := p.shct[p.sig[i]]; c < shctMax {
			p.shct[p.sig[i]] = c + 1
		}
	}
}

// OnFill implements cache.Policy.
func (p *refSHiPPC) OnFill(set, way uint32, a mem.Access) {
	i := set*p.ways + way
	p.sig[i] = a.PC
	p.reused[i] = false
	c, ok := p.shct[a.PC]
	if !ok {
		c = shctInit
		p.shct[a.PC] = c
	}
	if c == 0 {
		p.meta.Set(set, way, RRPVMax)
	} else {
		p.meta.Set(set, way, RRPVLong)
	}
}

// Victim implements cache.Policy.
func (p *refSHiPPC) Victim(set uint32, _ mem.Access) (uint32, bool) {
	return p.meta.Victim(set), false
}

// OnEvict implements cache.Policy.
func (p *refSHiPPC) OnEvict(set, way uint32) {
	i := set*p.ways + way
	if !p.reused[i] {
		if c := p.shct[p.sig[i]]; c > 0 {
			p.shct[p.sig[i]] = c - 1
		}
	}
}

// SHCTSnapshot returns a copy of the signature table (tests/inspection).
func (p *refSHiPPC) SHCTSnapshot() map[uint32]uint8 {
	out := make(map[uint32]uint8, len(p.shct))
	for k, v := range p.shct {
		out[k] = v
	}
	return out
}

// Hawkeye [Jain & Lin, ISCA'16] learns from Belady's optimal algorithm:
// a sampler replays recent accesses to a subset of sets through OPTgen to
// decide whether OPT *would have* cached each block, and trains a PC-indexed
// predictor accordingly. Predicted cache-friendly blocks insert at RRPV 0
// and age gradually; predicted cache-averse blocks insert at distant RRPV
// and — crucially for the paper's analysis — are demoted rather than
// promoted when they hit, which is why Hawkeye underperforms on graph
// analytics: hot and cold vertices share the PC, the predictor settles on
// cache-averse, and hits to hot vertices get thrown away (Sec. V-A).
type refHawkeye struct {
	meta *refRRIPMeta
	ways uint32

	// Per-block state (the storage-intensive metadata GRASP avoids).
	insertPC []uint32
	friendly []bool

	// PC predictor: 3-bit saturating counters.
	pred map[uint32]uint8

	// OPTgen sampler state for sampled sets.
	samplers map[uint32]*refOptgenSet
}

const (
	hawkeyeSampleEvery = 8   // sample every 8th set
	optgenWindow       = 128 // time quanta tracked per sampled set
	hawkeyePredMax     = 7
	hawkeyePredInit    = 4 // weakly cache-friendly
)

type refOptgenSet struct {
	clock     uint64
	occupancy [optgenWindow]uint8
	last      map[uint64]refOptgenEntry // block -> last access
	capacity  uint8
}

type refOptgenEntry struct {
	t  uint64
	pc uint32
}

// NewHawkeye creates a Hawkeye policy.
func newRefHawkeye(sets, ways uint32) *refHawkeye {
	return &refHawkeye{
		meta:     newRefRRIPMeta(sets, ways),
		ways:     ways,
		insertPC: make([]uint32, sets*ways),
		friendly: make([]bool, sets*ways),
		pred:     make(map[uint32]uint8),
		samplers: make(map[uint32]*refOptgenSet),
	}
}

var _ cache.Policy = (*refHawkeye)(nil)
var _ cache.AccessObserver = (*refHawkeye)(nil)

func (p *refHawkeye) predictFriendly(pc uint32) bool {
	c, ok := p.pred[pc]
	if !ok {
		return hawkeyePredInit >= 4
	}
	return c >= 4
}

func (p *refHawkeye) train(pc uint32, up bool) {
	c, ok := p.pred[pc]
	if !ok {
		c = hawkeyePredInit
	}
	if up {
		if c < hawkeyePredMax {
			c++
		}
	} else if c > 0 {
		c--
	}
	p.pred[pc] = c
}

// ObserveAccess implements cache.AccessObserver: feed the OPTgen sampler.
// The set index is derived exactly as the cache derives it; only sampled
// sets carry sampler state.
func (p *refHawkeye) ObserveAccess(a mem.Access) {
	block := cache.BlockAddr(a.Addr)
	nsets := uint32(len(p.meta.rrpv)) / p.ways
	set := uint32(block & uint64(nsets-1))
	if set%hawkeyeSampleEvery != 0 {
		return
	}
	s, ok := p.samplers[set]
	if !ok {
		s = &refOptgenSet{last: make(map[uint64]refOptgenEntry), capacity: uint8(p.ways)}
		p.samplers[set] = s
	}
	now := s.clock
	s.occupancy[now%optgenWindow] = 0
	if e, seen := s.last[block]; seen {
		age := now - e.t
		if age > 0 && age < optgenWindow {
			// Would OPT have kept the block across [e.t, now)?
			fits := true
			for t := e.t; t < now; t++ {
				if s.occupancy[t%optgenWindow] >= s.capacity {
					fits = false
					break
				}
			}
			if fits {
				for t := e.t; t < now; t++ {
					s.occupancy[t%optgenWindow]++
				}
			}
			p.train(e.pc, fits)
		} else if age >= optgenWindow {
			// Interval longer than the sampler window: OPT would not
			// have kept it within observable history.
			p.train(e.pc, false)
		}
	}
	s.last[block] = refOptgenEntry{t: now, pc: a.PC}
	s.clock++
	// Bound the history map: drop entries older than the window.
	if len(s.last) > 4*optgenWindow {
		for b, e := range s.last {
			if now-e.t >= optgenWindow {
				delete(s.last, b)
			}
		}
	}
}

// OnHit implements cache.Policy.
func (p *refHawkeye) OnHit(set, way uint32, a mem.Access) {
	i := set*p.ways + way
	if p.predictFriendly(a.PC) {
		p.meta.Set(set, way, RRPVNear)
		p.friendly[i] = true
	} else {
		// Cache-averse prediction: prioritize for eviction even on a hit.
		p.meta.Set(set, way, RRPVMax)
		p.friendly[i] = false
	}
	p.insertPC[i] = a.PC
}

// OnFill implements cache.Policy.
func (p *refHawkeye) OnFill(set, way uint32, a mem.Access) {
	i := set*p.ways + way
	p.insertPC[i] = a.PC
	if p.predictFriendly(a.PC) {
		p.friendly[i] = true
		p.meta.Set(set, way, RRPVNear)
		// Age the other cache-friendly blocks so that old friendly blocks
		// eventually become evictable.
		base := set * p.ways
		for w := uint32(0); w < p.ways; w++ {
			if w == way {
				continue
			}
			j := base + w
			if p.friendly[j] {
				if v := p.meta.Get(set, w); v < RRPVLong {
					p.meta.Set(set, w, v+1)
				}
			}
		}
	} else {
		p.friendly[i] = false
		p.meta.Set(set, way, RRPVMax)
	}
}

// Victim implements cache.Policy: evict a cache-averse block (RRPV max) if
// one exists, otherwise the oldest cache-friendly block; evicting a
// friendly block is evidence of a misprediction, so its PC is detrained.
func (p *refHawkeye) Victim(set uint32, _ mem.Access) (uint32, bool) {
	base := set * p.ways
	for w := uint32(0); w < p.ways; w++ {
		if p.meta.Get(set, w) == RRPVMax {
			return w, false
		}
	}
	best := uint32(0)
	for w := uint32(1); w < p.ways; w++ {
		if p.meta.Get(set, w) > p.meta.Get(set, best) {
			best = w
		}
	}
	p.train(p.insertPC[base+best], false)
	return best, false
}

// OnEvict implements cache.Policy.
func (p *refHawkeye) OnEvict(uint32, uint32) {}

// PredictorSnapshot returns a copy of the PC predictor (tests/inspection).
func (p *refHawkeye) PredictorSnapshot() map[uint32]uint8 {
	out := make(map[uint32]uint8, len(p.pred))
	for k, v := range p.pred {
		out[k] = v
	}
	return out
}

// Leeway [Faldu & Grot, PACT'17] is a dead-block predictor built on the
// Live Distance metric: the deepest LRU-stack position at which a block
// receives a hit during its residency. A PC-indexed table predicts each
// block's live distance at fill time; a block whose stack position exceeds
// its predicted live distance is considered dead and becomes the preferred
// victim. Two table-update policies with different aggressiveness are
// selected by set dueling (Leeway's "reuse-aware" adaptive policies):
//
//   - NRU-friendly (conservative): grow predictions immediately to the
//     observed live distance, shrink only after repeated smaller
//     observations — conservative in declaring blocks dead.
//   - MRU-friendly (aggressive): shrink immediately, grow with hysteresis.
//
// The conservative variant keeps Leeway's behaviour close to the base
// replacement scheme under variable reuse — exactly the property the paper
// credits for Leeway avoiding large slowdowns on graph analytics.
type refLeeway struct {
	// rank holds each block's recency-stack position (0 = MRU),
	// maintained incrementally: promoting a block to MRU shifts every
	// more-recent block down one. This replaces a timestamp array whose
	// rank queries cost an O(ways) scan each — Victim needed one per way,
	// making every miss O(ways²) in the simulator's hottest loop.
	// Untouched ways carry garbage ranks (never read: ranks are only
	// queried for resident blocks); touchedCnt seeds a first fill's
	// starting rank, since every already-resident block is by definition
	// more recent than a block that was never filled.
	rank       []uint8
	touched    []bool
	touchedCnt []uint8 // per set
	ways       uint32

	ld        []uint8 // predicted live distance per block
	maxHitPos []uint8 // deepest stack position hit so far (0xff = no hit)
	pc        []uint32
	// entry caches table[pc[i]] per block, so hits and evictions skip the
	// map. It is taken at fill and re-looked-up while nil, because the
	// block's PC may get its first entry after the fill; an entry, once
	// made, is never replaced.
	entry []*refLDEntry

	table map[uint32]*refLDEntry
	psel  int32

	// base provides the underlying thrash-resistant replacement scheme:
	// when no block is predicted dead, Leeway behaves exactly like its
	// base (the paper evaluates Leeway against an RRIP baseline and finds
	// it tracks the base closely; a plain-LRU fallback would instead
	// forfeit RRIP's thrash resistance entirely).
	base *refDRRIP
}

type refLDEntry struct {
	ld       uint8
	downVote uint8 // hysteresis for the conservative policy
	upVote   uint8 // hysteresis for the aggressive policy
}

const (
	noHit = 0xff
	// ldHysteresis controls how many successive smaller observations are
	// needed before a prediction shrinks under the conservative policy
	// (and grows under the aggressive one). A large value keeps Leeway's
	// behaviour close to the base scheme under variable reuse — the
	// property Sec. V-A credits for Leeway avoiding blowups on graphs.
	ldHysteresis = 8
	// leewayPselInit biases the duel toward the conservative policy until
	// there is sustained evidence the aggressive one is safe.
	leewayPselInit = 256
)

// NewLeeway creates a Leeway policy.
func newRefLeeway(sets, ways uint32) *refLeeway {
	n := sets * ways
	l := &refLeeway{
		rank:       make([]uint8, n),
		touched:    make([]bool, n),
		touchedCnt: make([]uint8, sets),
		ways:       ways,
		ld:         make([]uint8, n),
		maxHitPos:  make([]uint8, n),
		pc:         make([]uint32, n),
		entry:      make([]*refLDEntry, n),
		table:      make(map[uint32]*refLDEntry),
		psel:       leewayPselInit,
		base:       newRefDRRIP(sets, ways),
	}
	for i := range l.maxHitPos {
		l.maxHitPos[i] = noHit
	}
	return l
}

var _ cache.Policy = (*refLeeway)(nil)

// stackPos returns the recency rank of a resident block (0 = MRU).
func (p *refLeeway) stackPos(set, way uint32) uint8 {
	return p.rank[set*p.ways+way]
}

// promote moves way to MRU: blocks above its old position shift down one.
// A first-time fill starts below every already-resident block.
//
// Every rank, garbage ones included, stays below ways, so when ways is a
// multiple of 8 under 128 the ranks update as little-endian words, eight
// bytes at a time: per byte, the high bit of (x|0x80) - old is set exactly
// when x >= old, and every other byte gets +1. Neither the subtraction
// nor the increment can carry across a byte.
func (p *refLeeway) promote(set, way uint32) {
	base := set * p.ways
	i := base + way
	var old uint8
	if p.touched[i] {
		old = p.rank[i]
	} else {
		p.touched[i] = true
		old = p.touchedCnt[set]
		p.touchedCnt[set]++
	}
	r := p.rank[base : base+p.ways : base+p.ways]
	if p.ways%8 == 0 && p.ways < 128 {
		const ones, highs = 0x0101010101010101, 0x8080808080808080
		olds := uint64(old) * ones
		for w := 0; w < len(r); w += 8 {
			x := binary.LittleEndian.Uint64(r[w:])
			ge := ((x | highs) - olds) & highs
			binary.LittleEndian.PutUint64(r[w:], x+(^ge&highs)>>7)
		}
	} else {
		for w := range r {
			if r[w] < old {
				r[w]++
			}
		}
	}
	r[way] = 0
}

// entryOf returns block i's live-distance table entry, or nil while its
// PC has none.
func (p *refLeeway) entryOf(i uint32) *refLDEntry {
	e := p.entry[i]
	if e == nil {
		e = p.table[p.pc[i]]
		p.entry[i] = e
	}
	return e
}

// OnHit implements cache.Policy: record the live distance sample, promote,
// and grow the predictor immediately when a hit lands deeper than the
// current prediction. Training on hits (not only evictions) prevents the
// self-fulfilling spiral where a PC seeded with a small live distance has
// its blocks evicted before they can demonstrate deeper reuse.
func (p *refLeeway) OnHit(set, way uint32, _ mem.Access) {
	i := set*p.ways + way
	pos := p.stackPos(set, way) // position at hit time, before promotion
	if p.maxHitPos[i] == noHit || pos > p.maxHitPos[i] {
		p.maxHitPos[i] = pos
	}
	if e := p.entryOf(i); e != nil && pos > e.ld {
		e.ld = pos
		e.downVote = 0
	}
	// The block itself is no longer dead at its new position.
	if pos > p.ld[i] {
		p.ld[i] = pos
	}
	p.promote(set, way)
	p.base.OnHit(set, way, mem.Access{})
}

// OnFill implements cache.Policy: look up the predicted live distance.
func (p *refLeeway) OnFill(set, way uint32, a mem.Access) {
	i := set*p.ways + way
	p.promote(set, way)
	p.maxHitPos[i] = noHit
	p.pc[i] = a.PC
	e := p.table[a.PC]
	p.entry[i] = e
	if e != nil {
		p.ld[i] = e.ld
	} else {
		p.ld[i] = uint8(p.ways - 1) // unknown PC: maximally conservative
	}
	p.base.OnFill(set, way, a)
}

func (p *refLeeway) leader(set uint32) int {
	switch set % duelPeriod {
	case 0:
		return +1 // conservative leader
	case duelPeriod / 2:
		return -1 // aggressive leader
	}
	return 0
}

// Victim implements cache.Policy: prefer the dead block deepest in the
// stack; if no block is predicted dead, fall back to the base scheme.
// Victim is only invoked on full sets, so every way's rank is live.
func (p *refLeeway) Victim(set uint32, a mem.Access) (uint32, bool) {
	base := set * p.ways
	ranks := p.rank[base : base+p.ways : base+p.ways]
	bestDead, bestDeadPos := int32(-1), uint8(0)
	for w, pos := range ranks {
		if pos > p.ld[base+uint32(w)] && pos >= bestDeadPos {
			// Dead: deeper than its live distance.
			bestDead, bestDeadPos = int32(w), pos
		}
	}
	if bestDead >= 0 {
		return uint32(bestDead), false
	}
	return p.base.Victim(set, a)
}

// OnEvict implements cache.Policy: train the live-distance table with the
// observed live distance of the evicted block.
func (p *refLeeway) OnEvict(set, way uint32) {
	i := set*p.ways + way
	observed := uint8(0)
	if p.maxHitPos[i] != noHit {
		observed = p.maxHitPos[i]
	}
	e := p.entryOf(i)
	if e == nil {
		// First observation for this PC seeds the predictor directly.
		p.table[p.pc[i]] = &refLDEntry{ld: observed}
		p.maxHitPos[i] = noHit
		return
	}
	conservative := p.psel >= 0
	switch p.leader(set) {
	case +1:
		conservative = true
		// A miss-driven eviction in a conservative leader that kept a dead
		// block too long votes for the aggressive policy.
		if observed == 0 && e.ld > 0 && p.psel > -pselMax {
			p.psel--
		}
	case -1:
		conservative = false
		if observed > e.ld && p.psel < pselMax {
			p.psel++
		}
	}
	if conservative {
		// Grow fast, shrink with hysteresis.
		if observed >= e.ld {
			e.ld = observed
			e.downVote = 0
		} else {
			e.downVote++
			if e.downVote >= ldHysteresis {
				e.ld--
				e.downVote = 0
			}
		}
	} else {
		// Shrink fast, grow with hysteresis.
		if observed <= e.ld {
			e.ld = observed
			e.upVote = 0
		} else {
			e.upVote++
			if e.upVote >= ldHysteresis {
				e.ld++
				e.upVote = 0
			}
		}
	}
	// Reset per-block state; the way is about to be refilled.
	p.maxHitPos[i] = noHit
}

// TableSnapshot returns the predicted live distance per PC (tests).
func (p *refLeeway) TableSnapshot() map[uint32]uint8 {
	out := make(map[uint32]uint8, len(p.table))
	for k, v := range p.table {
		out[k] = v.ld
	}
	return out
}

// Policy is GRASP's specialized cache policy over an unmodified DRRIP base
// (Table II). Eviction is the base scheme's — GRASP deliberately does not
// consult hints at replacement time, which both keeps stale High-Reuse
// blocks evictable and avoids storing the hint in LLC metadata.
type refGRASP struct {
	base *refDRRIP
	mode Mode
}

// NewPolicy creates a GRASP policy with the given feature set.
func newRefGRASP(sets, ways uint32, mode Mode) *refGRASP {
	return &refGRASP{base: newRefDRRIP(sets, ways), mode: mode}
}

var _ cache.Policy = (*refGRASP)(nil)

// OnHit implements cache.Policy (Table II, Hit Policy column).
func (p *refGRASP) OnHit(set, way uint32, a mem.Access) {
	meta := p.base.Meta()
	switch a.Hint {
	case mem.HintHigh:
		meta.Set(set, way, RRPVNear)
	case mem.HintModerate, mem.HintLow:
		if p.mode == ModeFull {
			// Gradual promotion toward MRU on every hit.
			if v := meta.Get(set, way); v > 0 {
				meta.Set(set, way, v-1)
			}
		} else {
			p.base.OnHit(set, way, a) // base RRIP promotion (RRPV = 0)
		}
	default:
		p.base.OnHit(set, way, a)
	}
}

// OnFill implements cache.Policy (Table II, Insertion Policy column).
func (p *refGRASP) OnFill(set, way uint32, a mem.Access) {
	meta := p.base.Meta()
	if p.mode == ModeHintsOnly {
		// RRIP+Hints: hint-guided choice between RRIP's two insertion
		// positions only.
		switch a.Hint {
		case mem.HintHigh:
			meta.Set(set, way, RRPVLong)
		case mem.HintModerate, mem.HintLow:
			meta.Set(set, way, RRPVMax)
		default:
			p.base.OnFill(set, way, a)
		}
		return
	}
	switch a.Hint {
	case mem.HintHigh:
		meta.Set(set, way, RRPVNear) // MRU position
	case mem.HintModerate:
		meta.Set(set, way, RRPVLong) // near LRU
	case mem.HintLow:
		meta.Set(set, way, RRPVMax) // LRU: immediate candidate
	default:
		p.base.OnFill(set, way, a) // base scheme's dueling insertion
	}
}

// Victim implements cache.Policy: unmodified base eviction (Sec. III-C,
// "Eviction Policy ... is unmodified from the baseline scheme").
func (p *refGRASP) Victim(set uint32, a mem.Access) (uint32, bool) {
	return p.base.Victim(set, a)
}

// OnEvict implements cache.Policy.
func (p *refGRASP) OnEvict(set, way uint32) { p.base.OnEvict(set, way) }

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
type refLRUPolicy struct {
	// order[set] lists ways from MRU (index 0) to LRU (index ways-1).
	order [][]uint8
	ways  uint32
}

// NewLRUPolicy creates a GRASP-over-LRU policy.
func newRefLRUPolicy(sets, ways uint32) *refLRUPolicy {
	p := &refLRUPolicy{order: make([][]uint8, sets), ways: ways}
	for s := range p.order {
		p.order[s] = make([]uint8, ways)
		for w := range p.order[s] {
			p.order[s][w] = uint8(w)
		}
	}
	return p
}

var _ cache.Policy = (*refLRUPolicy)(nil)

// position returns the stack index of way in set (0 = MRU).
func (p *refLRUPolicy) position(set uint32, way uint8) int {
	for i, w := range p.order[set] {
		if w == way {
			return i
		}
	}
	panic("core: way missing from recency stack")
}

// moveTo relocates way to stack index target.
func (p *refLRUPolicy) moveTo(set uint32, way uint8, target int) {
	st := p.order[set]
	cur := p.position(set, way)
	if cur == target {
		return
	}
	if cur < target {
		copy(st[cur:], st[cur+1:target+1])
	} else {
		copy(st[target+1:cur+1], st[target:cur])
	}
	st[target] = way
}

// OnHit implements cache.Policy.
func (p *refLRUPolicy) OnHit(set, way uint32, a mem.Access) {
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
func (p *refLRUPolicy) OnFill(set, way uint32, a mem.Access) {
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
func (p *refLRUPolicy) Victim(set uint32, _ mem.Access) (uint32, bool) {
	return uint32(p.order[set][p.ways-1]), false
}

// OnEvict implements cache.Policy.
func (p *refLRUPolicy) OnEvict(uint32, uint32) {}

// StackOrder returns a copy of the recency stack of a set (tests).
func (p *refLRUPolicy) StackOrder(set uint32) []uint8 {
	return append([]uint8(nil), p.order[set]...)
}

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
type refPLRUPolicy struct {
	base *refPLRU
	// hitParity implements "promote on every second hit" for Moderate/Low
	// blocks without per-block metadata (a single global toggle, in the
	// spirit of GRASP's negligible hardware cost).
	hitParity bool
}

// NewPLRUPolicy creates GRASP over tree-PLRU.
func newRefPLRUPolicy(sets, ways uint32) *refPLRUPolicy {
	return &refPLRUPolicy{base: newRefPLRU(sets, ways)}
}

var _ cache.Policy = (*refPLRUPolicy)(nil)

// OnHit implements cache.Policy.
func (p *refPLRUPolicy) OnHit(set, way uint32, a mem.Access) {
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
func (p *refPLRUPolicy) OnFill(set, way uint32, a mem.Access) {
	switch a.Hint {
	case mem.HintModerate, mem.HintLow:
		// Do not touch: the tree still points at this way, making it an
		// immediate replacement candidate (the LRU-insertion analogue).
	default:
		p.base.OnFill(set, way, a)
	}
}

// Victim implements cache.Policy: unmodified PLRU eviction.
func (p *refPLRUPolicy) Victim(set uint32, a mem.Access) (uint32, bool) {
	return p.base.Victim(set, a)
}

// OnEvict implements cache.Policy.
func (p *refPLRUPolicy) OnEvict(set, way uint32) { p.base.OnEvict(set, way) }

// DIPPolicy is GRASP over DIP: the Default class keeps DIP's dueling
// insertion, while hinted classes are steered exactly like GRASP-LRU
// (DIP's base is an LRU stack). Implemented by composing the explicit
// recency stack of LRUPolicy for hinted accesses with a BIP-style bimodal
// default insertion.
type refDIPPolicy struct {
	stack   *refLRUPolicy
	counter uint64
	psel    int32
	sets    uint32
}

// NewDIPPolicy creates GRASP over DIP.
func newRefDIPPolicy(sets, ways uint32) *refDIPPolicy {
	return &refDIPPolicy{stack: newRefLRUPolicy(sets, ways), sets: sets}
}

var _ cache.Policy = (*refDIPPolicy)(nil)

// OnHit implements cache.Policy: hinted behaviour as in GRASP-LRU.
func (p *refDIPPolicy) OnHit(set, way uint32, a mem.Access) { p.stack.OnHit(set, way, a) }

const dipDuelPeriod = 32

func (p *refDIPPolicy) leader(set uint32) int {
	period := uint32(dipDuelPeriod)
	if p.sets < period {
		period = p.sets
	}
	switch set % period {
	case 0:
		return +1
	case period / 2:
		return -1
	}
	return 0
}

// OnFill implements cache.Policy.
func (p *refDIPPolicy) OnFill(set, way uint32, a mem.Access) {
	if a.Hint != mem.HintDefault {
		p.stack.OnFill(set, way, a)
		return
	}
	// DIP dueling for unhinted fills: LRU insertion vs bimodal insertion.
	useLRUIns := p.psel >= 0
	switch p.leader(set) {
	case +1:
		useLRUIns = true
		if p.psel > -1024 {
			p.psel--
		}
	case -1:
		useLRUIns = false
		if p.psel < 1024 {
			p.psel++
		}
	}
	if useLRUIns {
		p.stack.OnFill(set, way, mem.Access{Hint: mem.HintDefault}) // MRU
		return
	}
	p.counter++
	if p.counter%32 == 0 {
		p.stack.OnFill(set, way, mem.Access{Hint: mem.HintDefault}) // MRU
	} else {
		p.stack.OnFill(set, way, mem.Access{Hint: mem.HintLow}) // LRU position
	}
}

// Victim implements cache.Policy: LRU-stack bottom, hint-blind.
func (p *refDIPPolicy) Victim(set uint32, a mem.Access) (uint32, bool) {
	return p.stack.Victim(set, a)
}

// OnEvict implements cache.Policy.
func (p *refDIPPolicy) OnEvict(set, way uint32) { p.stack.OnEvict(set, way) }
