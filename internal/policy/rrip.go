// Package policy implements the LLC replacement policies evaluated in the
// paper: the history-agnostic RRIP family (SRRIP/BRRIP/DRRIP) that GRASP
// builds on, the history-based predictive schemes SHiP (memory-region or
// PC signature), Hawkeye and Leeway, the pinning-based XMem (PIN-X), DIP,
// and the offline Belady OPT upper bound. DRRIP, DIP and GRASP-DIP choose
// their fills through one set-dueling selector, Duel, and count bimodal
// fills with one Bimodal type, as BRRIP does. Policies carry no names:
// internal/sim's registry is the one table that names them.
package policy

import (
	"encoding/binary"
	"math/bits"

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
type RRIPMeta struct {
	rrpv []uint8
	ways uint32
}

// NewRRIPMeta allocates RRPV state for sets x ways blocks, initialized to
// distant (empty ways are filled before Victim is ever called, so initial
// values only matter for determinism).
func NewRRIPMeta(sets, ways uint32) *RRIPMeta {
	m := &RRIPMeta{rrpv: make([]uint8, sets*ways), ways: ways}
	for i := range m.rrpv {
		m.rrpv[i] = RRPVMax
	}
	return m
}

// Get returns the RRPV of set/way.
func (m *RRIPMeta) Get(set, way uint32) uint8 { return m.rrpv[set*m.ways+way] }

// Set assigns the RRPV of set/way.
func (m *RRIPMeta) Set(set, way uint32, v uint8) { m.rrpv[set*m.ways+way] = v }

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
func (m *RRIPMeta) Victim(set uint32) uint32 {
	r := m.row(set)
	if len(r)%8 != 0 {
		return victimScalar(r)
	}
	for v := RRPVMax; v >= 0; v-- {
		for k := 0; k < len(r); k += 8 {
			y := binary.LittleEndian.Uint64(r[k:]) ^ uint64(v)*ones
			held := ^(y + lo7) & highs // top bit of every byte whose way holds v
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
func victimScalar(r []uint8) uint32 {
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

// row returns set's RRPVs, one byte per way.
func (m *RRIPMeta) row(set uint32) []uint8 {
	base := set * m.ways
	return m.rrpv[base : base+m.ways : base+m.ways]
}

const (
	ones  = 0x0101010101010101
	lo7   = 0x7f7f7f7f7f7f7f7f
	highs = 0x8080808080808080
)

// maxWay returns the first way of RRPV row r that holds the row's maximum,
// and that maximum, ignoring every way whose byte in skip is 0xff (XMem's
// pinned ways). skip is nil or as long as r, its bytes 0 or 0xff, and at
// least one way must be searchable. It searches as Victim does, eight ways
// per word when the associativity allows, but leaves the row unaged.
func maxWay(r, skip []uint8) (uint32, uint8) {
	if len(r)%8 != 0 {
		best, maxv := -1, uint8(0)
		for w, v := range r {
			if (skip == nil || skip[w] == 0) && (best < 0 || v > maxv) {
				best, maxv = w, v
			}
		}
		return uint32(best), maxv
	}
	for v := RRPVMax; v >= 0; v-- {
		for k := 0; k < len(r); k += 8 {
			y := binary.LittleEndian.Uint64(r[k:]) ^ uint64(v)*ones
			held := ^(y + lo7) & highs
			if skip != nil {
				held &^= binary.LittleEndian.Uint64(skip[k:])
			}
			if held != 0 {
				return uint32(k + bits.TrailingZeros64(held)/8), uint8(v)
			}
		}
	}
	panic("policy: RRPV above RRPVMax")
}

// SRRIP is Static RRIP [Jaleel et al., ISCA'10]: insert at "long" (max-1),
// promote to 0 on hit (hit-priority variant).
type SRRIP struct {
	meta *RRIPMeta
}

// NewSRRIP creates an SRRIP policy.
func NewSRRIP(sets, ways uint32) *SRRIP {
	return &SRRIP{meta: NewRRIPMeta(sets, ways)}
}

// OnHit implements cache.Policy.
func (p *SRRIP) OnHit(set, way uint32, _ mem.Access) { p.meta.Set(set, way, RRPVNear) }

// OnFill implements cache.Policy.
func (p *SRRIP) OnFill(set, way uint32, _ mem.Access) { p.meta.Set(set, way, RRPVLong) }

// Victim implements cache.Policy.
func (p *SRRIP) Victim(set uint32, _ mem.Access) (uint32, bool) { return p.meta.Victim(set), false }

// OnEvict implements cache.Policy.
func (p *SRRIP) OnEvict(uint32, uint32) {}

// BRRIP is Bimodal RRIP: insert at distant (max) with high probability and
// at long (max-1) infrequently (1/32), providing thrash resistance.
type BRRIP struct {
	meta *RRIPMeta
	bip  Bimodal
}

// NewBRRIP creates a BRRIP policy.
func NewBRRIP(sets, ways uint32) *BRRIP {
	return &BRRIP{meta: NewRRIPMeta(sets, ways)}
}

// OnHit implements cache.Policy.
func (p *BRRIP) OnHit(set, way uint32, _ mem.Access) { p.meta.Set(set, way, RRPVNear) }

// OnFill implements cache.Policy.
func (p *BRRIP) OnFill(set, way uint32, _ mem.Access) {
	if p.bip.Next() {
		p.meta.Set(set, way, RRPVLong)
	} else {
		p.meta.Set(set, way, RRPVMax)
	}
}

// Victim implements cache.Policy.
func (p *BRRIP) Victim(set uint32, _ mem.Access) (uint32, bool) { return p.meta.Victim(set), false }

// OnEvict implements cache.Policy.
func (p *BRRIP) OnEvict(uint32, uint32) {}

// Bimodal counts the fills of a bimodal insertion policy (BRRIP, and
// DIP's BIP): one fill in brripEpsilon (32) inserts as the static policy
// would, every other fill inserts at the distant end.
type Bimodal uint64

// Next counts one bimodal fill and reports whether it is the one in 32
// that inserts as the static policy would.
func (b *Bimodal) Next() bool {
	*b++
	return *b%brripEpsilon == 0
}

const (
	duelPeriod = 32
	pselMax    = 512 // DRRIP's and DIP's PSEL bound
)

// DuelLeader returns the set-dueling role of set in a cache of sets sets,
// as used by Duel: +1 for a leader of the first policy, -1 for a leader of
// the second, 0 for a follower. Every period-th set leads the first policy
// and the sets offset by period/2 lead the second, where the period is 32
// or the set count if that is smaller. So a 2-set cache has one leader of
// each kind and no follower, and a 1-set cache's only set leads the first
// policy: it has no leader of the second, and its selector can only move
// toward the second.
func DuelLeader(set, sets uint32) int {
	period := uint32(duelPeriod)
	if sets < period {
		period = sets
	}
	switch set % period {
	case 0:
		return +1
	case period / 2:
		return -1
	}
	return 0
}

// Duel is the set-dueling policy selector [Qureshi et al., ISCA'07] that
// DRRIP, DIP and GRASP-DIP decide their fills by: a saturating counter
// (PSEL) in [-bound, bound], starting at 0, that every miss in a leader
// set moves toward the other policy.
type Duel struct {
	sets  uint32
	bound int32
	psel  int32 // >= 0 prefers the first policy
}

// NewDuel returns a selector for a cache of sets sets whose PSEL
// saturates at ±bound.
func NewDuel(sets uint32, bound int32) Duel { return Duel{sets: sets, bound: bound} }

// First reports whether a fill in set uses the first policy. Leader sets
// use their fixed policy and their miss trains PSEL toward the other;
// followers use the policy PSEL prefers.
func (d *Duel) First(set uint32) bool {
	switch DuelLeader(set, d.sets) {
	case +1:
		if d.psel > -d.bound {
			d.psel-- // miss in a first-policy leader: vote for the second
		}
		return true
	case -1:
		if d.psel < d.bound {
			d.psel++ // miss in a second-policy leader: vote for the first
		}
		return false
	}
	return d.psel >= 0
}

// DRRIP is Dynamic RRIP: set dueling between SRRIP and BRRIP insertion.
// This is the "RRIP" baseline of the paper's evaluation (Sec. IV-C cites
// the CRC DRRIP source).
type DRRIP struct {
	meta *RRIPMeta
	duel Duel // first policy SRRIP, second BRRIP
	bip  Bimodal
}

// NewDRRIP creates a DRRIP policy.
func NewDRRIP(sets, ways uint32) *DRRIP {
	return &DRRIP{meta: NewRRIPMeta(sets, ways), duel: NewDuel(sets, pselMax)}
}

// OnHit implements cache.Policy.
func (p *DRRIP) OnHit(set, way uint32, _ mem.Access) { p.meta.Set(set, way, RRPVNear) }

// OnFill implements cache.Policy: SRRIP or BRRIP insertion, as the duel
// decides.
func (p *DRRIP) OnFill(set, way uint32, _ mem.Access) {
	if p.duel.First(set) || p.bip.Next() {
		p.meta.Set(set, way, RRPVLong)
	} else {
		p.meta.Set(set, way, RRPVMax)
	}
}

// Victim implements cache.Policy.
func (p *DRRIP) Victim(set uint32, _ mem.Access) (uint32, bool) { return p.meta.Victim(set), false }

// OnEvict implements cache.Policy.
func (p *DRRIP) OnEvict(uint32, uint32) {}

// Meta exposes the RRPV state for policies and tests layered on DRRIP.
func (p *DRRIP) Meta() *RRIPMeta { return p.meta }
