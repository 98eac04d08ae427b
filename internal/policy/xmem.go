package policy

import (
	"encoding/binary"
	"fmt"

	"grasp/internal/cache"
	"grasp/internal/mem"
)

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
type XMem struct {
	meta *RRIPMeta
	// pinned is 0xff for a pinned way and 0 otherwise, so it doubles as
	// the byte mask the RRIP victim search and aging skip.
	pinned []uint8
	pinCnt []uint32 // pinned ways per set
	quota  uint32   // max pinned ways per set
	ways   uint32
}

// NewXMem creates a PIN-X policy pinning up to percent% of each set.
func NewXMem(sets, ways uint32, percent int) *XMem {
	if percent < 0 || percent > 100 {
		panic(fmt.Sprintf("policy: invalid pin percentage %d", percent))
	}
	return &XMem{
		meta:   NewRRIPMeta(sets, ways),
		pinned: make([]uint8, sets*ways),
		pinCnt: make([]uint32, sets),
		quota:  uint32(uint64(ways) * uint64(percent) / 100),
		ways:   ways,
	}
}

var _ cache.Policy = (*XMem)(nil)

// Quota returns the per-set pinned-way limit.
func (p *XMem) Quota() uint32 { return p.quota }

// OnHit implements cache.Policy: pinned blocks stay pinned; unpinned blocks
// get the base RRIP promotion.
func (p *XMem) OnHit(set, way uint32, _ mem.Access) {
	p.meta.Set(set, way, RRPVNear)
}

// OnFill implements cache.Policy: a High-Reuse fill claims a pin slot if
// the set's quota allows; everything else is a base-scheme insertion.
func (p *XMem) OnFill(set, way uint32, a mem.Access) {
	i := set*p.ways + way
	if p.pinned[i] != 0 {
		// The way was freed by Victim only if unpinned; a pinned way can
		// only be refilled after OnEvict cleared it.
		panic("policy: XMem fill into pinned way")
	}
	if a.Hint == mem.HintHigh && p.pinCnt[set] < p.quota {
		p.pinned[i] = 0xff
		p.pinCnt[set]++
		p.meta.Set(set, way, RRPVNear)
		return
	}
	p.meta.Set(set, way, RRPVLong)
}

// Victim implements cache.Policy: base RRIP victim search restricted to
// unpinned ways; if the whole set is pinned the access bypasses. Like
// RRIPMeta.Victim it finds the first unpinned way holding the unpinned
// ways' maximum RRPV and ages only the unpinned ways, once, by the delta
// the literal search-and-age loop would apply one step at a time.
func (p *XMem) Victim(set uint32, _ mem.Access) (uint32, bool) {
	if p.pinCnt[set] >= p.ways {
		return 0, true
	}
	base := set * p.ways
	r := p.meta.row(set)
	pinned := p.pinned[base : base+p.ways : base+p.ways]
	w, v := maxWay(r, pinned)
	if v < RRPVMax {
		ageUnpinned(r, pinned, RRPVMax-v)
	}
	return w, false
}

// ageUnpinned adds delta to the RRPV of every way of r whose pinned byte is
// zero. No aged RRPV may exceed RRPVMax, so the eight-way form's byte
// additions never carry.
func ageUnpinned(r, pinned []uint8, delta uint8) {
	if len(r)%8 != 0 {
		for w := range r {
			if pinned[w] == 0 {
				r[w] += delta
			}
		}
		return
	}
	d := uint64(delta) * ones
	for k := 0; k < len(r); k += 8 {
		binary.LittleEndian.PutUint64(r[k:], binary.LittleEndian.Uint64(r[k:])+d&^binary.LittleEndian.Uint64(pinned[k:]))
	}
}

// OnEvict implements cache.Policy.
func (p *XMem) OnEvict(set, way uint32) {
	i := set*p.ways + way
	if p.pinned[i] != 0 {
		// Defensive: Victim never selects pinned ways.
		p.pinned[i] = 0
		p.pinCnt[set]--
	}
}

// PinnedCount returns the total number of pinned blocks (tests).
func (p *XMem) PinnedCount() uint64 {
	var n uint64
	for _, c := range p.pinCnt {
		n += uint64(c)
	}
	return n
}
