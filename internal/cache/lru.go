package cache

import "grasp/internal/mem"

// LRU is the classic least-recently-used replacement policy: the LLC's
// baseline in the Fig. 11 / Table VII experiments and, under a Cache, the
// oracle the fixed-function L1/L2 (UpperLevel) is tested against. Recency
// is an intrusive per-set list (prev/next way links plus MRU/LRU cursors):
// touching a block splices it to the front in O(1) and the victim is read
// off the LRU cursor in O(1), where a timestamp scheme scans O(ways) per
// victim. Victim selection is identical to the timestamp scheme, including
// on partially filled sets: untouched ways sit at the cold end in
// ascending way order, which is exactly the order the scan's
// lowest-stamp-first-index rule produced.
type LRU struct {
	next, prev []uint16 // within-set links toward LRU / toward MRU
	mru, lru   []uint16 // per-set list cursors
	ways       uint32
}

// NewLRU creates an LRU policy for a sets x ways cache.
func NewLRU(sets, ways uint32) *LRU {
	p := &LRU{
		next: make([]uint16, sets*ways),
		prev: make([]uint16, sets*ways),
		mru:  make([]uint16, sets),
		lru:  make([]uint16, sets),
		ways: ways,
	}
	for s := uint32(0); s < sets; s++ {
		base := s * ways
		// Initial recency order MRU->LRU is ways-1 .. 0, so way 0 is the
		// first victim of an untouched set, then way 1, matching the
		// timestamp scan.
		p.mru[s] = uint16(ways - 1)
		p.lru[s] = 0
		for w := uint32(0); w < ways; w++ {
			if w > 0 {
				p.next[base+w] = uint16(w - 1)
			}
			if w < ways-1 {
				p.prev[base+w] = uint16(w + 1)
			}
		}
	}
	return p
}

// touch splices the way to the MRU end of its set's recency list.
func (p *LRU) touch(set, way uint32) {
	if uint32(p.mru[set]) == way {
		return
	}
	base := set * p.ways
	i := base + way
	pv, nx := p.prev[i], p.next[i]
	p.next[base+uint32(pv)] = nx
	if uint32(p.lru[set]) == way {
		p.lru[set] = pv
	} else {
		p.prev[base+uint32(nx)] = pv
	}
	old := p.mru[set]
	p.next[i] = old
	p.prev[base+uint32(old)] = uint16(way)
	p.mru[set] = uint16(way)
}

// OnHit implements Policy: move to MRU.
func (p *LRU) OnHit(set, way uint32, _ mem.Access) { p.touch(set, way) }

// OnFill implements Policy: insert at MRU.
func (p *LRU) OnFill(set, way uint32, _ mem.Access) { p.touch(set, way) }

// Victim implements Policy: evict the least recently used way.
func (p *LRU) Victim(set uint32, _ mem.Access) (uint32, bool) {
	return uint32(p.lru[set]), false
}

// OnEvict implements Policy.
func (p *LRU) OnEvict(uint32, uint32) {}
