package policy

import (
	"encoding/binary"

	"grasp/internal/cache"
	"grasp/internal/mem"
)

// Hawkeye [Jain & Lin, ISCA'16] learns from Belady's optimal algorithm:
// a sampler replays recent accesses to a subset of sets through OPTgen to
// decide whether OPT *would have* cached each block, and trains a PC-indexed
// predictor accordingly. Predicted cache-friendly blocks insert at RRPV 0
// and age gradually; predicted cache-averse blocks insert at distant RRPV
// and — crucially for the paper's analysis — are demoted rather than
// promoted when they hit, which is why Hawkeye underperforms on graph
// analytics: hot and cold vertices share the PC, the predictor settles on
// cache-averse, and hits to hot vertices get thrown away (Sec. V-A).
type Hawkeye struct {
	meta    *RRIPMeta
	ways    uint32
	setMask uint64

	// Per-block state (the storage-intensive metadata GRASP avoids).
	insertPC []uint32
	// friendly is 0xff for a block predicted cache-friendly and 0
	// otherwise, so OnFill ages the friendly blocks eight ways per word.
	friendly []uint8

	// PC predictor: 3-bit saturating counters.
	pred pcCounters

	// OPTgen sampler state, one per sampled set (set/hawkeyeSampleEvery),
	// allocated on the set's first access.
	samplers []*optgenSet
}

const (
	hawkeyeSampleEvery = 8   // sample every 8th set
	optgenWindow       = 128 // time quanta tracked per sampled set
	hawkeyePredMax     = 7
	hawkeyePredInit    = 4 // weakly cache-friendly
)

type optgenSet struct {
	clock     uint64
	occupancy [optgenWindow]uint8
	last      optgenHistory // block -> last access
	capacity  uint8
}

// NewHawkeye creates a Hawkeye policy.
func NewHawkeye(sets, ways uint32) *Hawkeye {
	return &Hawkeye{
		meta:     NewRRIPMeta(sets, ways),
		ways:     ways,
		setMask:  uint64(sets - 1),
		insertPC: make([]uint32, sets*ways),
		friendly: make([]uint8, sets*ways),
		samplers: make([]*optgenSet, (sets+hawkeyeSampleEvery-1)/hawkeyeSampleEvery),
	}
}

var _ cache.Policy = (*Hawkeye)(nil)
var _ cache.AccessObserver = (*Hawkeye)(nil)

func (p *Hawkeye) predictFriendly(pc uint32) bool {
	c, ok := p.pred.get(pc)
	if !ok {
		return hawkeyePredInit >= 4
	}
	return c >= 4
}

func (p *Hawkeye) train(pc uint32, up bool) {
	c := p.pred.slot(pc)
	if up {
		if *c < hawkeyePredMax {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// ObserveAccess implements cache.AccessObserver: feed the OPTgen sampler.
// The set index is derived exactly as the cache derives it; only sampled
// sets carry sampler state.
func (p *Hawkeye) ObserveAccess(a mem.Access) {
	block := cache.BlockAddr(a.Addr)
	set := uint32(block & p.setMask)
	if set%hawkeyeSampleEvery != 0 {
		return
	}
	s := p.samplers[set/hawkeyeSampleEvery]
	if s == nil {
		s = &optgenSet{capacity: uint8(p.ways)}
		p.samplers[set/hawkeyeSampleEvery] = s
	}
	now := s.clock
	s.occupancy[now%optgenWindow] = 0
	e := s.last.find(block)
	if e.key != 0 {
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
	} else {
		e.key = block + 1
		s.last.n++
	}
	e.t, e.pc = now, a.PC
	s.clock++
	// Bound the history: once it holds more than 4*optgenWindow blocks,
	// drop every entry older than the window.
	if s.last.n > 4*optgenWindow {
		s.last.purge(now)
	}
}

// OnHit implements cache.Policy.
func (p *Hawkeye) OnHit(set, way uint32, a mem.Access) {
	i := set*p.ways + way
	if p.predictFriendly(a.PC) {
		p.meta.Set(set, way, RRPVNear)
		p.friendly[i] = 0xff
	} else {
		// Cache-averse prediction: prioritize for eviction even on a hit.
		p.meta.Set(set, way, RRPVMax)
		p.friendly[i] = 0
	}
	p.insertPC[i] = a.PC
}

// OnFill implements cache.Policy.
func (p *Hawkeye) OnFill(set, way uint32, a mem.Access) {
	i := set*p.ways + way
	p.insertPC[i] = a.PC
	if !p.predictFriendly(a.PC) {
		p.friendly[i] = 0
		p.meta.Set(set, way, RRPVMax)
		return
	}
	p.friendly[i] = 0
	// Age the other cache-friendly blocks below RRPVLong so that old
	// friendly blocks eventually become evictable. Eight ways per word: a
	// byte x <= 7 is below RRPVLong exactly when x + (0x80-RRPVLong) leaves
	// its top bit clear, and that sum cannot carry out of the byte.
	base := set * p.ways
	r := p.meta.row(set)
	f := p.friendly[base : base+p.ways : base+p.ways]
	if len(r)%8 == 0 {
		const below = (0x80 - RRPVLong) * ones
		for k := 0; k < len(r); k += 8 {
			x := binary.LittleEndian.Uint64(r[k:])
			inc := (^(x + below) & highs) >> 7 & binary.LittleEndian.Uint64(f[k:])
			binary.LittleEndian.PutUint64(r[k:], x+inc)
		}
	} else {
		for w := range r {
			if f[w] != 0 && r[w] < RRPVLong {
				r[w]++
			}
		}
	}
	p.friendly[i] = 0xff
	r[way] = RRPVNear
}

// Victim implements cache.Policy: evict a cache-averse block (RRPV max) if
// one exists, otherwise the oldest cache-friendly block; evicting a
// friendly block is evidence of a misprediction, so its PC is detrained.
// Both cases are the first way holding the set's maximum RRPV.
func (p *Hawkeye) Victim(set uint32, _ mem.Access) (uint32, bool) {
	best, v := maxWay(p.meta.row(set), nil)
	if v < RRPVMax {
		p.train(p.insertPC[set*p.ways+best], false)
	}
	return best, false
}

// OnEvict implements cache.Policy.
func (p *Hawkeye) OnEvict(uint32, uint32) {}

// PredictorSnapshot returns a copy of the PC predictor (tests/inspection).
func (p *Hawkeye) PredictorSnapshot() map[uint32]uint8 {
	out := make(map[uint32]uint8, p.pred.n)
	for _, e := range p.pred.slots {
		if e.used {
			out[e.pc] = e.c
		}
	}
	return out
}

// pcCounters is an exact PC -> counter map, open-addressed with linear
// probing: a graph workload has a few dozen PCs, and a Go map lookup on
// every fill and hit was a fifth of Hawkeye's time. Entries are never
// removed.
type pcCounters struct {
	slots []pcCounter // 1<<bits of them, at most half full
	bits  uint
	n     int
}

type pcCounter struct {
	pc   uint32
	c    uint8
	used bool
}

// index returns the slot holding pc, or the empty slot where it belongs.
// The home slot is Fibonacci hashing's top bits of pc.
func (t *pcCounters) index(pc uint32) int {
	mask := len(t.slots) - 1
	i := int((pc * 0x9e3779b1) >> (32 - t.bits))
	for t.slots[i].used && t.slots[i].pc != pc {
		i = (i + 1) & mask
	}
	return i
}

// get returns pc's counter and whether pc has one.
func (t *pcCounters) get(pc uint32) (uint8, bool) {
	if t.n == 0 {
		return 0, false
	}
	e := t.slots[t.index(pc)]
	return e.c, e.used
}

// slot returns pc's counter, inserting it at hawkeyePredInit if absent.
func (t *pcCounters) slot(pc uint32) *uint8 {
	if t.n > 0 {
		if i := t.index(pc); t.slots[i].used {
			return &t.slots[i].c
		}
	}
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.bits = max(6, t.bits+1)
		t.slots = make([]pcCounter, 1<<t.bits)
		for _, e := range old {
			if e.used {
				t.slots[t.index(e.pc)] = e
			}
		}
	}
	i := t.index(pc)
	t.slots[i] = pcCounter{pc: pc, c: hawkeyePredInit, used: true}
	t.n++
	return &t.slots[i].c
}

// optgenHistory is a sampled set's block -> last access map, open-addressed
// with linear probing. It never holds more than 4*optgenWindow+1 blocks
// (ObserveAccess purges past that), so a fixed table of about twice that
// many slots stays about half full.
type optgenHistory struct {
	slots *[optgenSlots]optgenEntry
	n     int // occupied slots
}

const (
	optgenBits  = 10
	optgenSlots = 1 << optgenBits // 2*4*optgenWindow
)

type optgenEntry struct {
	key uint64 // block+1; 0 marks an empty slot
	t   uint64
	pc  uint32
}

func optgenHash(block uint64) int {
	return int((block * 0x9e3779b97f4a7c15) >> (64 - optgenBits))
}

// find returns block's entry, or the empty slot where it belongs (key 0).
func (h *optgenHistory) find(block uint64) *optgenEntry {
	if h.slots == nil {
		h.slots = new([optgenSlots]optgenEntry)
	}
	i := optgenHash(block)
	for {
		e := &h.slots[i]
		if e.key == 0 || e.key == block+1 {
			return e
		}
		i = (i + 1) & (optgenSlots - 1)
	}
}

// purge drops every entry recorded optgenWindow or more quanta before now.
// The survivors, at most optgenWindow of them (one block per quantum), are
// re-inserted into a cleared table so no probe chain is left broken.
func (h *optgenHistory) purge(now uint64) {
	var keep [optgenWindow]optgenEntry
	k := 0
	for i := range h.slots {
		if e := h.slots[i]; e.key != 0 && now-e.t < optgenWindow {
			keep[k] = e
			k++
		}
	}
	*h.slots = [optgenSlots]optgenEntry{}
	for _, e := range keep[:k] {
		*h.find(e.key - 1) = e
	}
	h.n = k
}
