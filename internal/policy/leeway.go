package policy

import (
	"encoding/binary"

	"grasp/internal/cache"
	"grasp/internal/mem"
)

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
type Leeway struct {
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
	// byRank inverts rank over a set's touched ways: byRank[set*ways+r] is
	// the way at stack position r, for r < touchedCnt[set].
	byRank []uint8
	ways   uint32

	ld        []uint8 // predicted live distance per block
	maxHitPos []uint8 // deepest stack position hit so far (0xff = no hit)
	pc        []uint32
	// entry caches table[pc[i]] per block, so hits and evictions skip the
	// map. It is taken at fill and re-looked-up while nil, because the
	// block's PC may get its first entry after the fill; an entry, once
	// made, is never replaced.
	entry []*ldEntry

	table map[uint32]*ldEntry
	psel  int32

	// base provides the underlying thrash-resistant replacement scheme:
	// when no block is predicted dead, Leeway behaves exactly like its
	// base (the paper evaluates Leeway against an RRIP baseline and finds
	// it tracks the base closely; a plain-LRU fallback would instead
	// forfeit RRIP's thrash resistance entirely).
	base *DRRIP
}

type ldEntry struct {
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
func NewLeeway(sets, ways uint32) *Leeway {
	n := sets * ways
	l := &Leeway{
		rank:       make([]uint8, n),
		touched:    make([]bool, n),
		touchedCnt: make([]uint8, sets),
		byRank:     make([]uint8, n),
		ways:       ways,
		ld:         make([]uint8, n),
		maxHitPos:  make([]uint8, n),
		pc:         make([]uint32, n),
		entry:      make([]*ldEntry, n),
		table:      make(map[uint32]*ldEntry),
		psel:       leewayPselInit,
		base:       NewDRRIP(sets, ways),
	}
	for i := range l.maxHitPos {
		l.maxHitPos[i] = noHit
	}
	return l
}

var _ cache.Policy = (*Leeway)(nil)

// stackPos returns the recency rank of a resident block (0 = MRU).
func (p *Leeway) stackPos(set, way uint32) uint8 {
	return p.rank[set*p.ways+way]
}

// promote moves way to MRU: blocks above its old position shift down one.
// A first-time fill starts below every already-resident block.
//
// Every rank, garbage ones included, stays below ways, so when ways is a
// multiple of 8 under 128 the ranks update as little-endian words, eight
// bytes at a time: per byte, the high bit of (x|0x80) - old is set exactly
// when x >= old, and every other byte gets +1. Neither the subtraction
// nor the increment can carry across a byte. byRank moves the same
// positions down one slot.
func (p *Leeway) promote(set, way uint32) {
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
	inv := p.byRank[base : base+p.ways : base+p.ways]
	copy(inv[1:old+1], inv[:old])
	inv[0] = uint8(way)
}

// entryOf returns block i's live-distance table entry, or nil while its
// PC has none.
func (p *Leeway) entryOf(i uint32) *ldEntry {
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
func (p *Leeway) OnHit(set, way uint32, _ mem.Access) {
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
func (p *Leeway) OnFill(set, way uint32, a mem.Access) {
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

func (p *Leeway) leader(set uint32) int {
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
// Victim is only invoked on full sets, where every way has been filled and
// the ranks are a permutation of 0..ways-1, so walking byRank up from the
// bottom of the stack meets the deepest dead block first.
func (p *Leeway) Victim(set uint32, a mem.Access) (uint32, bool) {
	base := set * p.ways
	inv := p.byRank[base : base+p.ways : base+p.ways]
	for r := len(inv) - 1; r > 0; r-- {
		if w := uint32(inv[r]); uint8(r) > p.ld[base+w] {
			return w, false // dead: deeper than its live distance
		}
	}
	return p.base.Victim(set, a)
}

// OnEvict implements cache.Policy: train the live-distance table with the
// observed live distance of the evicted block.
func (p *Leeway) OnEvict(set, way uint32) {
	i := set*p.ways + way
	observed := uint8(0)
	if p.maxHitPos[i] != noHit {
		observed = p.maxHitPos[i]
	}
	e := p.entryOf(i)
	if e == nil {
		// First observation for this PC seeds the predictor directly.
		p.table[p.pc[i]] = &ldEntry{ld: observed}
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
func (p *Leeway) TableSnapshot() map[uint32]uint8 {
	out := make(map[uint32]uint8, len(p.table))
	for k, v := range p.table {
		out[k] = v.ld
	}
	return out
}
