package cache

import (
	"fmt"

	"grasp/internal/mem"
)

// UpperLevel is one private LRU filter level, the L1 or the L2. The paper's
// upper levels are plain LRU and never see the policy under test, so the
// level is fixed-function: no Policy, classifier or observer, only the
// recency stack. A set is a row of ways words in recency order, most recent
// first. A word is block<<1|dirty; an empty way is invalidTag, which no
// block<<1 reaches (a block address has BlockBits leading zeros), and empty
// ways always sit at the row's tail because a fill enters at the front and
// a hit only reorders the words ahead of it. Which physical way holds a
// block is not represented: no statistic can observe it, and
// TestUpperLevelMatchesLRUCache holds every access's answer and all of
// Stats to those of a Cache under LRU.
type UpperLevel struct {
	rows    []uint64 // sets*ways words, one row per set
	ways    uint64
	setMask uint64
	Stats   Stats
}

// newUpperLevel creates an empty level; it accepts the geometries New does.
func newUpperLevel(cfg Config) (*UpperLevel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sets, ways := uint64(cfg.Sets()), uint64(cfg.Ways)
	rows := make([]uint64, sets*ways)
	for i := range rows {
		rows[i] = invalidTag
	}
	return &UpperLevel{rows: rows, ways: ways, setMask: sets - 1}, nil
}

// UpperLevels is the policy-independent upper half of the hierarchy: the
// private LRU L1 and L2 filter caches in front of the LLC. It exists as
// its own type because the LLC-bound stream it emits is a pure function of
// the access stream — the LLC's policy and geometry never feed back into
// it — which is what makes record-once/replay-many simulation sound: a
// trace recorded behind one UpperLevels instance is valid for every LLC
// configuration (DESIGN.md Sec. 11).
type UpperLevels struct {
	L1 *UpperLevel
	L2 *UpperLevel
}

// NewUpperLevels builds the L1/L2 filter pair of a hierarchy configuration.
func NewUpperLevels(cfg HierarchyConfig) (UpperLevels, error) {
	l1, err := newUpperLevel(cfg.L1)
	if err != nil {
		return UpperLevels{}, fmt.Errorf("L1: %w", err)
	}
	l2, err := newUpperLevel(cfg.L2)
	if err != nil {
		return UpperLevels{}, fmt.Errorf("L2: %w", err)
	}
	return UpperLevels{L1: l1, L2: l2}, nil
}

// Filter performs the access against the L1 and (on miss) the L2,
// reporting whether it was absorbed. A false return means the access is
// LLC-bound. Each level allocates on miss (inclusive fill is modeled
// implicitly).
//
// Every application access of a recording passes through here and most end
// here, so the level's logic lives in this frame rather than behind a
// per-level call: a mem.Access is too wide for the compiler to keep in
// registers, and each call it crosses spills and reloads it. The L2 takes
// the same code on a second turn of the loop. One pass over a row both
// searches and reorders it — each word steps down one way as it is passed,
// so when the block is found (or the row ends) the front is free for it —
// and a hit at the front, a quarter to half of all accesses, touches one
// word.
func (u UpperLevels) Filter(a mem.Access) bool {
	block := BlockAddr(a.Addr)
	word := block << 1
	if a.Write {
		word |= 1
	}
	var prop uint64
	if a.Property {
		prop = 1
	}
	for l := u.L1; ; l = u.L2 {
		base := (block & l.setMask) * l.ways
		row := l.rows[base : base+l.ways]
		prev, p := row[0], 0
		if prev|1 != word|1 {
			for p = 1; p < len(row); p++ {
				prev, row[p] = row[p], prev
				if prev|1 == word|1 {
					break
				}
			}
		}
		if p < len(row) {
			// Hit: prev is the block's word, dirty bit included.
			row[0] = prev | word
			l.Stats.Hits++
			l.Stats.PropHits += prop
			return true
		}
		// Miss: prev is the word that fell off the row's tail.
		row[0] = word
		l.Stats.Misses++
		l.Stats.PropMisses += prop
		if prev != invalidTag {
			l.Stats.Evictions++
			l.Stats.Writebacks += prev & 1
		}
		if l == u.L2 {
			return false
		}
	}
}
