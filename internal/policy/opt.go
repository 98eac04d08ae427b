package policy

import "math"

// Belady's optimal replacement (OPT) [Belady, IBM Sys J 1966], used as the
// offline upper bound in the paper's Sec. V-D: given the full future access
// trace, always evict the block whose next use is farthest away, and bypass
// a missing block entirely when its own next use is farther than every
// cached block's (the bypass-capable MIN variant used by Hawkeye's OPTgen,
// which minimizes misses for demand caches).
//
// OPT is not a cache.Policy — it is a standalone trace simulator, exactly
// as the paper applies it: "we generate the traces of LLC accesses ... We
// apply OPT on each trace for five different LLC sizes." The two passes are
// separate functions for that reason: the next-use chain does not depend on
// the cache geometry, so a size sweep computes it once (NextUseChain) and
// runs SimulateOPTChain per size over the shared, read-only chain.

// OPTResult reports the outcome of an OPT simulation.
type OPTResult struct {
	Hits, Misses uint64
}

// Accesses returns the trace length.
func (r OPTResult) Accesses() uint64 { return r.Hits + r.Misses }

const never = math.MaxInt64

// denseSpanFactor bounds the table NextUseChain indexes by block address:
// it is used while the trace's address span is at most this many entries
// per access (4-byte entries, so at most 16 bytes per access, on the order
// of the chain itself) or fits denseSpanFloor outright. Traces recorded
// off a mem.AddressSpace layout always qualify — arrays are packed a guard
// gap apart from one base — the map is for arbitrary input.
const (
	denseSpanFactor = 4
	denseSpanFloor  = 1 << 16
)

// NextUseChain returns, for every position i of a block-address trace, the
// index of the next access to blocks[i], or never (math.MaxInt64) when the
// block is not referenced again: pass 1 of Belady's algorithm, independent
// of the cache geometry.
func NextUseChain(blocks []uint64) []int64 {
	if len(blocks) == 0 {
		return nil
	}
	lo, hi := blocks[0], blocks[0]
	for _, b := range blocks {
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	span := hi - lo // one less than the table length: cannot overflow
	if len(blocks) < math.MaxInt32 && (span < denseSpanFloor || span/denseSpanFactor < uint64(len(blocks))) {
		return nextUseDense(blocks, lo, span+1)
	}
	return nextUseSparse(blocks)
}

// nextUseDense walks the trace backwards remembering each block's latest
// position in a table indexed by block-lo (stored +1, so the zero value
// means "not seen yet").
func nextUseDense(blocks []uint64, lo, span uint64) []int64 {
	nextUse := make([]int64, len(blocks))
	last := make([]int32, span)
	for i := len(blocks) - 1; i >= 0; i-- {
		slot := &last[blocks[i]-lo]
		if *slot != 0 {
			nextUse[i] = int64(*slot - 1)
		} else {
			nextUse[i] = never
		}
		*slot = int32(i + 1)
	}
	return nextUse
}

// nextUseSparse is nextUseDense with a map for the table: any trace, at
// several times the cost per access.
func nextUseSparse(blocks []uint64) []int64 {
	nextUse := make([]int64, len(blocks))
	last := make(map[uint64]int64, 1<<16)
	for i := len(blocks) - 1; i >= 0; i-- {
		b := blocks[i]
		if j, ok := last[b]; ok {
			nextUse[i] = j
		} else {
			nextUse[i] = never
		}
		last[b] = int64(i)
	}
	return nextUse
}

// SimulateOPT runs Belady's algorithm over a trace of block addresses for
// a cache with the given geometry (sets must be a power of two). Each set
// is an independent fully-associative-within-set Belady cache, matching
// the hardware set mapping.
func SimulateOPT(blocks []uint64, sets, ways uint32) OPTResult {
	return SimulateOPTChain(blocks, NextUseChain(blocks), sets, ways)
}

// SimulateOPTChain is SimulateOPT over a precomputed NextUseChain(blocks),
// which it only reads: one chain serves every geometry of a size sweep.
func SimulateOPTChain(blocks []uint64, nextUse []int64, sets, ways uint32) OPTResult {
	if sets == 0 || sets&(sets-1) != 0 {
		panic("policy: OPT set count must be a positive power of two")
	}
	if len(nextUse) != len(blocks) {
		panic("policy: OPT next-use chain does not match the trace")
	}
	mask := uint64(sets - 1)

	// Per-set Belady simulation. Each set keeps its resident blocks with
	// their next-use times.
	type line struct {
		block uint64
		next  int64
	}
	setsState := make([][]line, sets)
	for i := range setsState {
		setsState[i] = make([]line, 0, ways)
	}

	var res OPTResult
	for i, b := range blocks {
		s := setsState[b&mask]
		hit := false
		for k := range s {
			if s[k].block == b {
				s[k].next = nextUse[i]
				hit = true
				break
			}
		}
		if hit {
			res.Hits++
			continue
		}
		res.Misses++
		if nextUse[i] == never {
			continue // never reused: optimal choice is to bypass
		}
		if uint32(len(s)) < ways {
			setsState[b&mask] = append(s, line{block: b, next: nextUse[i]})
			continue
		}
		// Find the farthest-future line, considering the incoming block.
		victim, farthest := -1, nextUse[i]
		for k := range s {
			if s[k].next > farthest {
				victim, farthest = k, s[k].next
			}
		}
		if victim >= 0 {
			s[victim] = line{block: b, next: nextUse[i]}
		}
		// victim < 0: incoming block is the farthest -> bypass.
	}
	return res
}
