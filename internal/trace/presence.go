// Set-aware decode: the codec-layer half of the sampled fast tier
// (DESIGN.md Sec. 14). Because a set-associative cache indexes sets by the
// low block bits, a sampled-set selection projects onto PresenceBuckets
// block-address congruence classes, and the decode kernel
// (decodeAppendMasked) tests each record's class on the reconstructed
// block address alone: every record is still scanned — the per-site
// decode state demands it — but non-sampled records drop before the
// mem.Access materialization, so only the ~1/K sampled residue is shipped
// to consumers. Running the filter inside the decode loop on the raw
// records, instead of after full materialization, is what breaks the
// sampled tier's decode-share Amdahl bound.
//
// Conservatism: with sets <= PresenceBuckets (every geometry this repo
// simulates) a bucket maps to exactly one set, so the mask test IS the
// set test and pruning has zero false positives; with larger caches
// several sets alias one bucket and the mask only over-approximates —
// a consumer-side SetFilter still applies its exact per-set test, so
// false positives cost work, never correctness. A false NEGATIVE is
// impossible by construction, which FuzzMaskedDecode hammers with hostile
// recordings.
package trace

import (
	"context"
	"fmt"
	"sync/atomic"

	"grasp/internal/mem"
)

// PresenceBuckets is the width of the prune mask: block addresses are
// bucketed by their low log2(PresenceBuckets) bits, the same bits every
// power-of-two set indexing draws from.
const PresenceBuckets = 256

// presenceWords is the bitmap size in uint64 words.
const presenceWords = PresenceBuckets / 64

// presenceBucketMask extracts a block address's congruence class.
const presenceBucketMask = PresenceBuckets - 1

// PresenceMask is a bitmap over the PresenceBuckets block-address
// congruence classes: per replay it encodes which classes the consumers'
// sampled sets can map to (built by SampledSetsMask, unioned across
// consumers by the decode planner).
type PresenceMask [presenceWords]uint64

// fullMask marks every congruence class: the full-fidelity decode is the
// masked one under it.
var fullMask = func() (m PresenceMask) {
	for i := range m {
		m[i] = ^uint64(0)
	}
	return m
}()

// set marks the congruence class of block.
func (m *PresenceMask) set(block uint64) {
	b := block & presenceBucketMask
	m[b>>6] |= 1 << (b & 63)
}

// test reports whether the congruence class of block is marked.
func (m *PresenceMask) test(block uint64) bool {
	b := block & presenceBucketMask
	return m[b>>6]>>(b&63)&1 != 0
}

// Or unions o into m (the decode planner's accumulator across consumers
// with differing geometries).
func (m *PresenceMask) Or(o PresenceMask) {
	for i := range m {
		m[i] |= o[i]
	}
}

// SampledSetsMask projects a sampled-set selection (as returned by
// SampledSets for an LLC with the given power-of-two set count) onto the
// presence buckets. The projection is conservative in exactly one
// direction: any block mapping to a sampled set marks a masked bucket.
// With sets <= PresenceBuckets a bucket determines its set uniquely
// (bucket & (sets-1)), so each sampled set owns PresenceBuckets/sets
// buckets and the projection is exact; with sets > PresenceBuckets all
// sets aliasing a bucket share it, so the mask admits non-sampled sets
// (false positives prune less, never drop wrongly).
func SampledSetsMask(sets uint32, sampled []uint32) PresenceMask {
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("trace: set count %d is not a positive power of two", sets))
	}
	var m PresenceMask
	for _, s := range sampled {
		if s >= sets {
			panic(fmt.Sprintf("trace: sampled set %d out of range (%d sets)", s, sets))
		}
		if sets >= PresenceBuckets {
			m.set(uint64(s))
			continue
		}
		for b := uint64(s); b < PresenceBuckets; b += uint64(sets) {
			m.set(b)
		}
	}
	return m
}

// Subsequence prunes t once under mask and re-encodes the surviving
// records, in recording order, into a trace of their own: a masked replay
// of the result under any mask inside this one delivers exactly what the
// same replay of t would, without scanning the pruned records again. It
// is the sampled tier's per-(group, K) recording (DESIGN.md Sec. 14). The
// decode is the one cursor and kernel, the encode the one Recorder; the
// result keeps t's L1/L2 stats, AppTime and RecordedLen, so an estimate
// priced from it is priced from the whole recording. The build checks ctx
// once per chunk of t; a cancelled or failed build leaves nothing behind.
func (t *Trace) Subsequence(ctx context.Context, mask PresenceMask) (*Trace, error) {
	c := t.newCursor(ctx, 0, mask)
	r := NewRawRecorder()
	accs := make([]mem.Access, 0, chunkRecords)
	for {
		var err error
		if accs, err = c.next(accs); err != nil {
			return nil, err
		}
		if len(accs) == 0 {
			break
		}
		for _, a := range accs {
			r.Record(a)
		}
	}
	sub, err := r.Finish(t.appTime)
	if err != nil {
		return nil, err
	}
	sub.l1, sub.l2, sub.recorded = t.l1, t.l2, t.recorded
	return sub, nil
}

// SkipReport accounts one masked replay's codec-layer savings.
type SkipReport struct {
	// ChunksSkipped is always zero: whole-chunk skipping was measured to
	// fire on 0 of 1132 chunks and removed (DESIGN.md Sec. 14). The field
	// stays only because the frozen benchmark reads it for its
	// trace.chunks_skipped rung; it goes when that rung does.
	ChunksSkipped uint64
	// ChunksDecoded counts chunks the masked decoder scanned and
	// BytesDecoded their encoded footprint.
	ChunksDecoded, BytesDecoded uint64
	// AccessesPruned counts records the masked decoder scanned but dropped
	// before materialization (bucket outside the mask), plus, on a replay
	// of a Subsequence, the records its build dropped once;
	// AccessesDelivered counts records materialized and shipped to
	// consumers. A whole-stream replay's two sum to RecordedLen.
	AccessesPruned, AccessesDelivered int64
}

// Add accumulates o into r (session- and process-level aggregation).
func (r *SkipReport) Add(o SkipReport) {
	r.ChunksDecoded += o.ChunksDecoded
	r.BytesDecoded += o.BytesDecoded
	r.AccessesPruned += o.AccessesPruned
	r.AccessesDelivered += o.AccessesDelivered
}

// SkipRatio returns the fraction of recorded accesses the masked decoder
// pruned before materialization, out of everything a mask-less replay
// would have delivered. 0 when nothing was replayed.
func (r SkipReport) SkipRatio() float64 {
	total := r.AccessesPruned + r.AccessesDelivered
	if total == 0 {
		return 0
	}
	return float64(r.AccessesPruned) / float64(total)
}

// Process-wide masked-replay counters (observability): every masked
// replay adds its SkipReport here; graspd /metrics exports them as
// chunks_decoded_total, accesses_pruned_total and friends, so the
// decode-bound retreat is visible in production, not only in BENCH
// files. Every cursor keeps a report, but only BroadcastMaskedNCtx adds
// it here: full-fidelity replays do not count.
var (
	skipChunksDecoded atomic.Uint64
	skipBytesDecoded  atomic.Uint64
	skipAccPruned     atomic.Int64
	skipAccDelivered  atomic.Int64
)

// countSkip folds one masked replay's report into the process totals.
func countSkip(r SkipReport) {
	skipChunksDecoded.Add(r.ChunksDecoded)
	skipBytesDecoded.Add(r.BytesDecoded)
	skipAccPruned.Add(r.AccessesPruned)
	skipAccDelivered.Add(r.AccessesDelivered)
}

// SkipStats returns the process-wide masked-replay totals.
func SkipStats() SkipReport {
	return SkipReport{
		ChunksDecoded:     skipChunksDecoded.Load(),
		BytesDecoded:      skipBytesDecoded.Load(),
		AccessesPruned:    skipAccPruned.Load(),
		AccessesDelivered: skipAccDelivered.Load(),
	}
}
