// The set-sampled fast tier's session entry point (DESIGN.md Sec. 14):
// the same record-once engine as the full-fidelity path, but the replay
// simulates only a deterministic 1/K of the LLC sets and returns an
// extrapolated estimate with a confidence interval. The recording is the
// expensive half and is shared with the full path, so on a warm session a
// sampled answer costs one set-filtered replay — of the group's 1/K
// subsequence where the selection allows one (sampledSource) — the
// interactive-latency tier of the ROADMAP north star.
package exp

import (
	"context"
	"fmt"

	"grasp/internal/apps"
	"grasp/internal/sim"
)

// SampledResultCtx returns the set-sampled fast-tier estimate of one
// datapoint, computing and caching it on first use. The group's shared
// FULL recording backs the replay (recorded on first use, exactly as the
// full-fidelity path would — so a sampled probe warms the cache for a
// later exact run and vice versa), directly or through the subsequence
// pruned from it (sampledSource); only the replay itself is sampled.
// sampleK=1 degenerates to an exact replay whose estimate carries zero
// error. Estimates cache separately per K and never alias full results.
func (s *Session) SampledResultCtx(ctx context.Context, dsName, reorderName, app string, layout apps.Layout, policy string, sampleK uint32) (sim.SampledResult, error) {
	if sampleK == 0 {
		return sim.SampledResult{}, fmt.Errorf("exp: sample divisor must be >= 1, got 0")
	}
	g := s.sampledSource(group(s.dataset(dsName), reorderName, app, layout), sampleK)
	return one(replayEach(ctx, s, g, kindSampled, sampleK, []sim.Spec{s.spec(g, policy, 0)}, &s.phase.sampled,
		func(rec recording, specs []sim.Spec) ([]sim.SampledResult, error) {
			rs, rep, err := sim.BroadcastSampledResultsSkipCtx(ctx, rec.tr, specs, rec.ds, rec.bounds, sampleK)
			if err == nil {
				s.art.tally(func(l *Ledger) {
					l.Sampled.add(len(rs), len(rs), rep.AccessesDelivered)
					l.Skip.Add(rep)
					for _, r := range rs {
						l.llc(r.Spec.Policy, r.SampledLLC)
					}
				})
			}
			return rs, err
		}))
}

// sampledSource returns the recording a 1/k estimate of group g replays.
// When SampledSets takes exactly sets/k of the session's LLC sets (k >= 2,
// at least 2k sets) it is the group's subsequence — g with n = k, built
// once from the full recording and about 1/k of it, so every later
// estimate of the group skips the pruned records instead of decoding them
// again. Otherwise (k = 1, or a selection floored at 2 sets, such as a
// 4-set LLC at k = 4) the sampled sets are too large a share of the stream
// for a second copy to pay: the estimate masks the full recording.
func (s *Session) sampledSource(g artifactKey, k uint32) artifactKey {
	if sets := s.Cfg.HCfg.LLC.Sets(); k >= 2 && sets/k >= 2 {
		g.n = k
	}
	return g
}
