// Set-sampled replay: the fast-fidelity tier. A full replay simulates
// every LLC set; the sampled tier replays the same recording through a
// trace.SetFilter so only a deterministic 1/K subset of sets is simulated,
// and extrapolates whole-cache miss metrics with a confidence interval
// (internal/stats, DESIGN.md Sec. 14). sample_k=1 selects every set and is
// bit-identical to a full replay — the property the equivalence tests pin.
package sim

import (
	"context"
	"fmt"
	"time"

	"grasp/internal/cache"
	"grasp/internal/mem"
	"grasp/internal/stats"
	"grasp/internal/trace"
)

// SampledResult is the fast-tier counterpart of Result: exact L1/L2 stats
// from the recording, observed LLC stats over the sampled sets only, and
// the extrapolated whole-cache estimate with its error bars. EstCycles
// prices the estimate through the same memory-time model as Result.Cycles.
type SampledResult struct {
	Spec     Spec
	Workload string
	// SampleK is the sampling divisor: ~1/K of the LLC sets simulated.
	SampleK uint32
	// L1 and L2 are exact — the recording's upper-level filter saw every
	// access regardless of sampling.
	L1, L2 cache.Stats
	// SampledLLC holds the raw stats of the partial LLC simulation; its
	// counters cover only the sampled sets.
	SampledLLC cache.Stats
	// Est extrapolates SampledLLC to the whole cache.
	Est stats.SetEstimate
	// EstCycles is the memory-time estimate using Est.EstMisses.
	EstCycles float64
	// AppTime is the recording run's execution time (as on the replay path).
	AppTime time.Duration
}

// MissRatio returns the estimated whole-cache LLC miss ratio.
func (r SampledResult) MissRatio() float64 { return r.Est.MissRatio }

// SampledReplayResultSkipCtx produces one datapoint's sampled estimate
// from a recorded trace: the recording is decoded once (masked broadcast
// path) and fed through a set filter in front of a fresh replay LLC. With
// sampleK=1 the filter passes every access and SampledLLC equals a full
// replay's stats bit for bit. The codec-layer SkipReport is returned
// alongside the estimate and lives OUTSIDE SampledResult deliberately:
// the estimate is a pure function of (trace, spec, K) however the decode
// was planned — a solo replay masks only its own sampled sets while a
// fan-out masks the union — so results stay comparable across paths while
// the work saved is reported per run.
func SampledReplayResultSkipCtx(ctx context.Context, tr *trace.Trace, spec Spec, workloadName string, abrArrays [][2]uint64, sampleK uint32) (SampledResult, trace.SkipReport, error) {
	res, rep, err := BroadcastSampledResultsSkipCtx(ctx, tr, []Spec{spec}, workloadName, abrArrays, sampleK)
	if err != nil {
		return SampledResult{}, rep, err
	}
	return res[0], rep, nil
}

// BroadcastSampledResultsSkipCtx fans ONE decode pass of the recording out
// to a set-filtered replay LLC per spec — the sampled twin of
// BroadcastResultsCtx — and returns the codec-layer SkipReport alongside
// the results. All specs share the sampling divisor, but each spec's
// filter derives its own set selection from its own LLC geometry, so specs
// may differ in policy and geometry alike. It is the sampled decode
// planner: each spec's selection projects onto the presence buckets via
// SampledMask and the union drives the masked fan-out, so non-sampled
// records prune inside the decode loop. Each SetFilter still applies its
// exact per-set test to what survives, so a spec whose geometry samples
// fewer buckets than the union sees identical results to a dedicated
// replay. tr may also be a trace.Subsequence of the recording built under
// a mask covering that union: the results are the recording's, bit for
// bit.
func BroadcastSampledResultsSkipCtx(ctx context.Context, tr *trace.Trace, specs []Spec, workloadName string, abrArrays [][2]uint64, sampleK uint32) ([]SampledResult, trace.SkipReport, error) {
	var rep trace.SkipReport
	if sampleK == 0 {
		return nil, rep, fmt.Errorf("sim: sample divisor must be >= 1, got 0")
	}
	filters := make([]*trace.SetFilter, len(specs))
	consumers := make([]func([]mem.Access), len(specs))
	var mask trace.PresenceMask
	for i, spec := range specs {
		llc, err := NewReplayLLC(spec, abrArrays)
		if err != nil {
			return nil, rep, err
		}
		f, err := trace.NewSetFilter(llc, trace.SampledSets(llc.NumSets(), sampleK))
		if err != nil {
			return nil, rep, err
		}
		filters[i] = f
		consumers[i] = f.Consume
		mask.Or(SampledMask(spec.HCfg.LLC, sampleK))
	}
	rep, err := tr.BroadcastMaskedNCtx(ctx, 0, mask, consumers)
	if err != nil {
		return nil, rep, err
	}
	out := make([]SampledResult, len(specs))
	for i, spec := range specs {
		out[i] = sampledResultOf(filters[i], tr, spec, workloadName, sampleK)
	}
	return out, rep, nil
}

// SampledMask is the presence mask of the sets a 1/k sampled replay of
// an LLC of geometry llc simulates: what the decode planner unions per
// spec, and what a sampled subsequence (trace.Subsequence) must keep for
// its replays to equal the full recording's.
func SampledMask(llc cache.Config, k uint32) trace.PresenceMask {
	sets := llc.Sets()
	return trace.SampledSetsMask(sets, trace.SampledSets(sets, k))
}

// sampledResultOf prices one finished set filter: the estimate is a pure
// function of the filter's per-set counts and the recording, however the
// accesses reached the filter — N is the recording's LLC access count
// (RecordedLen), whether tr is that recording or its sampled subsequence.
func sampledResultOf(f *trace.SetFilter, tr *trace.Trace, spec Spec, workloadName string, sampleK uint32) SampledResult {
	acc, miss := f.Counts()
	est := stats.EstimateSetSample(acc, miss, int(f.LLC().NumSets()), uint64(tr.RecordedLen()))
	return SampledResult{
		Spec:       spec,
		Workload:   workloadName,
		SampleK:    sampleK,
		L1:         tr.L1Stats(),
		L2:         tr.L2Stats(),
		SampledLLC: f.LLC().Stats,
		Est:        est,
		EstCycles:  cache.MemoryCyclesEst(spec.HCfg, tr.L1Stats(), tr.L2Stats(), est.EstMisses),
		AppTime:    tr.AppTime(),
	}
}
