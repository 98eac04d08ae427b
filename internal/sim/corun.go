// Multi-programmed co-run replay (DESIGN.md Sec. 15): N recorded
// application streams — each already filtered through its own private
// L1/L2 at record time — are interleaved round-robin in ratio-weighted
// quanta into ONE shared LLC, the deployment shape of consolidated graph
// analytics the paper does not evaluate. Every access is tagged with its
// stream index in the high address bits (per-app physical address spaces;
// co-runners contend for sets and ways but never alias each other's
// blocks), shared-LLC activity is attributed back to the issuing app
// exactly, and the solo replays of the same recordings provide the
// baselines for the interference metrics: per-app miss-rate delta,
// weighted speedup, and max/min-slowdown unfairness.
package sim

import (
	"context"
	"fmt"

	"grasp/internal/apps"
	"grasp/internal/cache"
	"grasp/internal/core"
	"grasp/internal/mem"
	"grasp/internal/trace"
)

// MaxCorunApps bounds the co-run width. The address-space tag occupies
// bits corunStreamShift and up, and the PC tag bits corunPCShift and up;
// 16 streams fit both with room to spare (the paper's machine has 8
// cores, and the experiment sweeps 2/4/8-way mixes).
const MaxCorunApps = 16

// corunStreamShift is the bit position of the stream tag in replayed byte
// addresses: stream i replays at addr + i<<48. Recorded addresses live in
// the low ~40 bits (a few GB of simulated address space), and set indexing
// uses the low block bits, so the tag disambiguates tags without
// perturbing set placement — stream 0 replays bit-identically to a solo
// replay.
const corunStreamShift = 48

// corunPCShift is the stream tag's bit position in replayed PCs: the
// synthetic static PCs are small, so offsetting stream i's PCs by i<<24
// keeps PC-indexed predictors (SHiP-PC, Hawkeye) from conflating the
// co-runners' access sites, as per-process PC spaces would on hardware.
const corunPCShift = 24

// CorunStream describes one co-running application: its recording (the
// private L1/L2 filter already ran at record time), the recorded ABR
// bounds for hint-consuming policies, the round-robin ratio weight, and
// the solo baseline Result of the SAME (policy, geometry) replaying the
// same trace alone — the denominator of the interference metrics.
type CorunStream struct {
	App    string
	Layout apps.Layout
	Weight int
	Trace  *trace.Trace
	Bounds [][2]uint64
	Solo   Result
}

// CorunAppResult is one application's view of a shared-LLC co-run.
type CorunAppResult struct {
	// App names the application; Weight is its round-robin ratio weight.
	App    string
	Weight int
	// L1 and L2 are the app's private upper levels, from its recording —
	// exact and unaffected by the co-runners.
	L1, L2 cache.Stats
	// LLC is the app's attributed share of the shared LLC: the stats
	// deltas of exactly the accesses this app issued. Summed over all apps
	// it reconciles with the shared totals counter for counter.
	LLC cache.Stats
	// Cycles prices this app's co-run memory time (its own L1/L2 plus its
	// attributed LLC misses) through cache.MemoryCyclesEst — comparable
	// one-to-one with the solo baseline's Result.Cycles.
	Cycles float64
	// Solo is the app's solo-replay baseline under the same policy and
	// geometry with the LLC to itself.
	Solo Result
	// Slowdown is Cycles / Solo.Cycles: how much the co-run stretches this
	// app's modeled memory time (1 = no interference).
	Slowdown float64
}

// MissRateDelta returns the app's LLC miss-rate increase over running
// alone: corun miss ratio minus solo miss ratio (positive = the
// co-runners hurt it).
func (r CorunAppResult) MissRateDelta() float64 {
	return r.LLC.MissRatio() - r.Solo.LLC.MissRatio()
}

// CorunResult carries the metrics of one co-run replay: per-app
// attribution plus the whole-mix interference summary.
type CorunResult struct {
	// Policy and HCfg identify the shared-LLC configuration; Workload
	// names the dataset every stream was recorded on.
	Policy   string
	HCfg     cache.HierarchyConfig
	Workload string
	// Apps holds one entry per stream, in stream order.
	Apps []CorunAppResult
	// LLC is the shared LLC's total stats (the sum of every app's
	// attributed share).
	LLC cache.Stats
	// WeightedSpeedup is the sum over apps of Solo.Cycles/Cycles — the
	// standard multiprogram throughput metric; the ideal (interference-
	// free) value equals the number of apps.
	WeightedSpeedup float64
	// Unfairness is max(Slowdown)/min(Slowdown) across apps: >= 1, with
	// equality exactly when every app slows down by the same factor.
	Unfairness float64
}

// statsDelta returns cur - prev, counter for counter: the attribution
// primitive (cur is the shared LLC after a batch, prev before it).
func statsDelta(cur, prev cache.Stats) cache.Stats {
	return cache.Stats{
		Hits:       cur.Hits - prev.Hits,
		Misses:     cur.Misses - prev.Misses,
		PropHits:   cur.PropHits - prev.PropHits,
		PropMisses: cur.PropMisses - prev.PropMisses,
		Bypasses:   cur.Bypasses - prev.Bypasses,
		Evictions:  cur.Evictions - prev.Evictions,
		Writebacks: cur.Writebacks - prev.Writebacks,
	}
}

// addStats accumulates d into s field-wise.
func addStats(s *cache.Stats, d cache.Stats) {
	s.Hits += d.Hits
	s.Misses += d.Misses
	s.PropHits += d.PropHits
	s.PropMisses += d.PropMisses
	s.Bypasses += d.Bypasses
	s.Evictions += d.Evictions
	s.Writebacks += d.Writebacks
}

// CorunReplayResultCtx replays the streams' recordings, interleaved
// round-robin in Weight-sized quanta, into one shared LLC of the given
// policy and geometry, and computes the per-app attribution and fairness
// metrics against each stream's provided solo baseline. For
// hint-consuming policies the shared classifier is programmed with every
// stream's ABR bounds (offset into that stream's tagged address space),
// so GRASP's region sizing divides the LLC among ALL co-runners' Property
// Arrays — the paper's rule applied across applications.
//
// A single-stream co-run is bit-identical to ReplayResultCtx of the same
// spec: stream 0's address/PC tags are zero, the round-robin degenerates
// to recording order, and the attribution equals the shared totals — the
// equivalence the co-run suite pins for every registered policy.
func CorunReplayResultCtx(ctx context.Context, streams []CorunStream, policyName string, hcfg cache.HierarchyConfig, workloadName string) (CorunResult, error) {
	if len(streams) == 0 {
		return CorunResult{}, fmt.Errorf("sim: co-run needs at least one stream")
	}
	if len(streams) > MaxCorunApps {
		return CorunResult{}, fmt.Errorf("sim: co-run of %d streams exceeds the maximum %d", len(streams), MaxCorunApps)
	}
	pinfo, err := PolicyByName(policyName)
	if err != nil {
		return CorunResult{}, err
	}
	llc, err := cache.New(hcfg.LLC, pinfo.New(hcfg.LLC.Sets(), hcfg.LLC.Ways))
	if err != nil {
		return CorunResult{}, err
	}
	if pinfo.NeedsABRs {
		abrs := core.NewABRs(hcfg.LLC.SizeBytes)
		for i, st := range streams {
			base := uint64(i) << corunStreamShift
			for _, b := range st.Bounds {
				if err := abrs.SetBounds(b[0]+base, b[1]+base); err != nil {
					return CorunResult{}, err
				}
			}
		}
		llc.SetClassifier(abrs)
	}
	its := make([]trace.InterleaveStream, len(streams))
	for i, st := range streams {
		its[i] = trace.InterleaveStream{Trace: st.Trace, Weight: st.Weight}
	}
	perApp := make([]cache.Stats, len(streams))
	err = trace.InterleaveReplayCtx(ctx, its, 0, func(stream int, accs []mem.Access) {
		base := uint64(stream) << corunStreamShift
		pcBase := uint32(stream) << corunPCShift
		prev := llc.Stats
		for _, a := range accs {
			a.Addr += base
			a.PC += pcBase
			llc.Access(a)
		}
		addStats(&perApp[stream], statsDelta(llc.Stats, prev))
	})
	if err != nil {
		return CorunResult{}, err
	}
	out := CorunResult{
		Policy:   policyName,
		HCfg:     hcfg,
		Workload: workloadName,
		Apps:     make([]CorunAppResult, len(streams)),
		LLC:      llc.Stats,
	}
	var minSlow, maxSlow float64
	for i, st := range streams {
		l1, l2 := st.Trace.L1Stats(), st.Trace.L2Stats()
		cyc := cache.MemoryCyclesEst(hcfg, l1, l2, float64(perApp[i].Misses))
		ar := CorunAppResult{
			App:    st.App,
			Weight: st.Weight,
			L1:     l1, L2: l2,
			LLC:    perApp[i],
			Cycles: cyc,
			Solo:   st.Solo,
		}
		if st.Solo.Cycles > 0 {
			ar.Slowdown = cyc / st.Solo.Cycles
			out.WeightedSpeedup += st.Solo.Cycles / cyc
		}
		if i == 0 || ar.Slowdown < minSlow {
			minSlow = ar.Slowdown
		}
		if i == 0 || ar.Slowdown > maxSlow {
			maxSlow = ar.Slowdown
		}
		out.Apps[i] = ar
	}
	if minSlow > 0 {
		out.Unfairness = maxSlow / minSlow
	}
	return out, nil
}
