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
//
// The merged, tagged order depends on the mix alone, not on the policy
// watching it, so it is produced once per mix and fanned out to one shared
// LLC per policy (CorunBroadcastResultsCtx); a single policy is that
// fan-out with one consumer.
package sim

import (
	"context"
	"fmt"

	"grasp/internal/apps"
	"grasp/internal/cache"
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

// CorunPolicy names one shared-LLC policy of a co-run fan-out and carries
// every stream's solo baseline under it: Solos[i] is the Result of the same
// (policy, geometry) replaying streams[i]'s trace alone.
type CorunPolicy struct {
	Name  string
	Solos []Result
}

// corunLLC is one policy's shared LLC plus the exact per-stream attribution
// of everything it has been fed. The stream is read back from the address
// tag the fan-out's producer applied; hits, misses and their Property
// splits follow from Access's return value, and the three counters only a
// miss can move (bypass, eviction, writeback) are differenced against the
// totals already attributed — on misses only, so a hit costs two
// increments and no copy of cache.Stats.
type corunLLC struct {
	llc    *cache.Cache
	perApp []cache.Stats
	seen   cache.Stats // Bypasses/Evictions/Writebacks attributed so far
}

// apply is the co-run consumer body: the one loop every policy of every
// fan-out runs, whether it is one of twenty or alone.
func (c *corunLLC) apply(accs []mem.Access) {
	llc, total := c.llc, &c.llc.Stats
	for _, a := range accs {
		st := &c.perApp[a.Addr>>corunStreamShift]
		if llc.Access(a) {
			st.Hits++
			if a.Property {
				st.PropHits++
			}
			continue
		}
		st.Misses++
		if a.Property {
			st.PropMisses++
		}
		st.Bypasses += total.Bypasses - c.seen.Bypasses
		st.Evictions += total.Evictions - c.seen.Evictions
		st.Writebacks += total.Writebacks - c.seen.Writebacks
		c.seen.Bypasses, c.seen.Evictions, c.seen.Writebacks = total.Bypasses, total.Evictions, total.Writebacks
	}
}

// CorunReplayResultCtx replays the streams' recordings, interleaved
// round-robin in Weight-sized quanta, into one shared LLC of the given
// policy and geometry, and computes the per-app attribution and fairness
// metrics against each stream's provided solo baseline (CorunStream.Solo).
// It is CorunBroadcastResultsCtx with one policy.
//
// A single-stream co-run is bit-identical to ReplayResultCtx of the same
// spec: stream 0's address/PC tags are zero, the round-robin degenerates
// to recording order, and the attribution equals the shared totals — the
// equivalence the co-run suite pins for every registered policy.
func CorunReplayResultCtx(ctx context.Context, streams []CorunStream, policyName string, hcfg cache.HierarchyConfig, workloadName string) (CorunResult, error) {
	solos := make([]Result, len(streams))
	for i, st := range streams {
		solos[i] = st.Solo
	}
	rs, err := CorunBroadcastResultsCtx(ctx, streams, []CorunPolicy{{Name: policyName, Solos: solos}}, hcfg, workloadName)
	if err != nil {
		return CorunResult{}, err
	}
	return rs[0], nil
}

// CorunBroadcastResultsCtx produces the co-run results of several policies
// from ONE merge of the streams' recordings: trace.InterleaveBroadcastCtx
// decodes and interleaves the mix once, tags each access with its stream
// (addr + i<<corunStreamShift, pc + i<<corunPCShift) and fans the merged
// slabs out to one shared LLC per policy. out[p] is identical to what a
// dedicated merge under policies[p] alone would produce; the per-stream
// baselines come from policies[p].Solos and CorunStream.Solo is ignored.
// For hint-consuming policies the shared classifier is programmed with
// every stream's ABR bounds (offset into that stream's tagged address
// space), so GRASP's region sizing divides the LLC among ALL co-runners'
// Property Arrays — the paper's rule applied across applications.
func CorunBroadcastResultsCtx(ctx context.Context, streams []CorunStream, policies []CorunPolicy, hcfg cache.HierarchyConfig, workloadName string) ([]CorunResult, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("sim: co-run needs at least one stream")
	}
	if len(streams) > MaxCorunApps {
		return nil, fmt.Errorf("sim: co-run of %d streams exceeds the maximum %d", len(streams), MaxCorunApps)
	}
	if len(policies) == 0 {
		return nil, fmt.Errorf("sim: co-run needs at least one policy")
	}
	its := make([]trace.InterleaveStream, len(streams))
	var bounds [][2]uint64 // every stream's ABR bounds, in its tagged address space
	for i, st := range streams {
		its[i] = trace.InterleaveStream{Trace: st.Trace, Weight: st.Weight}
		base := uint64(i) << corunStreamShift
		for _, b := range st.Bounds {
			bounds = append(bounds, [2]uint64{b[0] + base, b[1] + base})
		}
	}
	shared := make([]*corunLLC, len(policies))
	consumers := make([]func([]mem.Access), len(policies))
	for p, pol := range policies {
		if len(pol.Solos) != len(streams) {
			return nil, fmt.Errorf("sim: co-run policy %s has %d solo baselines for %d streams", pol.Name, len(pol.Solos), len(streams))
		}
		llc, err := NewReplayLLC(Spec{Policy: pol.Name, HCfg: hcfg}, bounds)
		if err != nil {
			return nil, err
		}
		shared[p] = &corunLLC{llc: llc, perApp: make([]cache.Stats, len(streams))}
		consumers[p] = shared[p].apply
	}
	tag := trace.StreamTag{AddrShift: corunStreamShift, PCShift: corunPCShift}
	if err := trace.InterleaveBroadcastCtx(ctx, its, 0, tag, consumers); err != nil {
		return nil, err
	}
	out := make([]CorunResult, len(policies))
	for p, pol := range policies {
		out[p] = corunResultOf(streams, pol, hcfg, workloadName, shared[p].perApp, shared[p].llc.Stats)
	}
	return out, nil
}

// corunResultOf prices one policy's attributed stats into the per-app and
// whole-mix interference metrics.
func corunResultOf(streams []CorunStream, pol CorunPolicy, hcfg cache.HierarchyConfig, workloadName string, perApp []cache.Stats, shared cache.Stats) CorunResult {
	out := CorunResult{
		Policy:   pol.Name,
		HCfg:     hcfg,
		Workload: workloadName,
		Apps:     make([]CorunAppResult, len(streams)),
		LLC:      shared,
	}
	var minSlow, maxSlow float64
	for i, st := range streams {
		solo := pol.Solos[i]
		l1, l2 := st.Trace.L1Stats(), st.Trace.L2Stats()
		cyc := cache.MemoryCyclesEst(hcfg, l1, l2, float64(perApp[i].Misses))
		ar := CorunAppResult{
			App:    st.App,
			Weight: st.Weight,
			L1:     l1, L2: l2,
			LLC:    perApp[i],
			Cycles: cyc,
			Solo:   solo,
		}
		if solo.Cycles > 0 {
			ar.Slowdown = cyc / solo.Cycles
			out.WeightedSpeedup += solo.Cycles / cyc
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
	return out
}
