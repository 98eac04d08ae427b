// The co-run experiment (DESIGN.md Sec. 15): multi-programmed mixes of
// the graph kernels contending for one shared LLC, replayed from the
// session's record-once traces. Each app in a mix is recorded exactly
// once (the same recording that backs its solo results), so a sweep of
// every policy over every mix pays one application execution per app,
// not one per cell — and one decode + interleave per (mix, dataset), not
// one per policy: the mix is the scheduling unit, and its merged order
// fans out to every policy's shared LLC the way a recording group's
// decode does (DESIGN.md Sec. 12).
package exp

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"grasp/internal/apps"
	"grasp/internal/sim"
	"grasp/internal/stats"
)

// CorunRuns returns how many distinct shared-LLC co-run replays the
// session has computed (cache hits and merged requests do not count) —
// the co-run twin of SimRuns, surfaced by graspd /metrics.
func (s *Session) CorunRuns() uint64 { return s.corunRun.Load() }

// CorunResultCtx returns the interference metrics of one co-run mix: the
// named apps' recorded streams interleaved round-robin (weights[i]
// accesses per turn; nil = uniform) into one shared LLC under the given
// policy, each app scored against its own solo replay of the same
// recording. Results cache per (dataset, reorder, mix, weights, layout,
// policy) and never alias solo results; the solo baselines themselves go
// through the ordinary result cache, so a co-run warms the solo sweep
// and vice versa. Apps may repeat in the mix (two copies of PR are two
// streams over one recording). A mix the simulator would refuse — too
// wide, a non-positive weight, an unknown policy — is refused here, before
// anything is recorded or replayed.
func (s *Session) CorunResultCtx(ctx context.Context, dsName, reorderName string, appNames []string, weights []int, layout apps.Layout, policy string) (sim.CorunResult, error) {
	m, err := s.newCorunMix(s.dataset(dsName), reorderName, appNames, weights, layout)
	if err != nil {
		return sim.CorunResult{}, err
	}
	return one(s.coruns(ctx, m, []string{policy}))
}

// corunMix is one validated co-run mix on one dataset: the scheduling unit
// of the co-run pipeline. Everything about a co-run except the policy is a
// property of the mix — the recordings, the merged order, the tags — so
// the mix is what gets decoded and interleaved once.
type corunMix struct {
	apps    []string
	weights []int
	layout  apps.Layout
	groups  []artifactKey // the mix's distinct apps' recording groups, first-appearance order
	stream  []int         // stream i replays groups[stream[i]]
	base    artifactKey   // kindCorun key of the mix, policy unset
}

// newCorunMix validates a mix on dataset d and resolves its groups.
func (s *Session) newCorunMix(d dataset, reorderName string, appNames []string, weights []int, layout apps.Layout) (*corunMix, error) {
	if len(appNames) == 0 {
		return nil, fmt.Errorf("exp: co-run needs at least one app")
	}
	if len(appNames) > sim.MaxCorunApps {
		return nil, fmt.Errorf("exp: co-run of %d apps exceeds the maximum %d", len(appNames), sim.MaxCorunApps)
	}
	if weights == nil {
		weights = make([]int, len(appNames))
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != len(appNames) {
		return nil, fmt.Errorf("exp: co-run has %d apps but %d weights", len(appNames), len(weights))
	}
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("exp: co-run app %d (%s) has weight %d, want >= 1", i, appNames[i], w)
		}
	}
	m := &corunMix{apps: appNames, weights: weights, layout: layout, stream: make([]int, len(appNames)),
		base: group(d, reorderName, strings.Join(appNames, "+"), layout).of(kindCorun, "")}
	m.base.weights = fmt.Sprint(weights)
	index := make(map[string]int, len(appNames))
	for i, app := range appNames {
		gi, ok := index[app]
		if !ok {
			gi = len(m.groups)
			index[app] = gi
			m.groups = append(m.groups, group(d, reorderName, app, layout))
		}
		m.stream[i] = gi
	}
	return m, nil
}

// coruns returns the mix's result under every listed policy, claimed at
// once: the policies this caller leads are computed by ONE corunFanOut, so
// a lone request is a fan-out of one and the sweep's per-mix step one
// merge for all its policies. Nothing is published unless the whole
// fan-out succeeded. An unknown policy is refused before any work.
func (s *Session) coruns(ctx context.Context, m *corunMix, policies []string) ([]sim.CorunResult, error) {
	keys := make([]artifactKey, len(policies))
	for i, policy := range policies {
		if _, err := sim.PolicyByName(policy); err != nil {
			return nil, err
		}
		keys[i] = m.base.of(kindCorun, policy)
	}
	return getEach(ctx, s.art, keys, func(led []int) ([]sim.CorunResult, []int64, error) {
		rs, err := s.corunFanOut(ctx, m, pick(policies, led))
		if err == nil {
			s.corunRun.Add(uint64(len(led)))
		}
		return rs, nil, err
	})
}

// corunFanOut computes the mix under every listed policy from ONE merge of
// its recordings. Solo baselines come first, one results fan-out per
// group — each the replay of the SAME recording the co-run merges. Then the
// mix's recordings are fetched once, for the whole fan-out, and a single
// timed sim.CorunBroadcastResultsCtx serves all the policies. The dataset
// name the results carry is the first stream's solo baseline's: no
// workload is prepared here that the recordings did not already need.
func (s *Session) corunFanOut(ctx context.Context, m *corunMix, policies []string) ([]sim.CorunResult, error) {
	solos := make([][]sim.Result, len(m.groups))
	for gi, g := range m.groups {
		specs := make([]sim.Spec, len(policies))
		for p, policy := range policies {
			specs[p] = s.spec(g, policy, 0)
		}
		var err error
		if solos[gi], err = s.results(ctx, g, specs); err != nil {
			return nil, err
		}
	}
	pols := make([]sim.CorunPolicy, len(policies))
	for p, policy := range policies {
		pols[p] = sim.CorunPolicy{Name: policy, Solos: make([]sim.Result, len(m.apps))}
		for i, gi := range m.stream {
			pols[p].Solos[i] = solos[gi][p]
		}
	}
	recs := make([]recording, len(m.groups))
	for gi, g := range m.groups {
		var err error
		if recs[gi], err = s.recording(ctx, g); err != nil {
			return nil, err
		}
	}
	streams := make([]sim.CorunStream, len(m.apps))
	for i, gi := range m.stream {
		streams[i] = sim.CorunStream{App: m.apps[i], Layout: m.layout, Weight: m.weights[i],
			Trace: recs[gi].tr, Bounds: recs[gi].bounds}
	}
	start := time.Now()
	out, err := sim.CorunBroadcastResultsCtx(ctx, streams, pols, s.Cfg.HCfg, pols[0].Solos[0].Workload)
	s.phase.corun.Add(int64(time.Since(start)))
	return out, err
}

// corunMixes returns the experiment's co-runner mixes in sweep order: the
// {2,4,8}-way combinations of the four kernels (the 8-way mix doubles
// each kernel — two instances of one app are two independent streams).
func corunMixes() [][]string {
	return [][]string{
		{"BFS", "PR"},
		{"KCore", "TC"},
		{"BFS", "PR", "KCore", "TC"},
		{"BFS", "PR", "KCore", "TC", "BFS", "PR", "KCore", "TC"},
	}
}

// corunApps returns the distinct kernels appearing in any mix, in a fixed
// order (the solo-baseline matrix).
func corunApps() []string { return []string{"BFS", "PR", "KCore", "TC"} }

// corunPolicies are the policies of the co-run sweep: the baseline and
// every scheme.
func corunPolicies() []string { return append([]string{"RRIP"}, registeredSchemes()...) }

// corunPoints declares the sweep's cells: the solo-baseline matrix —
// every policy x kernel x high-skew dataset under DBG, which Prefetch
// computes in one results fan-out per (dataset, app) group,
// recording each once — and then every mix's co-run cell per policy and
// dataset, which Prefetch computes in one coruns call per (dataset, mix)
// from those same recordings and baselines.
func corunPoints() []Datapoint {
	pts := matrixPoints(highSkewNames(), "DBG", corunApps(), registeredSchemes())
	for _, mix := range corunMixes() {
		for _, pol := range corunPolicies() {
			for _, ds := range highSkewNames() {
				pts = append(pts, Datapoint{DS: ds, Reorder: "DBG", App: mix[0], Layout: apps.LayoutMerged,
					Policy: pol, Corun: strings.Join(mix[1:], "+")})
			}
		}
	}
	return pts
}

// mixLabel renders a mix for table headers: "BFS+PR", "2x(BFS+PR+...)"
// for the doubled 8-way mix.
func mixLabel(mix []string) string {
	half := len(mix) / 2
	if half > 0 && len(mix)%2 == 0 {
		doubled := true
		for i := 0; i < half; i++ {
			if mix[i] != mix[half+i] {
				doubled = false
				break
			}
		}
		if doubled {
			return "2x(" + strings.Join(mix[:half], "+") + ")"
		}
	}
	return strings.Join(mix, "+")
}

// runCorun renders the co-run sweep from the cells Prefetch settled: for
// every mix, one table of weighted speedup (higher is better; ideal = mix
// size) and one of unfairness (lower is better; 1 = perfectly fair) per
// policy x dataset, then a per-app interference detail for the 4-way mix
// under the baseline and GRASP on the first dataset.
func runCorun(s *Session, w io.Writer) error {
	datasets := highSkewNames()
	policies := corunPolicies()
	mixes := corunMixes()
	for _, mix := range mixes {
		ws := stats.NewTable(append([]string{"Policy"}, append(append([]string{}, datasets...), "Mean")...)...)
		unf := stats.NewTable(append([]string{"Policy"}, append(append([]string{}, datasets...), "Mean")...)...)
		for _, pol := range policies {
			wsRow, unfRow := []string{pol}, []string{pol}
			var wsVals, unfVals []float64
			for _, ds := range datasets {
				r, err := s.CorunResultCtx(context.Background(), ds, "DBG", mix, nil, apps.LayoutMerged, pol)
				if err != nil {
					return err
				}
				wsVals = append(wsVals, r.WeightedSpeedup)
				unfVals = append(unfVals, r.Unfairness)
				wsRow = append(wsRow, fmt.Sprintf("%.2f", r.WeightedSpeedup))
				unfRow = append(unfRow, fmt.Sprintf("%.2f", r.Unfairness))
			}
			wsRow = append(wsRow, fmt.Sprintf("%.2f", stats.Mean(wsVals)))
			unfRow = append(unfRow, fmt.Sprintf("%.2f", stats.Mean(unfVals)))
			ws.AddRow(wsRow...)
			unf.AddRow(unfRow...)
		}
		if _, err := fmt.Fprintf(w, "Co-run %s: weighted speedup (ideal %d)\n%s\n", mixLabel(mix), len(mix), ws); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "Co-run %s: unfairness (max/min slowdown, 1 = fair)\n%s\n", mixLabel(mix), unf); err != nil {
			return err
		}
	}
	// Per-app detail: who pays for the contention, under the baseline and
	// under GRASP, on the 4-way mix.
	detailMix := mixes[2]
	detailDS := datasets[0]
	for _, pol := range []string{"RRIP", "GRASP"} {
		r, err := s.CorunResultCtx(context.Background(), detailDS, "DBG", detailMix, nil, apps.LayoutMerged, pol)
		if err != nil {
			return err
		}
		t := stats.NewTable("App", "SoloMiss%", "CorunMiss%", "Delta", "Slowdown")
		for _, a := range r.Apps {
			t.AddRow(a.App,
				fmt.Sprintf("%.2f", a.Solo.LLC.MissRatio()*100),
				fmt.Sprintf("%.2f", a.LLC.MissRatio()*100),
				fmt.Sprintf("%+.2f", a.MissRateDelta()*100),
				fmt.Sprintf("%.3f", a.Slowdown))
		}
		if _, err := fmt.Fprintf(w, "Per-app interference, %s on %s under %s\n%s\n", mixLabel(detailMix), detailDS, pol, t); err != nil {
			return err
		}
	}
	return nil
}
