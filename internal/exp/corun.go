// The co-run experiment (DESIGN.md Sec. 15): multi-programmed mixes of
// the graph kernels contending for one shared LLC, replayed from the
// session's record-once traces. Each app in a mix is recorded exactly
// once (the same recording that backs its solo results), so a sweep of
// every policy over every mix pays one application execution per app,
// not one per cell — the co-run lift of the broadcast fan-out economics.
package exp

import (
	"context"
	"fmt"
	"io"
	"strings"

	"grasp/internal/apps"
	"grasp/internal/sim"
	"grasp/internal/stats"
)

// CorunRuns returns how many distinct shared-LLC co-run replays the
// session has computed (cache hits and merged requests do not count) —
// the co-run twin of SimRuns, surfaced by graspd /metrics.
func (s *Session) CorunRuns() uint64 { return s.corunRun.Load() }

// CorunResult is CorunResultCtx without cancellation.
func (s *Session) CorunResult(dsName, reorderName string, appNames []string, weights []int, layout apps.Layout, policy string) (sim.CorunResult, error) {
	return s.CorunResultCtx(context.Background(), dsName, reorderName, appNames, weights, layout, policy)
}

// CorunResultCtx returns the interference metrics of one co-run mix: the
// named apps' recorded streams interleaved round-robin (weights[i]
// accesses per turn; nil = uniform) into one shared LLC under the given
// policy, each app scored against its own solo replay of the same
// recording. Results cache per (dataset, reorder, mix, weights, layout,
// policy) and never alias solo results; the solo baselines themselves go
// through the ordinary result cache, so a co-run warms the solo sweep
// and vice versa. Apps may repeat in the mix (two copies of PR are two
// streams over one recording).
func (s *Session) CorunResultCtx(ctx context.Context, dsName, reorderName string, appNames []string, weights []int, layout apps.Layout, policy string) (sim.CorunResult, error) {
	if len(appNames) == 0 {
		return sim.CorunResult{}, fmt.Errorf("exp: co-run needs at least one app")
	}
	if weights == nil {
		weights = make([]int, len(appNames))
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != len(appNames) {
		return sim.CorunResult{}, fmt.Errorf("exp: co-run has %d apps but %d weights", len(appNames), len(weights))
	}
	// Solo baselines first, via the ordinary result cache. viaTrace is
	// forced: the co-run replays the recordings, so each baseline must be
	// the replay of the SAME recording (identical anyway, by the
	// replay-equivalence invariant).
	d := s.dataset(dsName)
	solos := make(map[string]sim.Result, len(appNames))
	var groups []artifactKey // the mix's distinct apps, in first-appearance order
	for _, app := range appNames {
		if _, ok := solos[app]; ok {
			continue
		}
		g := group(d, reorderName, app, layout)
		solo, err := s.result(ctx, g, policy, true)
		if err != nil {
			return sim.CorunResult{}, err
		}
		solos[app] = solo
		groups = append(groups, g)
	}
	k := group(d, reorderName, strings.Join(appNames, "+"), layout).of(kindCorun, policy)
	k.weights = fmt.Sprint(weights)
	return derive(ctx, s, k, groups, &s.phase.corun, &s.corunRun,
		func(w *sim.Workload, recs []recording) (sim.CorunResult, error) {
			recOf := make(map[string]recording, len(groups))
			for i, g := range groups {
				recOf[g.app] = recs[i]
			}
			streams := make([]sim.CorunStream, len(appNames))
			for i, app := range appNames {
				streams[i] = sim.CorunStream{App: app, Layout: layout, Weight: weights[i],
					Trace: recOf[app].tr, Bounds: recOf[app].bounds, Solo: solos[app]}
			}
			return sim.CorunReplayResultCtx(ctx, streams, policy, s.Cfg.HCfg, w.Dataset.Name)
		})
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

// corunSchemes returns every registered policy except RRIP (declared
// implicitly by matrixPoints), matching the scenario sweep's coverage
// rule: a policy cannot register without a co-run datapoint.
func corunSchemes() []string {
	var out []string
	for _, p := range sim.Policies() {
		if p.Name != "RRIP" {
			out = append(out, p.Name)
		}
	}
	return out
}

// corunPoints declares the solo-baseline matrix: every policy x kernel x
// high-skew dataset under DBG. Prefetch computes them via the broadcast
// fan-out, recording each (dataset, app) group once — the same recordings
// the co-run replays interleave, so the experiment body's co-runs start
// from warm traces and warm baselines.
func corunPoints() []Datapoint {
	return matrixPoints(highSkewNames(), "DBG", corunApps(), corunSchemes())
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

// runCorun renders the co-run sweep: for every mix, one table of weighted
// speedup (higher is better; ideal = mix size) and one of unfairness
// (lower is better; 1 = perfectly fair) per policy x dataset, then a
// per-app interference detail for the 4-way mix under the baseline and
// GRASP on the first dataset.
func runCorun(s *Session, w io.Writer) error {
	if err := s.Prefetch(corunPoints()); err != nil {
		return err
	}
	datasets := highSkewNames()
	policies := append([]string{"RRIP"}, corunSchemes()...)
	mixes := corunMixes()
	// Fan every (mix, policy, dataset) cell out over the worker pool; the
	// cache makes the sequential rendering below instant. Errors surface
	// on the rendering pass in deterministic order.
	type cell struct {
		mix    int
		policy string
		ds     string
	}
	var cells []cell
	for mi := range mixes {
		for _, pol := range policies {
			for _, ds := range datasets {
				cells = append(cells, cell{mix: mi, policy: pol, ds: ds})
			}
		}
	}
	forEachParallel(len(cells), func(i int) {
		c := cells[i]
		_, _ = s.CorunResult(c.ds, "DBG", mixes[c.mix], nil, apps.LayoutMerged, c.policy)
	})
	for _, mix := range mixes {
		ws := stats.NewTable(append([]string{"Policy"}, append(append([]string{}, datasets...), "Mean")...)...)
		unf := stats.NewTable(append([]string{"Policy"}, append(append([]string{}, datasets...), "Mean")...)...)
		for _, pol := range policies {
			wsRow, unfRow := []string{pol}, []string{pol}
			var wsVals, unfVals []float64
			for _, ds := range datasets {
				r, err := s.CorunResult(ds, "DBG", mix, nil, apps.LayoutMerged, pol)
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
		r, err := s.CorunResult(detailDS, "DBG", detailMix, nil, apps.LayoutMerged, pol)
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
