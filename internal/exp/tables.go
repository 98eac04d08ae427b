package exp

import (
	"context"
	"fmt"
	"io"

	"grasp/internal/apps"
	"grasp/internal/graph"
	"grasp/internal/stats"
)

// runTable1 regenerates Table I: hot-vertex percentage and edge coverage
// for in- and out-edges of every dataset. Paper values for the high-skew
// datasets: 9-26% hot vertices covering 81-93% of edges.
func runTable1(s *Session, w io.Writer) error {
	t := stats.NewTable("Dataset", "In Hot(%)", "In EdgeCov(%)", "Out Hot(%)", "Out EdgeCov(%)", "AvgDeg")
	for _, ds := range graph.Datasets() {
		sk, err := s.skew(s.dataset(ds.Name), nil)
		if err != nil {
			return err
		}
		in, out := sk[0], sk[1]
		t.AddRowf(ds.Name, in.HotVertexPct, in.EdgeCoverPct, out.HotVertexPct, out.EdgeCoverPct, out.AvgDegree)
	}
	_, err := fmt.Fprintln(w, t)
	return err
}

// skew returns Table I's row of dataset d: the in- and out-degree skew of
// its unweighted graph, computed from g or, if g is nil, from a load of
// its own. Degree sums do not depend on vertex ids, so every unweighted
// workload's load settles the row as the workload is prepared: a sweep's
// table1 reads no workload and prepares none.
func (s *Session) skew(d dataset, g *graph.CSR) ([2]graph.SkewStats, error) {
	return get(context.Background(), s.art, artifactKey{ds: d, kind: kindSkew}, func() ([2]graph.SkewStats, int64, error) {
		if g == nil {
			ds, err := graph.Resolve(d.name)
			if err == nil {
				g, err = s.load(ds, false)
			}
			if err != nil {
				return [2]graph.SkewStats{}, 0, err
			}
		}
		return [2]graph.SkewStats{graph.InSkew(g), graph.OutSkew(g)}, 0, nil
	})
}

// table4Points declares Table IV's matrix: both layouts under RRIP for the
// apps with a merging opportunity.
func table4Points() []Datapoint {
	var out []Datapoint
	for _, app := range apps.Names() {
		if app == "BC" || app == "Radii" {
			continue
		}
		for _, ds := range highSkewNames() {
			out = append(out,
				Datapoint{DS: ds, Reorder: "Identity", App: app, Layout: apps.LayoutSplit, Policy: "RRIP"},
				Datapoint{DS: ds, Reorder: "Identity", App: app, Layout: apps.LayoutMerged, Policy: "RRIP"})
		}
	}
	return out
}

// runTable4 regenerates Table IV: speed-up of the merged Property-Array
// layout over the split layout for the apps with a merging opportunity
// (SSSP, PR, PRD), under the RRIP baseline with no reordering (the
// optimization is applied to the original Ligra implementation).
// Paper: SSSP 3-8%, PR 40-52%, PRD 14-49%; BC and Radii: no opportunity.
func runTable4(s *Session, w io.Writer) error {
	t := stats.NewTable("Application", "Merging?", "Speed-up range across datasets")
	for _, app := range apps.Names() {
		if app == "BC" || app == "Radii" {
			t.AddRow(app, "No", "-")
			continue
		}
		var lo, hi float64
		first := true
		for _, ds := range highSkewNames() {
			split, err := s.Result(ds, "Identity", app, apps.LayoutSplit, "RRIP")
			if err != nil {
				return err
			}
			merged, err := s.Result(ds, "Identity", app, apps.LayoutMerged, "RRIP")
			if err != nil {
				return err
			}
			sp := merged.SpeedupPctOver(split)
			if first || sp < lo {
				lo = sp
			}
			if first || sp > hi {
				hi = sp
			}
			first = false
		}
		t.AddRow(app, "Yes", fmt.Sprintf("%.1f%% .. %.1f%%", lo, hi))
	}
	_, err := fmt.Fprintln(w, t)
	return err
}

// fig2Points declares Fig. 2's datapoints: the RRIP baseline on pl and tw
// across all applications.
func fig2Points() []Datapoint {
	var out []Datapoint
	for _, ds := range []string{"pl", "tw"} {
		for _, app := range apps.Names() {
			out = append(out, Datapoint{DS: ds, Reorder: "Identity", App: app,
				Layout: apps.LayoutMerged, Policy: "RRIP"})
		}
	}
	return out
}

// runFig2 regenerates Fig. 2: the classification of LLC accesses and
// misses as falling within or outside the Property Array, normalized to
// total LLC accesses, for the pl and tw datasets across all applications.
// Paper: the Property Array accounts for 78-94% of LLC accesses.
func runFig2(s *Session, w io.Writer) error {
	t := stats.NewTable("Dataset", "App", "Acc-in(%)", "Acc-out(%)", "Miss-in(%)", "Miss-out(%)")
	for _, ds := range []string{"pl", "tw"} {
		for _, app := range apps.Names() {
			r, err := s.Result(ds, "Identity", app, apps.LayoutMerged, "RRIP")
			if err != nil {
				return err
			}
			total := float64(r.LLC.Accesses())
			if total == 0 {
				continue
			}
			accIn := float64(r.LLC.PropHits+r.LLC.PropMisses) / total * 100
			missIn := float64(r.LLC.PropMisses) / total * 100
			missOut := float64(r.LLC.Misses-r.LLC.PropMisses) / total * 100
			t.AddRowf(ds, app, accIn, 100-accIn, missIn, missOut)
		}
	}
	_, err := fmt.Fprintln(w, t)
	return err
}
