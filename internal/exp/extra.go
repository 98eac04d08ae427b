package exp

import (
	"context"
	"fmt"
	"io"

	"grasp/internal/apps"
	"grasp/internal/sim"
	"grasp/internal/stats"
)

// Extra experiments beyond the paper's figures: ablations of GRASP's
// design choices called out in DESIGN.md, the generality of GRASP across
// base replacement schemes and the PC- vs region-signature comparison for
// SHiP.

// regionScales are the High/Moderate Reuse Region sizes the region
// ablation sweeps, as multiples of the LLC capacity (1 = the paper).
var regionScales = []float64{0.25, 0.5, 1, 2, 4}

// ablationRegionPoints declares the region-size ablation's cells: the
// RRIP baselines and GRASP at every scale, all of the (dataset, PR, DBG)
// group, so run alone the experiment executes PageRank once per dataset
// and replays it in one fan-out.
func ablationRegionPoints() []Datapoint {
	pts := matrixPoints(highSkewNames(), "DBG", []string{"PR"}, nil)
	for _, ds := range highSkewNames() {
		for _, scale := range regionScales {
			pts = append(pts, Datapoint{DS: ds, Reorder: "DBG", App: "PR", Layout: apps.LayoutMerged,
				Policy: "GRASP", RegionScale: scale})
		}
	}
	return pts
}

// regionResults returns group g's GRASP result at every listed region
// scale: result cells like any other, the 1x one the plain GRASP cell.
func (s *Session) regionResults(g artifactKey, scales []float64) ([]sim.Result, error) {
	specs := make([]sim.Spec, len(scales))
	for i, scale := range scales {
		specs[i] = s.spec(g, "GRASP", scale)
	}
	return s.results(context.Background(), g, specs)
}

// regionReductions returns, per high-skew dataset, GRASP's PR miss
// reduction (%) over RRIP at every regionScales size: the numbers the
// region ablation renders and its claims row reads.
func regionReductions(s *Session) ([][]float64, error) {
	var out [][]float64
	for _, dsName := range highSkewNames() {
		cells, err := s.regionResults(group(s.dataset(dsName), "DBG", "PR", apps.LayoutMerged), regionScales)
		if err != nil {
			return nil, err
		}
		base, err := s.Result(dsName, "DBG", "PR", apps.LayoutMerged, "RRIP")
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(cells))
		for i, r := range cells {
			row[i] = r.MissReductionPctOver(base)
		}
		out = append(out, row)
	}
	return out, nil
}

// runAblationRegion renders the High/Moderate Reuse Region size sweep
// (the paper's design point: exactly LLC-sized regions) on PR over the
// high-skew datasets.
func runAblationRegion(s *Session, w io.Writer) error {
	rows, err := regionReductions(s)
	if err != nil {
		return err
	}
	t := stats.NewTable("Dataset", "0.25x", "0.5x", "1x (paper)", "2x", "4x")
	for d, dsName := range highSkewNames() {
		t.AddValues([]string{dsName}, rows[d])
	}
	if _, err := fmt.Fprintln(w, "GRASP miss reduction (%) over RRIP vs High-Reuse-Region size (PR)"); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, t)
	return err
}

// basePairs are the (GRASP variant, base scheme) pairs of the Sec. III-C
// generality ablation.
var basePairs = [][2]string{
	{"GRASP", "RRIP"},
	{"GRASP-LRU", "LRU"},
	{"GRASP-PLRU", "PLRU"},
	{"GRASP-DIP", "DIP"},
}

// ablationBasesPoints declares every variant and base scheme on PR over
// the high-skew datasets.
func ablationBasesPoints() []Datapoint {
	schemes := []string{}
	for _, p := range basePairs {
		schemes = append(schemes, p[0], p[1])
	}
	return matrixPoints(highSkewNames(), "DBG", []string{"PR"}, schemes)
}

// runAblationBases evaluates GRASP over its alternative base schemes
// (Sec. III-C: "not fundamentally dependent on RRIP"), reporting speed-up
// of each GRASP variant over ITS OWN base scheme.
func runAblationBases(s *Session, w io.Writer) error {
	t := stats.NewTable("Dataset", "over RRIP", "over LRU", "over PLRU", "over DIP")
	agg := make(map[string][]float64)
	for _, dsName := range highSkewNames() {
		row := []string{dsName}
		for _, p := range basePairs {
			g, err := s.Result(dsName, "DBG", "PR", apps.LayoutMerged, p[0])
			if err != nil {
				return err
			}
			b, err := s.Result(dsName, "DBG", "PR", apps.LayoutMerged, p[1])
			if err != nil {
				return err
			}
			sp := g.SpeedupPctOver(b)
			agg[p[0]] = append(agg[p[0]], sp)
			row = append(row, fmt.Sprintf("%.1f", sp))
		}
		t.AddRow(row...)
	}
	gm := []string{"GM"}
	for _, p := range basePairs {
		gm = append(gm, fmt.Sprintf("%.1f", stats.GeoMeanSpeedupPct(agg[p[0]])))
	}
	t.AddRow(gm...)
	if _, err := fmt.Fprintln(w, "GRASP speed-up (%) over each base scheme (PR, high-skew)"); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, t)
	return err
}
