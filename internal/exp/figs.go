package exp

import (
	"fmt"
	"io"

	"grasp/internal/apps"
	"grasp/internal/stats"
)

// schemeMatrix renders schemes over all (app, dataset) datapoints with the
// given reordering, aggregating per-scheme metric values in (app-major,
// dataset-minor) order. Its callers declare the matrix in Points(), so a
// driver has prefetched it on the worker pool and the loop below only
// reads cached results (on a cold session each read computes its cell,
// reporting the first error at the datapoint a sequential pass would).
func (s *Session) schemeMatrix(datasets []string, reorderName string, schemes []string,
	speedup bool, w io.Writer, title string) error {
	t := stats.NewTable(append([]string{"App", "Dataset"}, schemes...)...)
	agg := make(map[string][]float64)
	for _, app := range apps.Names() {
		for _, ds := range datasets {
			base, err := s.Result(ds, reorderName, app, apps.LayoutMerged, "RRIP")
			if err != nil {
				return err
			}
			row := []string{app, ds}
			for _, scheme := range schemes {
				r, err := s.Result(ds, reorderName, app, apps.LayoutMerged, scheme)
				if err != nil {
					return err
				}
				var v float64
				if speedup {
					v = r.SpeedupPctOver(base)
				} else {
					v = r.MissReductionPctOver(base)
				}
				agg[scheme] = append(agg[scheme], v)
				row = append(row, fmt.Sprintf("%.1f", v))
			}
			t.AddRow(row...)
		}
	}
	// Aggregate row: geometric mean for speed-ups (as the paper reports),
	// arithmetic mean for miss reductions.
	aggRow := []string{"GM/avg", "all"}
	for _, scheme := range schemes {
		if speedup {
			aggRow = append(aggRow, fmt.Sprintf("%.1f", stats.GeoMeanSpeedupPct(agg[scheme])))
		} else {
			aggRow = append(aggRow, fmt.Sprintf("%.1f", stats.Mean(agg[scheme])))
		}
	}
	t.AddRow(aggRow...)
	if title != "" {
		if _, err := fmt.Fprintln(w, title); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, t)
	return err
}

// priorSchemes are the state-of-the-art history-based schemes of Figs. 5-6.
var priorSchemes = []string{"SHiP-MEM", "Hawkeye", "Leeway", "GRASP"}

// Datapoint declarations for RunAll's batch fan-out. Fig. 5 and Fig. 6
// share one declaration: they read identical simulations and differ only
// in the reported metric, so a batch containing both simulates the matrix
// once.
func fig5Points() []Datapoint {
	return matrixPoints(highSkewNames(), "DBG", apps.Names(), priorSchemes)
}

func fig7Points() []Datapoint {
	return matrixPoints(highSkewNames(), "DBG", apps.Names(),
		[]string{"RRIP+Hints", "GRASP (Insertion-Only)", "GRASP"})
}

func fig8Points() []Datapoint {
	return matrixPoints(highSkewNames(), "DBG", apps.Names(),
		[]string{"PIN-25", "PIN-50", "PIN-75", "PIN-100", "GRASP"})
}

func fig9Points() []Datapoint {
	return matrixPoints([]string{"fr", "uni"}, "DBG", apps.Names(),
		[]string{"PIN-75", "PIN-100", "GRASP"})
}

func noReorderPoints() []Datapoint {
	return matrixPoints(highSkewNames(), "Identity", apps.Names(),
		[]string{"SHiP-MEM", "Hawkeye", "Leeway", "GRASP"})
}

// runFig5 regenerates Fig. 5: % LLC misses eliminated over the RRIP
// baseline (DBG reordering). Paper averages: GRASP +6.4, Leeway +1.1,
// SHiP-MEM -4.8, Hawkeye -22.7.
func runFig5(s *Session, w io.Writer) error {
	return s.schemeMatrix(highSkewNames(), "DBG", priorSchemes, false, w,
		"% LLC misses eliminated over RRIP (higher is better)")
}

// runFig6 regenerates Fig. 6: speed-up over RRIP. Paper averages:
// GRASP +5.2, Leeway +0.9, SHiP-MEM -5.5, Hawkeye -16.2.
func runFig6(s *Session, w io.Writer) error {
	return s.schemeMatrix(highSkewNames(), "DBG", priorSchemes, true, w,
		"Speed-up (%) over RRIP (higher is better)")
}

// runFig7 regenerates Fig. 7: the GRASP feature ablation. Paper averages:
// RRIP+Hints +3.3, Insertion-Only +5.0, full GRASP +5.2.
func runFig7(s *Session, w io.Writer) error {
	return s.schemeMatrix(highSkewNames(), "DBG",
		[]string{"RRIP+Hints", "GRASP (Insertion-Only)", "GRASP"}, true, w,
		"Speed-up (%) over RRIP: GRASP feature ablation")
}

// runFig8 regenerates Fig. 8: pinning configurations vs GRASP on the
// high-skew datasets. Paper averages: PIN-25 +0.4, PIN-50 +1.1,
// PIN-75 +2.0, PIN-100 +2.5, GRASP +5.2.
func runFig8(s *Session, w io.Writer) error {
	return s.schemeMatrix(highSkewNames(), "DBG",
		[]string{"PIN-25", "PIN-50", "PIN-75", "PIN-100", "GRASP"}, true, w,
		"Speed-up (%) over RRIP: pinning vs GRASP, high-skew datasets")
}

// runFig9 regenerates Fig. 9: robustness on the adversarial low-skew (fr)
// and no-skew (uni) datasets. Paper: GRASP -0.1..+4.3, pinning negative on
// almost all datapoints.
func runFig9(s *Session, w io.Writer) error {
	return s.schemeMatrix([]string{"fr", "uni"}, "DBG",
		[]string{"PIN-75", "PIN-100", "GRASP"}, true, w,
		"Speed-up (%) over RRIP: low-/no-skew datasets")
}

// runNoReorder reproduces the Sec. V-A side experiment: prior schemes
// evaluated without any vertex reordering. Paper averages: Leeway -0.8,
// SHiP-MEM -5.7, Hawkeye -14.8 over RRIP.
func runNoReorder(s *Session, w io.Writer) error {
	return s.schemeMatrix(highSkewNames(), "Identity",
		[]string{"SHiP-MEM", "Hawkeye", "Leeway", "GRASP"}, true, w,
		"Speed-up (%) over RRIP with NO vertex reordering")
}
