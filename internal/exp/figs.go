package exp

import (
	"fmt"
	"io"

	"grasp/internal/apps"
	"grasp/internal/stats"
)

// column is one scheme of a matrix figure, scored over RRIP under the
// column's own reordering.
type column struct {
	header, reorder, scheme string
}

// under returns one column per scheme, all under one reordering, each
// headed by its scheme's name.
func under(reorderName string, schemes ...string) []column {
	out := make([]column, len(schemes))
	for i, scheme := range schemes {
		out[i] = column{header: scheme, reorder: reorderName, scheme: scheme}
	}
	return out
}

// matrix is one scheme-over-RRIP figure: for every (app, dataset) row each
// column's scheme is scored over RRIP under the column's reordering — as a
// speed-up aggregated by geometric mean (as the paper reports), or as a
// miss reduction aggregated by arithmetic mean — and a last row holds the
// aggregates. The one declaration is both the cells the figure reads
// (points, for a prefetch) and the table it renders (run), and values
// hands the rendered numbers to the claims table (claims_test.go).
type matrix struct {
	title    string // printed above the table
	datasets []string
	cols     []column
	speedup  bool   // speed-ups and their GM; false: miss reductions and their mean
	aggLabel string // the aggregate row's App cell
}

// matrixValues are a matrix's numbers: cells[r][c] is row r's value under
// column c, rows in (app-major, dataset-minor) order, and agg[c] is column
// c's aggregate.
type matrixValues struct {
	rows  [][2]string // (app, dataset)
	cells [][]float64
	agg   []float64
}

// points declares every cell the matrix reads, each once: per row and
// column, the column's scheme and the RRIP baseline under its reordering.
func (m matrix) points() []Datapoint {
	seen := make(map[Datapoint]bool)
	var out []Datapoint
	for _, app := range apps.Names() {
		for _, ds := range m.datasets {
			for _, c := range m.cols {
				for _, policy := range []string{"RRIP", c.scheme} {
					p := Datapoint{DS: ds, Reorder: c.reorder, App: app, Layout: apps.LayoutMerged, Policy: policy}
					if !seen[p] {
						seen[p] = true
						out = append(out, p)
					}
				}
			}
		}
	}
	return out
}

// values computes the matrix's numbers from the session's results. A
// caller has prefetched points, so every read is a cache hit; on a cold
// session each read computes its cell, and the first error is the one a
// sequential pass over points would report.
func (m matrix) values(s *Session) (matrixValues, error) {
	v := matrixValues{agg: make([]float64, len(m.cols))}
	byCol := make([][]float64, len(m.cols))
	for _, app := range apps.Names() {
		for _, ds := range m.datasets {
			row := make([]float64, len(m.cols))
			for i, c := range m.cols {
				base, err := s.Result(ds, c.reorder, app, apps.LayoutMerged, "RRIP")
				if err != nil {
					return matrixValues{}, err
				}
				r, err := s.Result(ds, c.reorder, app, apps.LayoutMerged, c.scheme)
				if err != nil {
					return matrixValues{}, err
				}
				if m.speedup {
					row[i] = r.SpeedupPctOver(base)
				} else {
					row[i] = r.MissReductionPctOver(base)
				}
				byCol[i] = append(byCol[i], row[i])
			}
			v.rows = append(v.rows, [2]string{app, ds})
			v.cells = append(v.cells, row)
		}
	}
	for i, vals := range byCol {
		if m.speedup {
			v.agg[i] = stats.GeoMeanSpeedupPct(vals)
		} else {
			v.agg[i] = stats.Mean(vals)
		}
	}
	return v, nil
}

// run renders the matrix: its title, then one table row per (app,
// dataset) and the aggregate row, every value to one decimal.
func (m matrix) run(s *Session, w io.Writer) error {
	v, err := m.values(s)
	if err != nil {
		return err
	}
	header := []string{"App", "Dataset"}
	for _, c := range m.cols {
		header = append(header, c.header)
	}
	t := stats.NewTable(header...)
	for r, row := range v.rows {
		t.AddValues(row[:], v.cells[r])
	}
	t.AddValues([]string{m.aggLabel, "all"}, v.agg)
	if _, err := fmt.Fprintln(w, m.title); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, t)
	return err
}

// priorSchemes are the state-of-the-art history-based schemes of Figs. 5-6.
var priorSchemes = []string{"SHiP-MEM", "Hawkeye", "Leeway", "GRASP"}

// fig5 regenerates Fig. 5: % LLC misses eliminated over the RRIP baseline
// (DBG reordering). Paper averages: GRASP +6.4, Leeway +1.1, SHiP-MEM
// -4.8, Hawkeye -22.7.
var fig5 = matrix{
	title:    "% LLC misses eliminated over RRIP (higher is better)",
	datasets: highSkewNames(),
	cols:     under("DBG", priorSchemes...),
	aggLabel: "GM/avg",
}

// fig6 regenerates Fig. 6: speed-up over RRIP. It reads fig5's cells, so a
// batch holding both simulates them once. Paper averages: GRASP +5.2,
// Leeway +0.9, SHiP-MEM -5.5, Hawkeye -16.2.
var fig6 = matrix{
	title:    "Speed-up (%) over RRIP (higher is better)",
	datasets: highSkewNames(),
	cols:     under("DBG", priorSchemes...),
	speedup:  true,
	aggLabel: "GM/avg",
}

// fig7 regenerates Fig. 7: the GRASP feature ablation. Paper averages:
// RRIP+Hints +3.3, Insertion-Only +5.0, full GRASP +5.2.
var fig7 = matrix{
	title:    "Speed-up (%) over RRIP: GRASP feature ablation",
	datasets: highSkewNames(),
	cols:     under("DBG", "RRIP+Hints", "GRASP (Insertion-Only)", "GRASP"),
	speedup:  true,
	aggLabel: "GM/avg",
}

// fig8 regenerates Fig. 8: pinning configurations vs GRASP on the
// high-skew datasets. Paper averages: PIN-25 +0.4, PIN-50 +1.1,
// PIN-75 +2.0, PIN-100 +2.5, GRASP +5.2.
var fig8 = matrix{
	title:    "Speed-up (%) over RRIP: pinning vs GRASP, high-skew datasets",
	datasets: highSkewNames(),
	cols:     under("DBG", "PIN-25", "PIN-50", "PIN-75", "PIN-100", "GRASP"),
	speedup:  true,
	aggLabel: "GM/avg",
}

// fig9 regenerates Fig. 9: robustness on the adversarial low-skew (fr)
// and no-skew (uni) datasets. Paper: GRASP -0.1..+4.3, pinning negative on
// almost all datapoints.
var fig9 = matrix{
	title:    "Speed-up (%) over RRIP: low-/no-skew datasets",
	datasets: []string{"fr", "uni"},
	cols:     under("DBG", "PIN-75", "PIN-100", "GRASP"),
	speedup:  true,
	aggLabel: "GM/avg",
}

// fig10b regenerates Fig. 10b: GRASP's speed-up over RRIP when both run on
// top of each reordering technique (Gorder is made GRASP-compatible by a
// DBG pass, Sec. V-C). Paper averages: +4.4 (Sort), +4.2 (HubSort),
// +5.2 (DBG), +5.0 (Gorder+DBG).
var fig10b = matrix{
	title:    "GRASP speed-up (%) over RRIP on top of each reordering technique",
	datasets: highSkewNames(),
	cols: []column{
		{header: "Sort", reorder: "Sort", scheme: "GRASP"},
		{header: "HubSort", reorder: "HubSort", scheme: "GRASP"},
		{header: "DBG", reorder: "DBG", scheme: "GRASP"},
		{header: "Gorder+DBG", reorder: "Gorder+DBG", scheme: "GRASP"},
	},
	speedup:  true,
	aggLabel: "GM",
}

// noReorder reproduces the Sec. V-A side experiment: prior schemes
// evaluated without any vertex reordering. Paper averages: Leeway -0.8,
// SHiP-MEM -5.7, Hawkeye -14.8 over RRIP.
var noReorder = matrix{
	title:    "Speed-up (%) over RRIP with NO vertex reordering",
	datasets: highSkewNames(),
	cols:     under("Identity", priorSchemes...),
	speedup:  true,
	aggLabel: "GM/avg",
}

// ablationSHiP compares SHiP-PC (PC signatures, useless for graph
// analytics per Sec. II-F) against the SHiP-MEM variant the paper
// evaluates.
var ablationSHiP = matrix{
	title:    "Speed-up (%) over RRIP: PC- vs region-signature SHiP",
	datasets: highSkewNames(),
	cols:     under("DBG", "SHiP-PC", "SHiP-MEM"),
	speedup:  true,
	aggLabel: "GM",
}
