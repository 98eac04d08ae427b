package exp

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"grasp/internal/apps"
	"grasp/internal/stats"
)

// The claims table: each row is one sentence of the paper's evaluation,
// checked against the typed numbers a figure prints (a matrix's values, the
// OPT study's cells, the helpers the region ablation and the scenario sweep
// render from; never the rendered text) at every scale it lists,
// with the status this reproduction reaches there. A row that changes
// status fails the test either way: a claim that stops holding is a
// regression, and one that starts to hold is a finding to record in
// ROADMAP item 1, not to absorb.

type status string

const (
	holds    status = "holds"
	deviates status = "deviates"
)

// predicate measures a claim on a matrix's numbers: the claim holds while
// x >= -tol of its row. where names the cell or aggregates that decided x.
type predicate func(m matrix, v matrixValues) (x float64, where string)

type claimRow struct {
	id      string // the row's subtest name under TestClaims/1/<div>
	name    string
	points  func() []Datapoint
	measure func(s *Session) (x float64, where string, err error)
	tol     float64           // percentage points the claim may miss by and still hold
	status  map[uint32]status // by scale divisor
}

// matrixClaim is a claim measured on a matrix figure's numbers.
func matrixClaim(id, name string, m matrix, pred predicate, tol float64, st map[uint32]status) claimRow {
	return claimRow{id: id, name: name, points: m.points, tol: tol, status: st,
		measure: func(s *Session) (float64, string, error) {
			v, err := m.values(s)
			if err != nil {
				return 0, "", err
			}
			x, where := pred(m, v)
			return x, where, nil
		}}
}

var claims = []claimRow{
	matrixClaim("fig5-cells", "fig5: GRASP >= RRIP on every high-skew cell", fig5, everyCell("GRASP"), 0,
		map[uint32]status{64: holds, 16: holds}),
	matrixClaim("fig5-means", "fig5: GRASP's mean > the means of SHiP-MEM, Hawkeye and Leeway", fig5,
		aggregateAbove("GRASP", "SHiP-MEM", "Hawkeye", "Leeway"), 0,
		map[uint32]status{64: holds, 16: holds}),
	// Paper: GRASP +5.2 vs PIN-100 +2.5.
	matrixClaim("fig8-gm", "fig8: GRASP's GM >= PIN-100's GM", fig8, aggregateAbove("GRASP", "PIN-100"), 0,
		map[uint32]status{64: deviates, 16: holds}),
	// Paper: "robust", GRASP -0.1 ... +4.3 on fr and uni.
	matrixClaim("fig9-cells", "fig9: GRASP >= -1.5% on every fr/uni cell", fig9, everyCell("GRASP"), 1.5,
		map[uint32]status{64: holds, 16: deviates}),
	// The looser bound fig9-cells misses at 1/16, where the synthetic
	// datasets' skew is weaker: no large slowdown anywhere.
	matrixClaim("fig9-bound5", "fig9: GRASP >= -5% on every fr/uni cell", fig9, everyCell("GRASP"), 5,
		map[uint32]status{64: holds, 16: holds}),
	// Paper: pinning is negative on almost every fr/uni datapoint.
	matrixClaim("fig9-pin100", "fig9: GRASP's mean speed-up >= PIN-100's on fr/uni", fig9,
		meanAbove("GRASP", "PIN-100"), 0, map[uint32]status{64: holds, 16: holds}),
	// Belady's OPT is the lower bound the study measures against.
	{id: "opt-cells", name: "fig11/table7: OPT <= LRU, RRIP and GRASP in every study cell", points: table7Points,
		measure: optBelowEveryPolicy, status: map[uint32]status{64: holds, 16: holds}},
	// Paper: RRIP 15.2%, GRASP 19.7%, OPT 34.3% of LRU's misses eliminated.
	{id: "fig11-means", name: "fig11: mean misses eliminated over LRU, OPT > GRASP > RRIP", points: fig11Points,
		measure: optStudyOrdering, status: map[uint32]status{64: holds, 16: holds}},
	// The paper sizes both regions at exactly one LLC.
	{id: "region", name: "ablation-region: the 1x LLC region is the best of the swept sizes on every high-skew dataset",
		points: ablationRegionPoints, measure: paperRegionBest, status: map[uint32]status{64: deviates, 16: deviates}},
	// Fig. 5's means row, on the extension workloads.
	{id: "scenarios", name: "scenarios: GRASP's KCore/TC mean > the means of SHiP-MEM, Hawkeye and Leeway",
		points: scenarioPoints, measure: scenarioMeanAbove("GRASP", "SHiP-MEM", "Hawkeye", "Leeway"),
		status: map[uint32]status{64: deviates, 16: deviates}},
}

// paperRegionBest measures the worst high-skew dataset: by how many points
// GRASP's miss reduction at the 1x region exceeds the best other size's.
func paperRegionBest(s *Session) (float64, string, error) {
	rows, err := regionReductions(s)
	if err != nil {
		return 0, "", err
	}
	paper := slices.Index(regionScales, 1)
	x, where := math.Inf(1), ""
	for d, row := range rows {
		for i, v := range row {
			if i != paper && row[paper]-v < x {
				x, where = row[paper]-v, fmt.Sprintf("worst dataset %s: 1x %.2f vs %gx %.2f",
					highSkewNames()[d], row[paper], regionScales[i], v)
			}
		}
	}
	return x, where, nil
}

// scenarioMeanAbove measures by how much one policy's scenario mean
// exceeds the largest of the others'.
func scenarioMeanAbove(name string, others ...string) func(s *Session) (float64, string, error) {
	return func(s *Session) (float64, string, error) {
		rows, err := scenarioValues(s)
		if err != nil {
			return 0, "", err
		}
		mean := func(policy string) float64 {
			row := rows[slices.Index(registeredSchemes(), policy)]
			return row[len(row)-1]
		}
		x, where := marginAbove(name, others, mean)
		return x, where, nil
	}
}

// optBelowEveryPolicy measures the worst fig11/table7 study cell: by how
// many points of its LRU misses OPT's misses stay below the fewest of
// LRU's, RRIP's and GRASP's. The ladder's 16MB* geometry is fig11's.
func optBelowEveryPolicy(s *Session) (float64, string, error) {
	x, where := math.Inf(1), ""
	for _, e := range optLadder {
		col, err := s.optColumn(studyLLC(s.Cfg.HCfg.LLC, e.scale))
		if err != nil {
			return 0, "", err
		}
		for _, app := range apps.Names() {
			for _, ds := range highSkewNames() {
				dp := col[[2]string{app, ds}]
				best := min(dp.lru, dp.rrip, dp.grasp)
				if m := elimPct(dp.opt, dp.lru) - elimPct(best, dp.lru); m < x {
					x, where = m, fmt.Sprintf("worst cell %s %s x %s: OPT %d misses, fewest of LRU/RRIP/GRASP %d",
						e.label, app, ds, dp.opt, best)
				}
			}
		}
	}
	return x, where, nil
}

// optStudyOrdering measures fig11's average ordering at the main LLC: by
// how many points the mean of OPT's misses eliminated over LRU exceeds
// GRASP's, or GRASP's exceeds RRIP's, whichever is less.
func optStudyOrdering(s *Session) (float64, string, error) {
	col, err := s.optColumn(studyLLC(s.Cfg.HCfg.LLC, 1))
	if err != nil {
		return 0, "", err
	}
	var rrip, grasp, opt []float64
	for _, app := range apps.Names() { // in fig11's order: float sums must not follow the map's
		for _, ds := range highSkewNames() {
			dp := col[[2]string{app, ds}]
			rrip = append(rrip, elimPct(dp.rrip, dp.lru))
			grasp = append(grasp, elimPct(dp.grasp, dp.lru))
			opt = append(opt, elimPct(dp.opt, dp.lru))
		}
	}
	o, g, r := stats.Mean(opt), stats.Mean(grasp), stats.Mean(rrip)
	return min(o-g, g-r), fmt.Sprintf("OPT %.2f, GRASP %.2f, RRIP %.2f over %d cells", o, g, r, len(opt)), nil
}

// colIndex returns the index of the column headed header.
func colIndex(m matrix, header string) int {
	for i, c := range m.cols {
		if c.header == header {
			return i
		}
	}
	panic(fmt.Sprintf("claims: matrix %q has no column %q", m.title, header))
}

// everyCell measures the worst (app, dataset) cell of one column.
func everyCell(header string) predicate {
	return func(m matrix, v matrixValues) (float64, string) {
		c, worst := colIndex(m, header), 0
		for r := range v.rows {
			if v.cells[r][c] < v.cells[worst][c] {
				worst = r
			}
		}
		return v.cells[worst][c], fmt.Sprintf("worst %s cell %s x %s = %.2f",
			header, v.rows[worst][0], v.rows[worst][1], v.cells[worst][c])
	}
}

// aggregateAbove measures by how much one column's aggregate exceeds the
// largest of the others'.
func aggregateAbove(header string, others ...string) predicate {
	return func(m matrix, v matrixValues) (float64, string) {
		return marginAbove(header, others, func(c string) float64 { return v.agg[colIndex(m, c)] })
	}
}

// meanAbove measures by how much one column's mean cell exceeds
// another's.
func meanAbove(header, other string) predicate {
	return func(m matrix, v matrixValues) (float64, string) {
		return marginAbove(header, []string{other}, func(c string) float64 {
			var col []float64
			for _, row := range v.cells {
				col = append(col, row[colIndex(m, c)])
			}
			return stats.Mean(col)
		})
	}
}

// marginAbove returns by how much name's value exceeds the largest of the
// others', and every value it compared.
func marginAbove(name string, others []string, value func(string) float64) (float64, string) {
	x := value(name)
	where := fmt.Sprintf("%s %.2f", name, x)
	margin := 0.0
	for i, o := range others {
		y := value(o)
		if d := x - y; i == 0 || d < margin {
			margin = d
		}
		where += fmt.Sprintf(" vs %s %.2f", o, y)
	}
	return margin, where
}

func TestClaims(t *testing.T) {
	for _, div := range []uint32{64, 16} {
		t.Run(fmt.Sprintf("1/%d", div), func(t *testing.T) {
			s := sharedSession(div)
			var points []Datapoint
			for _, c := range claims {
				points = append(points, c.points()...)
			}
			if err := s.Prefetch(points); err != nil {
				t.Fatal(err)
			}
			for _, c := range claims {
				want, ok := c.status[div]
				if !ok {
					continue
				}
				t.Run(c.id, func(t *testing.T) {
					x, where, err := c.measure(s)
					if err != nil {
						t.Fatal(err)
					}
					margin := x + c.tol
					got := deviates
					if margin >= 0 {
						got = holds
					}
					t.Logf("%s at 1/%d: %s, margin %+.2f (%s)", c.name, div, got, margin, where)
					if got != want {
						t.Errorf("%s at 1/%d: %s, want %s: margin %+.2f (%s)", c.name, div, got, want, margin, where)
					}
				})
			}
		})
	}
}
