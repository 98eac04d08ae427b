package exp

import (
	"fmt"
	"io"
	"time"

	"grasp/internal/apps"
	"grasp/internal/graph"
	"grasp/internal/ligra"
	"grasp/internal/reorder"
	"grasp/internal/stats"
)

// fig10aTrials is the number of timed native executions per datapoint;
// the reordering cost is amortized over them, mirroring the paper's
// methodology of running iterative applications to convergence and
// root-dependent traversals from several roots.
const fig10aTrials = 4

// runFig10a regenerates Fig. 10a: the net speed-up of each reordering
// technique over the no-reordering baseline on a real machine, after
// accounting for reordering cost. This is the one software-only experiment
// of the paper: we time native (untraced) Go executions, which feel the
// host's real cache hierarchy. Paper averages: Sort +2.6%, HubSort +0.6%,
// DBG +10.8%, Gorder -85.4% (its reordering cost dwarfs the benefit).
//
// The reproduced claim for the Gorder column is its SIGN AND RANK: Gorder
// is the only technique with a net loss on every high-skew dataset and
// sits below Sort, HubSort and DBG. Its magnitude is cost/(cost + run
// time) and so tracks how fast this implementation of the greedy loop is,
// not the paper's (DESIGN.md Sec. 4 has the figures on either side of the
// Sec. 12 rewrite).
//
// Because it measures wall-clock, this experiment declares no Points and
// runs strictly sequentially: a sweep finishes its parallel prefetch of the
// union before any body runs, so the timed executions see an idle
// machine. Each graph is loaded here, weighted and with both edge sides,
// because the five applications include pull-based ones and a weighted
// workload keeps only its out-edges; the reorderings are timed again here
// rather than read off the session's workloads, whose
// Workload.ReorderCost was measured under a busy prefetch pool.
func runFig10a(s *Session, w io.Writer) error {
	t := stats.NewTable("Dataset", "Sort", "HubSort", "DBG", "Gorder")
	agg := make(map[string][]float64)
	for _, dsName := range highSkewNames() {
		ds, err := graph.Resolve(dsName)
		if err != nil {
			return err
		}
		g, err := s.load(ds, true)
		if err != nil {
			return err
		}
		baseline := timeNativeApps(g)
		row := []string{dsName}
		for _, tech := range reorder.Techniques() {
			perm, cost := reorder.Timed(tech, g, reorder.BySum)
			rg := reorder.Apply(g, perm)
			reordered := timeNativeApps(rg)
			// Net speed-up including reordering cost.
			sp := (float64(baseline)/float64(reordered+cost) - 1) * 100
			agg[tech.Name] = append(agg[tech.Name], sp)
			row = append(row, fmt.Sprintf("%.1f", sp))
		}
		t.AddRow(row...)
	}
	gm := []string{"GM"}
	for _, tech := range reorder.Techniques() {
		gm = append(gm, fmt.Sprintf("%.1f", stats.GeoMeanSpeedupPct(agg[tech.Name])))
	}
	t.AddRow(gm...)
	if _, err := fmt.Fprintln(w, "Net speed-up (%) of reordering incl. reordering cost (native wall-clock)"); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, t)
	return err
}

// timeNativeApps runs all five applications natively on g and returns the
// total wall-clock time of fig10aTrials trials (after one warm-up trial).
func timeNativeApps(g *graph.CSR) time.Duration {
	run := func() {
		for _, name := range apps.Names() {
			fg := ligra.NewGraph(g)
			app, err := apps.New(name, fg, apps.LayoutMerged)
			if err != nil {
				panic(err)
			}
			app.Run(ligra.NewTracer(nil))
		}
	}
	run() // warm-up
	start := time.Now()
	for i := 0; i < fig10aTrials; i++ {
		run()
	}
	return time.Since(start)
}
