package exp

import (
	"fmt"
	"io"

	"grasp/internal/apps"
	"grasp/internal/sim"
	"grasp/internal/stats"
)

// The scenario sweep is the coverage experiment for the extension
// workloads: EVERY policy in the registry (prior schemes and all GRASP
// variants) runs KCore and TC over the high-skew datasets, so a new
// policy or a new workload cannot land without a datapoint here. All
// policy x app x dataset cells are declared as ordinary datapoints and
// fan out over the session's Prefetch worker pool like any other matrix.

// scenarioApps are the workloads of the scenario sweep: the two kernels
// outside the paper's evaluation with the most distinct access shapes
// (KCore's frontier-driven peeling, TC's adjacency-intersection scans).
var scenarioApps = []string{"KCore", "TC"}

// registeredSchemes returns every registered policy except the RRIP
// baseline, which matrixPoints declares implicitly and against which the
// scenario and co-run sweeps normalize: a policy cannot register without a
// datapoint in each.
func registeredSchemes() []string {
	var out []string
	for _, p := range sim.Policies() {
		if p.Name != "RRIP" {
			out = append(out, p.Name)
		}
	}
	return out
}

// scenarioPoints declares the full policy x {KCore, TC} x dataset matrix.
func scenarioPoints() []Datapoint {
	return matrixPoints(highSkewNames(), "DBG", scenarioApps, registeredSchemes())
}

// scenarioValues returns one row per registeredSchemes() policy: its LLC
// miss reduction (%) over RRIP in every (app, dataset) cell, app-major,
// then their mean — what the scenario sweep renders and its claims row reads.
func scenarioValues(s *Session) ([][]float64, error) {
	var rows [][]float64
	for _, scheme := range registeredSchemes() {
		var vals []float64
		for _, app := range scenarioApps {
			for _, ds := range highSkewNames() {
				base, err := s.Result(ds, "DBG", app, apps.LayoutMerged, "RRIP")
				if err != nil {
					return nil, err
				}
				r, err := s.Result(ds, "DBG", app, apps.LayoutMerged, scheme)
				if err != nil {
					return nil, err
				}
				vals = append(vals, r.MissReductionPctOver(base))
			}
		}
		rows = append(rows, append(vals, stats.Mean(vals)))
	}
	return rows, nil
}

// runScenarios renders one row per policy: LLC miss reduction over RRIP
// for each (app, dataset) cell, with a per-policy mean.
func runScenarios(s *Session, w io.Writer) error {
	rows, err := scenarioValues(s)
	if err != nil {
		return err
	}
	header := []string{"Policy"}
	for _, app := range scenarioApps {
		for _, ds := range highSkewNames() {
			header = append(header, app+"/"+ds)
		}
	}
	header = append(header, "Mean")
	t := stats.NewTable(header...)
	for i, scheme := range registeredSchemes() {
		t.AddValues([]string{scheme}, rows[i])
	}
	if _, err := fmt.Fprintln(w, "% LLC misses eliminated over RRIP on the extension workloads (KCore, TC)"); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, t)
	return err
}
