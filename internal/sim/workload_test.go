package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"grasp/internal/apps"
	"grasp/internal/graph"
	"grasp/internal/ligra"
	"grasp/internal/mem"
	"grasp/internal/reorder"
)

// TestWeightedWorkloadOutOnly pins the out-edges-only weighted workload:
// for every application that reads weights, in both layouts, a recording
// and an execution-driven result on the prepared workload equal those on
// the full two-sided CSR of the same reordered edges. The workload keeps
// no in-edge side, is charged only its out-edge bytes, and refuses a pull
// traversal by name.
func TestWeightedWorkloadOutOnly(t *testing.T) {
	const scale = 64
	hcfg := replayTestHCfg()
	for _, dsName := range []string{"lj", "uni"} {
		ds, err := graph.DatasetByName(dsName)
		if err != nil {
			t.Fatal(err)
		}
		g, err := ds.Load(true, scale)
		if err != nil {
			t.Fatal(err)
		}
		w, err := PrepareWorkloadOn(g, ds, "DBG", true)
		if err != nil {
			t.Fatal(err)
		}
		full := &Workload{Dataset: ds, Reorder: "DBG", Graph: reorder.Apply(g, reorder.DBG(g, reorder.BySum)), Weighted: true}

		c := w.Graph
		if c.InIndex != nil || c.InEdges != nil || c.InWeights != nil {
			t.Fatalf("%s: weighted workload keeps an in-edge side (InIndex %d, InEdges %d, InWeights %d entries)",
				dsName, len(c.InIndex), len(c.InEdges), len(c.InWeights))
		}
		n, m := int64(c.NumVertices()), int64(c.NumEdges())
		if got, want := c.Footprint(), 8*(n+1)+8*m; got != want {
			t.Fatalf("%s: Footprint = %d, want 8(n+1) + 8m = %d", dsName, got, want)
		}
		checkPullPanics(t, dsName, c)

		for _, app := range apps.ExtendedNames() {
			if !apps.Weighted(app) {
				continue
			}
			for _, layout := range []apps.Layout{apps.LayoutMerged, apps.LayoutSplit} {
				name := dsName + "/" + app + "/" + layout.String()
				got := recordAccesses(t, w, app, layout)
				want := recordAccesses(t, full, app, layout)
				if len(got) == 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: recording on the workload (%d accesses) differs from the full CSR's (%d)", name, len(got), len(want))
				}
				spec := Spec{App: app, Layout: layout, Policy: "GRASP", HCfg: hcfg}
				gotRes, err := Run(w, spec)
				if err != nil {
					t.Fatal(err)
				}
				wantRes, err := Run(full, spec)
				if err != nil {
					t.Fatal(err)
				}
				gotRes.AppTime, wantRes.AppTime = 0, 0
				if gotRes != wantRes {
					t.Fatalf("%s: Result on the workload %+v, on the full CSR %+v", name, gotRes, wantRes)
				}
			}
		}
	}
}

// recordAccesses records app on w through replayTestHCfg's L1/L2 and
// decodes the whole recording.
func recordAccesses(t *testing.T, w *Workload, app string, layout apps.Layout) []mem.Access {
	t.Helper()
	tr, err := RecordTraceNCtx(context.Background(), w, app, layout, replayTestHCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}
	accs, err := tr.Accesses(0)
	if err != nil {
		t.Fatal(err)
	}
	return accs
}

// checkPullPanics runs a pull traversal over c and requires it to panic
// with ligra.ErrNoInEdges, not an index out of range.
func checkPullPanics(t *testing.T, dsName string, c *graph.CSR) {
	t.Helper()
	defer func() {
		r := recover()
		if err, ok := r.(error); !ok || !errors.Is(err, ligra.ErrNoInEdges) {
			t.Fatalf("%s: pull on an out-edges-only graph panicked with %v, want %q", dsName, r, ligra.ErrNoInEdges)
		}
	}()
	fg := ligra.NewGraph(c)
	fg.EdgeMapPull(ligra.NewTracer(nil), ligra.NewFrontierAll(c.NumVertices()),
		func(dst, src graph.VertexID, w int32) bool { return false }, ligra.EdgeMapOpts{NoOutput: true})
}

// syntheticFootprintBounds are the stated bounds on the bytes of every
// registered synthetic dataset's DBG workload, unweighted and weighted,
// summed (measured 5.13 and 20.51 MB; with two-sided weighted workloads
// 7.64 and 30.54 MB). The store never charges these workloads (DESIGN.md
// Sec. 10, *Memory bound*), so this sum is what one scale adds to a
// process's heap beyond the budget.
var syntheticFootprintBounds = []struct {
	scale uint32
	bound int64
}{{64, 5_250_000}, {16, 21_000_000}}

// TestSyntheticWorkloadFootprintBound holds the summed Footprint of every
// registered synthetic dataset x {unweighted, weighted} DBG workload under
// its scale's stated bound.
func TestSyntheticWorkloadFootprintBound(t *testing.T) {
	for _, b := range syntheticFootprintBounds {
		scale, bound := b.scale, b.bound
		var sum int64
		for _, ds := range graph.Datasets() {
			for _, weighted := range []bool{false, true} {
				w, err := PrepareWorkload(ds, "DBG", weighted, scale)
				if err != nil {
					t.Fatal(err)
				}
				sum += w.Graph.Footprint()
			}
		}
		t.Logf("1/%d: %d workloads hold %d bytes (bound %d)", scale, 2*len(graph.Datasets()), sum, bound)
		if sum > bound {
			t.Errorf("1/%d: synthetic DBG workloads hold %d bytes, over the stated bound %d", scale, sum, bound)
		}
	}
}
