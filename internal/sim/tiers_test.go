package sim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"grasp/internal/apps"
	"grasp/internal/cache"
	"grasp/internal/graph"
	"grasp/internal/trace"
)

// replayTestHCfg is a small but fully functional hierarchy (power-of-two
// set counts at every level), matching the shape exp.ScaledConfig produces
// for cheap test scales.
func replayTestHCfg() cache.HierarchyConfig {
	h := cache.DefaultHierarchyConfig()
	h.L1 = cache.Config{SizeBytes: 1 << 10, Ways: 8}
	h.L2 = cache.Config{SizeBytes: 2 << 10, Ways: 8}
	h.LLC = cache.Config{SizeBytes: 4 << 10, Ways: 16}
	return h
}

// tierRegionScales are the reuse-region sizes, other than the paper's 1x,
// at which the table replays every hint-consuming policy.
var tierRegionScales = []float64{0.25, 0.5, 2, 4}

// tierCells are the table's datapoints at any one geometry, policy and
// region scale only: every registered policy at the paper's design (in
// registry order, so cell p is policy p), then every hint-consuming policy
// at each of tierRegionScales.
func tierCells() []Spec {
	var cells []Spec
	for _, pinfo := range Policies() {
		cells = append(cells, Spec{Policy: pinfo.Name})
	}
	for _, scale := range tierRegionScales {
		for _, pinfo := range Policies() {
			if pinfo.NeedsABRs {
				cells = append(cells, Spec{Policy: pinfo.Name, RegionScale: scale})
			}
		}
	}
	return cells
}

// tierFixture is one case of the tier table: an app on a scaled dataset,
// recorded once and replayed at every geometry in hcfgs (they differ in
// the LLC only), with its oracle — oracle[g][c] is direct execution (Run)
// of tier cell c at geometry g.
type tierFixture struct {
	name, ds string
	scale    uint32
	app      string
	hcfgs    []cache.HierarchyConfig
	w        *Workload
	tr       *trace.Trace
	bounds   [][2]uint64
	oracle   [][]Result
}

// tierCases are three kernels on lj, one kr recording replayed at three
// LLC sizes (the Table VII shape), and tw under testHCfg's thrash regime.
func tierCases() []*tierFixture {
	var kr []cache.HierarchyConfig
	for _, kb := range []uint64{2, 4, 8} {
		h := replayTestHCfg()
		h.LLC = cache.Config{SizeBytes: kb << 10, Ways: 16}
		kr = append(kr, h)
	}
	one := []cache.HierarchyConfig{replayTestHCfg()}
	return []*tierFixture{
		{name: "lj-BFS", ds: "lj", scale: 64, app: "BFS", hcfgs: one},
		{name: "lj-PR", ds: "lj", scale: 64, app: "PR", hcfgs: one},
		{name: "lj-KCore", ds: "lj", scale: 64, app: "KCore", hcfgs: one},
		{name: "kr-PR", ds: "kr", scale: 64, app: "PR", hcfgs: kr},
		{name: "tw-PR", ds: "tw", scale: 32, app: "PR", hcfgs: []cache.HierarchyConfig{testHCfg()}},
	}
}

// recording prepares dataset dsName at the scale under DBG and records
// app (merged layout) through hcfg's L1/L2. It returns the workload, the
// recording and the ABR bounds.
func recording(t *testing.T, dsName string, scale uint32, app string, hcfg cache.HierarchyConfig) (*Workload, *trace.Trace, [][2]uint64) {
	t.Helper()
	ds, err := graph.DatasetByName(dsName)
	if err != nil {
		t.Fatal(err)
	}
	w, err := PrepareWorkload(ds, "DBG", false, scale)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RecordTraceNCtx(context.Background(), w, app, apps.LayoutMerged, hcfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatalf("%s %s: recording captured no LLC-bound accesses", dsName, app)
	}
	bounds, err := ABRBoundsFor(w, app, apps.LayoutMerged)
	if err != nil {
		t.Fatal(err)
	}
	return w, tr, bounds
}

// policySpecs is app's spec under hcfg for every registered policy, in
// registry order.
func policySpecs(app string, hcfg cache.HierarchyConfig) []Spec {
	specs := make([]Spec, len(Policies()))
	for p, pinfo := range Policies() {
		specs[p] = Spec{App: app, Layout: apps.LayoutMerged, Policy: pinfo.Name, HCfg: hcfg}
	}
	return specs
}

// record fills in the fixture's recording, ABR bounds and oracle.
func (fx *tierFixture) record(t *testing.T) {
	fx.w, fx.tr, fx.bounds = recording(t, fx.ds, fx.scale, fx.app, fx.hcfgs[0])
	cells := tierCells()
	fx.oracle = make([][]Result, len(fx.hcfgs))
	for g := range fx.hcfgs {
		fx.oracle[g] = make([]Result, len(cells))
		for c := range cells {
			var err error
			if fx.oracle[g][c], err = Run(fx.w, fx.spec(g, c)); err != nil {
				t.Fatalf("%s %s: direct: %v", fx.name, cells[c].Policy, err)
			}
		}
	}
}

// spec is the datapoint of geometry g and tier cell c.
func (fx *tierFixture) spec(g, c int) Spec {
	spec := tierCells()[c]
	spec.App, spec.Layout, spec.HCfg = fx.app, apps.LayoutMerged, fx.hcfgs[g]
	return spec
}

// tierCheck produces one tier's datapoint for geometry g and tier cell c
// as the Result it claims to equal, after checking the tier's own
// invariants against the oracle want.
type tierCheck func(t *testing.T, g, c int, want Result) Result

// tierRows are the replay tiers, one row each. A row's func runs whatever
// the tier does once per case (a fan-out over every datapoint, say) and
// returns the per-datapoint check. A row whose tier has no region scale
// (a co-run policy is a name) checks the paper-design cells only.
var tierRows = []struct {
	name    string
	regions bool
	replay  func(t *testing.T, fx *tierFixture) tierCheck
}{
	{"lone", true, func(t *testing.T, fx *tierFixture) tierCheck {
		return func(t *testing.T, g, c int, _ Result) Result {
			r, err := ReplayResultCtx(context.Background(), fx.tr, fx.spec(g, c), fx.w.Dataset.Name, fx.bounds)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	}},
	{"broadcast", true, func(t *testing.T, fx *tierFixture) tierCheck {
		var specs []Spec // ONE fan-out over every cell at every geometry
		n := len(tierCells())
		for g := range fx.hcfgs {
			for c := range n {
				specs = append(specs, fx.spec(g, c))
			}
		}
		rs, err := BroadcastResultsCtx(context.Background(), fx.tr, specs, fx.w.Dataset.Name, fx.bounds)
		if err != nil {
			t.Fatal(err)
		}
		return func(t *testing.T, g, c int, _ Result) Result { return rs[g*n+c] }
	}},
	{"sampled-k1", true, func(t *testing.T, fx *tierFixture) tierCheck {
		return func(t *testing.T, g, c int, want Result) Result {
			s, _, err := SampledReplayResultSkipCtx(context.Background(), fx.tr, fx.spec(g, c), fx.w.Dataset.Name, fx.bounds, 1)
			if err != nil {
				t.Fatal(err)
			}
			e := s.Est
			if e.SampledSets != e.TotalSets || e.StdErr != 0 || e.CI95 != 0 || e.TotalAccesses != want.LLC.Accesses() {
				t.Errorf("k=1 estimate %+v: want every set sampled, zero error, %d accesses", e, want.LLC.Accesses())
			}
			// EstMisses = (m/a)*a round-trips through floating point.
			if math.Abs(e.EstMisses-float64(want.LLC.Misses)) > 1e-6*math.Max(1, float64(want.LLC.Misses)) ||
				math.Abs(s.EstCycles-want.Cycles) > 1e-6*want.Cycles {
				t.Errorf("k=1 estimated %.3f misses, %.1f cycles; exact %d, %.1f", e.EstMisses, s.EstCycles, want.LLC.Misses, want.Cycles)
			}
			return Result{Spec: s.Spec, Workload: s.Workload, L1: s.L1, L2: s.L2, LLC: s.SampledLLC, Cycles: want.Cycles}
		}
	}},
	{"corun-1app", false, func(t *testing.T, fx *tierFixture) tierCheck {
		// One fan-out per geometry, the oracle as every solo baseline.
		rs := make([][]CorunResult, len(fx.hcfgs))
		stream := []CorunStream{{App: fx.app, Layout: apps.LayoutMerged, Weight: 1, Trace: fx.tr, Bounds: fx.bounds}}
		for g, hcfg := range fx.hcfgs {
			pols := make([]CorunPolicy, len(Policies()))
			for p, pinfo := range Policies() {
				pols[p] = CorunPolicy{Name: pinfo.Name, Solos: []Result{fx.oracle[g][p]}}
			}
			var err error
			if rs[g], err = CorunBroadcastResultsCtx(context.Background(), stream, pols, hcfg, fx.w.Dataset.Name); err != nil {
				t.Fatal(err)
			}
		}
		return func(t *testing.T, g, p int, want Result) Result {
			r := rs[g][p]
			a := r.Apps[0]
			if a.Slowdown != 1 || r.WeightedSpeedup != 1 || r.Unfairness != 1 {
				t.Errorf("1-app fairness = (slowdown %v, ws %v, unfairness %v), want all exactly 1",
					a.Slowdown, r.WeightedSpeedup, r.Unfairness)
			}
			if r.LLC != a.LLC || a.Solo != want {
				t.Errorf("attributed LLC %+v vs shared %+v, embedded solo %+v: want equal, the oracle", a.LLC, r.LLC, a.Solo)
			}
			return Result{Spec: fx.spec(g, p), Workload: r.Workload, L1: a.L1, L2: a.L2, LLC: a.LLC, Cycles: a.Cycles}
		}
	}},
}

// TestTiersMatchDirect is the replay-equivalence table, the invariant the
// whole trace engine rests on: every replay tier (row) of every recording
// (case) reproduces direct execution-driven simulation — stats,
// breakdowns and modeled memory time — for every registered policy, and
// every hint-consuming one at every region scale (subtests policy@scale),
// at every geometry the case replays, so a codec, filter, fan-out, tagging
// or region-sizing divergence fails here, as row/case/cell, before it can
// silently skew an experiment.
func TestTiersMatchDirect(t *testing.T) {
	cases := tierCases()
	for _, fx := range cases {
		fx.record(t)
	}
	for _, row := range tierRows {
		t.Run(row.name, func(t *testing.T) {
			for _, fx := range cases {
				t.Run(fx.name, func(t *testing.T) {
					check := row.replay(t, fx)
					for c, cell := range tierCells() {
						name := cell.Policy
						if cell.RegionScale != 0 {
							if !row.regions {
								continue
							}
							name = fmt.Sprintf("%s@%gx", name, cell.RegionScale)
						}
						t.Run(name, func(t *testing.T) {
							for g, hcfg := range fx.hcfgs {
								want := fx.oracle[g][c]
								got := check(t, g, c, want)
								// AppTime is wall-clock and legitimately
								// differs; every simulated quantity must not.
								got.AppTime = want.AppTime
								if got != want {
									t.Errorf("LLC %d KB: diverges from direct execution\ndirect: %+v\n%s: %+v",
										hcfg.LLC.SizeBytes>>10, want, row.name, got)
								}
							}
						})
					}
				})
			}
		})
	}
}
