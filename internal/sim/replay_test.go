package sim

import (
	"context"
	"testing"

	"grasp/internal/apps"
	"grasp/internal/cache"
	"grasp/internal/graph"
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

// TestReplayMatchesDirect is the replay-equivalence suite: for every
// registered policy and a spread of applications (paper kernels plus the
// extension workloads), the Result produced by record-once/replay-many
// must be identical — stats, breakdowns and modeled memory time — to the
// Result of direct execution-driven simulation. This is the invariant the
// whole trace engine rests on; any codec or filter divergence fails here
// before it can silently skew an experiment.
func TestReplayMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep skipped in -short mode")
	}
	ds, err := graph.DatasetByName("lj")
	if err != nil {
		t.Fatal(err)
	}
	hcfg := replayTestHCfg()
	for _, appName := range []string{"BFS", "PR", "KCore"} {
		appName := appName
		t.Run(appName, func(t *testing.T) {
			t.Parallel()
			w, err := PrepareWorkload(ds, "DBG", false, 64)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := RecordTraceNCtx(context.Background(), w, appName, apps.LayoutMerged, hcfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Release()
			if tr.Len() == 0 {
				t.Fatal("recording captured no LLC-bound accesses")
			}
			bounds, err := ABRBoundsFor(w, appName, apps.LayoutMerged)
			if err != nil {
				t.Fatal(err)
			}
			for _, pinfo := range Policies() {
				spec := Spec{App: appName, Layout: apps.LayoutMerged, Policy: pinfo.Name, HCfg: hcfg}
				direct, err := Run(w, spec)
				if err != nil {
					t.Fatalf("%s: direct: %v", pinfo.Name, err)
				}
				replayed, err := ReplayResultCtx(context.Background(), tr, spec, w.Dataset.Name, bounds)
				if err != nil {
					t.Fatalf("%s: replay: %v", pinfo.Name, err)
				}
				// AppTime is wall-clock and legitimately differs; every
				// simulated quantity must not.
				replayed.AppTime = direct.AppTime
				if direct != replayed {
					t.Errorf("%s: replay diverges from direct simulation\ndirect:  %+v\nreplayed: %+v",
						pinfo.Name, direct, replayed)
				}
			}
		})
	}
}

// TestBroadcastMatchesDirect extends the replay-equivalence suite to the
// decode-once broadcast path: for every registered policy and the same
// application spread, the Results of ONE BroadcastResultsCtx fan-out over
// all policies at once must be identical to direct execution-driven
// simulation. This is the invariant that lets exp.Session serve a whole
// Prefetch group from a single decode.
func TestBroadcastMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep skipped in -short mode")
	}
	ds, err := graph.DatasetByName("lj")
	if err != nil {
		t.Fatal(err)
	}
	hcfg := replayTestHCfg()
	for _, appName := range []string{"BFS", "PR", "KCore"} {
		appName := appName
		t.Run(appName, func(t *testing.T) {
			t.Parallel()
			w, err := PrepareWorkload(ds, "DBG", false, 64)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := RecordTraceNCtx(context.Background(), w, appName, apps.LayoutMerged, hcfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Release()
			bounds, err := ABRBoundsFor(w, appName, apps.LayoutMerged)
			if err != nil {
				t.Fatal(err)
			}
			specs := make([]Spec, len(Policies()))
			for i, pinfo := range Policies() {
				specs[i] = Spec{App: appName, Layout: apps.LayoutMerged, Policy: pinfo.Name, HCfg: hcfg}
			}
			broadcast, err := BroadcastResultsCtx(context.Background(), tr, specs, w.Dataset.Name, bounds)
			if err != nil {
				t.Fatal(err)
			}
			for i, spec := range specs {
				direct, err := Run(w, spec)
				if err != nil {
					t.Fatalf("%s: direct: %v", spec.Policy, err)
				}
				got := broadcast[i]
				got.AppTime = direct.AppTime
				if direct != got {
					t.Errorf("%s: broadcast replay diverges from direct simulation\ndirect:    %+v\nbroadcast: %+v",
						spec.Policy, direct, got)
				}
			}
		})
	}
}

// TestBroadcastMatchesDirectAcrossGeometries fans one recording out to
// several LLC geometries in a single decode pass — the Table VII shape —
// and checks each against a direct run with that geometry.
func TestBroadcastMatchesDirectAcrossGeometries(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep skipped in -short mode")
	}
	ds, err := graph.DatasetByName("kr")
	if err != nil {
		t.Fatal(err)
	}
	w, err := PrepareWorkload(ds, "DBG", false, 64)
	if err != nil {
		t.Fatal(err)
	}
	hcfg := replayTestHCfg()
	tr, err := RecordTraceNCtx(context.Background(), w, "PR", apps.LayoutMerged, hcfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Release()
	bounds, err := ABRBoundsFor(w, "PR", apps.LayoutMerged)
	if err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	for _, size := range []uint64{2 << 10, 4 << 10, 8 << 10} {
		cfg := hcfg
		cfg.LLC = cache.Config{SizeBytes: size, Ways: 16}
		specs = append(specs, Spec{App: "PR", Layout: apps.LayoutMerged, Policy: "GRASP", HCfg: cfg})
	}
	broadcast, err := BroadcastResultsCtx(context.Background(), tr, specs, w.Dataset.Name, bounds)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		direct, err := Run(w, spec)
		if err != nil {
			t.Fatal(err)
		}
		got := broadcast[i]
		got.AppTime = direct.AppTime
		if direct != got {
			t.Errorf("LLC %dKB: broadcast replay diverges\ndirect:    %+v\nbroadcast: %+v",
				spec.HCfg.LLC.SizeBytes>>10, direct, got)
		}
	}
}

// TestReplayMatchesDirectAcrossGeometries replays one recording at several
// LLC sizes and checks each against a direct run with that geometry — the
// Table VII use case (one trace, many cache sizes).
func TestReplayMatchesDirectAcrossGeometries(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep skipped in -short mode")
	}
	ds, err := graph.DatasetByName("kr")
	if err != nil {
		t.Fatal(err)
	}
	w, err := PrepareWorkload(ds, "DBG", false, 64)
	if err != nil {
		t.Fatal(err)
	}
	hcfg := replayTestHCfg()
	tr, err := RecordTraceNCtx(context.Background(), w, "PR", apps.LayoutMerged, hcfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Release()
	bounds, err := ABRBoundsFor(w, "PR", apps.LayoutMerged)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []uint64{2 << 10, 4 << 10, 8 << 10} {
		cfg := hcfg
		cfg.LLC = cache.Config{SizeBytes: size, Ways: 16}
		spec := Spec{App: "PR", Layout: apps.LayoutMerged, Policy: "GRASP", HCfg: cfg}
		direct, err := Run(w, spec)
		if err != nil {
			t.Fatal(err)
		}
		// The recording's L1/L2 filter came from hcfg; Run's came from cfg —
		// identical by construction since only the LLC differs.
		replayed, err := ReplayResultCtx(context.Background(), tr, spec, w.Dataset.Name, bounds)
		if err != nil {
			t.Fatal(err)
		}
		replayed.AppTime = direct.AppTime
		if direct != replayed {
			t.Errorf("LLC %dKB: replay diverges\ndirect:  %+v\nreplayed: %+v", size>>10, direct, replayed)
		}
	}
}
