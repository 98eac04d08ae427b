package sim

import (
	"context"
	"math"
	"runtime"
	"testing"

	"grasp/internal/apps"
	"grasp/internal/graph"
)

// TestSampledK1MatchesFullReplay extends the replay-equivalence suite to
// the sampled tier's degenerate point: with sample_k=1 every LLC set is
// selected, so the set-filtered replay must be bit-identical to a full
// replay for every registered policy — same LLC stats, an estimate equal
// to the exact miss metrics, and zero reported error.
func TestSampledK1MatchesFullReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep skipped in -short mode")
	}
	ds, err := graph.DatasetByName("lj")
	if err != nil {
		t.Fatal(err)
	}
	hcfg := replayTestHCfg()
	w, err := PrepareWorkload(ds, "DBG", false, 64)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RecordTraceNCtx(context.Background(), w, "PR", apps.LayoutMerged, hcfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Release()
	bounds, err := ABRBoundsFor(w, "PR", apps.LayoutMerged)
	if err != nil {
		t.Fatal(err)
	}
	for _, pinfo := range Policies() {
		spec := Spec{App: "PR", Layout: apps.LayoutMerged, Policy: pinfo.Name, HCfg: hcfg}
		full, err := ReplayResultCtx(context.Background(), tr, spec, w.Dataset.Name, bounds)
		if err != nil {
			t.Fatalf("%s: full replay: %v", pinfo.Name, err)
		}
		sampled, _, err := SampledReplayResultSkipCtx(context.Background(), tr, spec, w.Dataset.Name, bounds, 1)
		if err != nil {
			t.Fatalf("%s: sampled replay: %v", pinfo.Name, err)
		}
		if sampled.SampledLLC != full.LLC {
			t.Errorf("%s: k=1 sampled LLC stats diverge from full replay\nfull:    %+v\nsampled: %+v",
				pinfo.Name, full.LLC, sampled.SampledLLC)
		}
		if sampled.L1 != full.L1 || sampled.L2 != full.L2 {
			t.Errorf("%s: k=1 upper-level stats diverge from full replay", pinfo.Name)
		}
		e := sampled.Est
		if e.SampledSets != e.TotalSets {
			t.Errorf("%s: k=1 sampled %d of %d sets, want all", pinfo.Name, e.SampledSets, e.TotalSets)
		}
		if e.StdErr != 0 || e.CI95 != 0 {
			t.Errorf("%s: k=1 must report zero error, got stderr=%g ci=%g", pinfo.Name, e.StdErr, e.CI95)
		}
		if e.TotalAccesses != full.LLC.Accesses() {
			t.Errorf("%s: total accesses %d, full replay saw %d", pinfo.Name, e.TotalAccesses, full.LLC.Accesses())
		}
		// EstMisses = (m/a)*a round-trips through floating point; allow ulps.
		if math.Abs(e.EstMisses-float64(full.LLC.Misses)) > 1e-6*math.Max(1, float64(full.LLC.Misses)) {
			t.Errorf("%s: k=1 estimated %.3f misses, exact %d", pinfo.Name, e.EstMisses, full.LLC.Misses)
		}
		if math.Abs(sampled.EstCycles-full.Cycles) > 1e-6*full.Cycles {
			t.Errorf("%s: k=1 estimated %.1f cycles, exact %.1f", pinfo.Name, sampled.EstCycles, full.Cycles)
		}
	}
}

// TestSampledReplayDeterministic pins the fast tier's reproducibility: the
// sampled replay of one recording must return identical estimates across
// repeated runs, across GOMAXPROCS settings, and whether the datapoint is
// replayed alone or fanned out with every other policy in one broadcast.
// The set selection is a pure function of (sets, k) and each filter is a
// sequential broadcast consumer, so nothing may vary. CI runs this under
// -race.
func TestSampledReplayDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism sweep skipped in -short mode")
	}
	ds, err := graph.DatasetByName("tw")
	if err != nil {
		t.Fatal(err)
	}
	hcfg := replayTestHCfg()
	w, err := PrepareWorkload(ds, "DBG", false, 64)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RecordTraceNCtx(context.Background(), w, "PR", apps.LayoutMerged, hcfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Release()
	bounds, err := ABRBoundsFor(w, "PR", apps.LayoutMerged)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]Spec, len(Policies()))
	for i, pinfo := range Policies() {
		specs[i] = Spec{App: "PR", Layout: apps.LayoutMerged, Policy: pinfo.Name, HCfg: hcfg}
	}
	const sampleK = 4
	ref, _, err := BroadcastSampledResultsSkipCtx(context.Background(), tr, specs, w.Dataset.Name, bounds, sampleK)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, prev} {
		runtime.GOMAXPROCS(procs)
		got, _, err := BroadcastSampledResultsSkipCtx(context.Background(), tr, specs, w.Dataset.Name, bounds, sampleK)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for i := range specs {
			if got[i] != ref[i] {
				t.Errorf("GOMAXPROCS=%d: %s: sampled replay not deterministic\nfirst: %+v\nnow:   %+v",
					procs, specs[i].Policy, ref[i], got[i])
			}
		}
		// A solo replay must match its slot in the all-policy fan-out.
		solo, _, err := SampledReplayResultSkipCtx(context.Background(), tr, specs[procs%len(specs)], w.Dataset.Name, bounds, sampleK)
		if err != nil {
			t.Fatal(err)
		}
		if solo != ref[procs%len(specs)] {
			t.Errorf("GOMAXPROCS=%d: solo sampled replay differs from broadcast fan-out slot", procs)
		}
	}
}
