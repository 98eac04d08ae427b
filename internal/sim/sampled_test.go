package sim

import (
	"context"
	"runtime"
	"testing"
)

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
	w, tr, bounds := recording(t, "tw", 64, "PR", replayTestHCfg())
	specs := policySpecs("PR", replayTestHCfg())
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
