package sim

import (
	"context"
	"testing"

	"grasp/internal/trace"
)

// filterAfterDecode is the sampled tier's reference path, built from
// parts the masked decode does not touch: the reference decoder's full
// stream (Trace.Accesses) fed to one SetFilter per spec, priced by the
// planner's own sampledResultOf. The masked kernel may only remove work
// from this shape, never change what a consumer observes.
func filterAfterDecode(t *testing.T, tr *trace.Trace, specs []Spec, workloadName string, bounds [][2]uint64, k uint32) []SampledResult {
	t.Helper()
	accs, err := tr.Accesses(0)
	if err != nil {
		t.Fatal(err)
	}
	filters := make([]*trace.SetFilter, len(specs))
	for i, spec := range specs {
		pinfo, err := PolicyByName(spec.Policy)
		if err != nil {
			t.Fatal(err)
		}
		llc, err := NewReplayLLC(spec.HCfg.LLC, pinfo, bounds, 1)
		if err != nil {
			t.Fatal(err)
		}
		f, err := trace.NewSetFilter(llc, trace.SampledSets(llc.NumSets(), k))
		if err != nil {
			t.Fatal(err)
		}
		filters[i] = f
		f.Consume(accs)
	}
	out := make([]SampledResult, len(specs))
	for i, spec := range specs {
		out[i] = sampledResultOf(filters[i], tr, spec, workloadName, k)
	}
	return out
}

// TestMaskedDecodeEquivalence is the suite behind the codec-layer fast
// path's honesty claim: for every registered policy on two high-skew
// datasets at K in {4, 16, 64}, sampled results off the masked decode
// must be BIT-IDENTICAL to the decode-then-filter reference, and the
// masked run's report must account for every recorded access exactly
// once.
func TestMaskedDecodeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("masked-decode equivalence sweep skipped in -short mode")
	}
	hcfg := accuracyTestHCfg()
	for _, dsName := range []string{"lj", "tw"} {
		w, tr, bounds := recording(t, dsName, 64, "PR", hcfg)
		pols := Policies()
		specs := policySpecs("PR", hcfg)
		for _, k := range []uint32{4, 16, 64} {
			masked, rep, err := BroadcastSampledResultsSkipCtx(context.Background(), tr, specs, w.Dataset.Name, bounds, k)
			if err != nil {
				t.Fatalf("%s k=%d masked: %v", dsName, k, err)
			}
			ref := filterAfterDecode(t, tr, specs, w.Dataset.Name, bounds, k)
			for i, pinfo := range pols {
				if masked[i] != ref[i] {
					t.Errorf("%s %s k=%d: masked-decode result diverges from decode-then-filter reference:\n  masked: %+v\n  ref:    %+v",
						dsName, pinfo.Name, k, masked[i], ref[i])
				}
			}
			if total := rep.AccessesPruned + rep.AccessesDelivered; total != tr.Len() {
				t.Errorf("%s k=%d: report accounts %d accesses, trace has %d", dsName, k, total, tr.Len())
			}
			if rep.AccessesPruned == 0 {
				t.Errorf("%s k=%d: nothing pruned — masked decode not engaged", dsName, k)
			}
		}
		// A solo (single-spec) masked replay must agree with its fan-out
		// slot too: the solo mask covers only its own sampled sets, the
		// union mask potentially more, and neither may change results.
		solo, _, err := SampledReplayResultSkipCtx(context.Background(), tr, specs[0], w.Dataset.Name, bounds, 16)
		if err != nil {
			t.Fatal(err)
		}
		fan, _, err := BroadcastSampledResultsSkipCtx(context.Background(), tr, specs, w.Dataset.Name, bounds, 16)
		if err != nil {
			t.Fatal(err)
		}
		if solo != fan[0] {
			t.Errorf("%s %s: solo masked replay diverges from fan-out slot:\n  solo: %+v\n  fan:  %+v",
				dsName, pols[0].Name, solo, fan[0])
		}
	}
}
