package sim

import (
	"context"
	"testing"

	"grasp/internal/cache"
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

// TestSubsequenceEquivalence is the suite behind the sampled tier's
// per-group subsequence (trace.Subsequence, DESIGN.md Sec. 14): for every
// registered policy, K in {2, 4, 16, 64} and lj and tw at 16-, 64- and
// 512-set LLCs (512 sets exercise the over-approximating mask), the
// estimates replayed from the subsequence pruned under SampledMask must
// equal the masked replay of the full recording field for field, and both
// replays' reports must account for every recorded access exactly once.
func TestSubsequenceEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("subsequence equivalence sweep skipped in -short mode")
	}
	ctx := context.Background()
	for _, dsName := range []string{"lj", "tw"} {
		// The LLC geometry does not reach the recording: one per dataset.
		w, tr, bounds := recording(t, dsName, 64, "PR", accuracyTestHCfg())
		for _, sets := range []uint64{16, 64, 512} {
			hcfg := accuracyTestHCfg()
			hcfg.LLC = cache.Config{SizeBytes: sets * 4 * cache.BlockSize, Ways: 4}
			specs := policySpecs("PR", hcfg)
			for _, k := range []uint32{2, 4, 16, 64} {
				sub, err := tr.Subsequence(ctx, SampledMask(hcfg.LLC, k))
				if err != nil {
					t.Fatalf("%s/%d sets k=%d: %v", dsName, sets, k, err)
				}
				if sub.RecordedLen() != tr.Len() || sub.L1Stats() != tr.L1Stats() || sub.L2Stats() != tr.L2Stats() || sub.AppTime() != tr.AppTime() {
					t.Fatalf("%s/%d sets k=%d: the subsequence lost its recording's context", dsName, sets, k)
				}
				masked, fullRep, err := BroadcastSampledResultsSkipCtx(ctx, tr, specs, w.Dataset.Name, bounds, k)
				if err != nil {
					t.Fatal(err)
				}
				got, subRep, err := BroadcastSampledResultsSkipCtx(ctx, sub, specs, w.Dataset.Name, bounds, k)
				if err != nil {
					t.Fatal(err)
				}
				for i := range specs {
					if got[i] != masked[i] {
						t.Errorf("%s/%d sets %s k=%d: subsequence replay diverges from the masked full replay:\n  sub:    %+v\n  masked: %+v",
							dsName, sets, specs[i].Policy, k, got[i], masked[i])
					}
				}
				for _, rep := range []trace.SkipReport{fullRep, subRep} {
					if total := rep.AccessesPruned + rep.AccessesDelivered; total != tr.Len() {
						t.Errorf("%s/%d sets k=%d: report accounts %d accesses, the recording has %d", dsName, sets, k, total, tr.Len())
					}
				}
				if sub.Len() != fullRep.AccessesDelivered || subRep != (trace.SkipReport{
					ChunksDecoded: subRep.ChunksDecoded, BytesDecoded: uint64(sub.SizeBytes()),
					AccessesPruned: fullRep.AccessesPruned, AccessesDelivered: fullRep.AccessesDelivered}) {
					t.Errorf("%s/%d sets k=%d: the subsequence holds %d records and its replay reported %+v; the masked replay delivered %d (%+v)",
						dsName, sets, k, sub.Len(), subRep, fullRep.AccessesDelivered, fullRep)
				}
				sub.Release()
			}
		}
	}
}
