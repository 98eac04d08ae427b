package jobs

import "testing"

// TestSampledJobEndToEnd runs a sampled-fidelity job through the real
// manager: the outcome must carry the estimate (not full metrics), the
// fast tier must show up in the metrics, and a resubmission must be a
// store hit returning the identical estimate.
func TestSampledJobEndToEnd(t *testing.T) {
	m := newTestManager(t, 1)
	spec := tinySpec()
	spec.Fidelity = FidelitySampled
	spec.SampleK = 4
	j, disp, err := m.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if disp != Queued {
		t.Fatalf("disposition = %v, want %v", disp, Queued)
	}
	<-j.Done()
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	o := j.Outcome()
	if o == nil || o.Sampled == nil {
		t.Fatal("sampled job completed without a sampled outcome")
	}
	if o.Single != nil || o.Output != "" {
		t.Error("sampled outcome also carries full-fidelity fields")
	}
	est := o.Sampled.Est
	if est.TotalSets <= 0 || est.SampledSets <= 0 || est.SampledSets > est.TotalSets {
		t.Errorf("implausible sample geometry: %d/%d sets", est.SampledSets, est.TotalSets)
	}
	if est.MissRatio < 0 || est.MissRatio > 1 {
		t.Errorf("estimated miss ratio %.4f outside [0, 1]", est.MissRatio)
	}
	if o.Sampled.SampleK != 4 {
		t.Errorf("outcome sample_k = %d, want 4", o.Sampled.SampleK)
	}
	if got := m.Metrics(); got.Work.Sampled.Cells != 1 {
		t.Errorf("sampled cells = %d, want 1", got.Work.Sampled.Cells)
	}
	j2, disp2, err := m.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if disp2 != Cached {
		t.Fatalf("resubmit disposition = %v, want %v", disp2, Cached)
	}
	<-j2.Done()
	if o2 := j2.Outcome(); o2 == nil || o2.Sampled == nil || *o2.Sampled != *o.Sampled {
		t.Error("cached sampled outcome differs from the original")
	}
}

// TestFidelityCanonicalize: the fidelity tier's defaulting and validation
// matrix. An omitted fidelity is the full tier (so every pre-existing
// client speaks the current protocol unchanged), and sample_k only means
// anything on the sampled tier.
func TestFidelityCanonicalize(t *testing.T) {
	s := Spec{Kind: KindSingle, Graph: "lj"}
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if s.Fidelity != FidelityFull {
		t.Errorf("omitted fidelity canonicalized to %q, want %q", s.Fidelity, FidelityFull)
	}
	if s.SampleK != 0 {
		t.Errorf("full fidelity canonicalized with sample_k=%d, want 0", s.SampleK)
	}
	s = Spec{Kind: KindSingle, Graph: "lj", Fidelity: FidelitySampled}
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if s.SampleK != DefaultSampleK {
		t.Errorf("sampled fidelity defaulted sample_k to %d, want %d", s.SampleK, DefaultSampleK)
	}
	bad := map[string]Spec{
		"sample_k on full tier":     {Kind: KindSingle, Graph: "lj", SampleK: 16},
		"sample_k on explicit full": {Kind: KindSingle, Graph: "lj", Fidelity: FidelityFull, SampleK: 16},
		"non-power-of-two k":        {Kind: KindSingle, Graph: "lj", Fidelity: FidelitySampled, SampleK: 12},
		"k too large":               {Kind: KindSingle, Graph: "lj", Fidelity: FidelitySampled, SampleK: 1 << 17},
		"unknown fidelity":          {Kind: KindSingle, Graph: "lj", Fidelity: "approximate"},
		"experiment fidelity":       {Kind: KindExperiment, Exp: "fig2", Fidelity: FidelitySampled},
		"experiment sample_k":       {Kind: KindExperiment, Exp: "fig2", SampleK: 16},
	}
	for name, s := range bad {
		if err := s.Canonicalize(); err == nil {
			t.Errorf("%s: Canonicalize accepted %+v", name, s)
		}
	}
}

// TestFidelityHashDiscriminates: the fast tier produces estimates, not
// exact metrics, so a sampled job must never collide with the full-
// fidelity address of the same point, and different divisors are
// different jobs.
func TestFidelityHashDiscriminates(t *testing.T) {
	point := func() Spec {
		return Spec{Kind: KindSingle, Graph: "lj", App: "PR", Policy: "GRASP", Reorder: "DBG", Scale: 64}
	}
	full := mustHash(t, point())
	sampledDefault := point()
	sampledDefault.Fidelity = FidelitySampled
	defHash := mustHash(t, sampledDefault)
	if defHash == full {
		t.Error("sampled job collides with full-fidelity address")
	}
	sampled16 := point()
	sampled16.Fidelity, sampled16.SampleK = FidelitySampled, 16
	if h := mustHash(t, sampled16); h != defHash {
		t.Errorf("explicit sample_k=%d hashed to %s, defaulted to %s", DefaultSampleK, h, defHash)
	}
	sampled32 := point()
	sampled32.Fidelity, sampled32.SampleK = FidelitySampled, 32
	if h := mustHash(t, sampled32); h == defHash {
		t.Error("sample_k=32 collides with sample_k=16")
	}
	explicitFull := point()
	explicitFull.Fidelity = FidelityFull
	if h := mustHash(t, explicitFull); h != full {
		t.Errorf("explicit full fidelity hashed to %s, omitted to %s", h, full)
	}
}

// TestHashCompatPrePR7 pins the content addresses of specs that existed
// before the sampled tier. The fidelity fields are hashed ONLY for sampled
// jobs, precisely so every address below stays byte-identical — a daemon
// upgraded across this change keeps serving its stored outcomes. These
// hashes were captured on the pre-change tree; do not regenerate them from
// current code, that would defeat the test.
func TestHashCompatPrePR7(t *testing.T) {
	pinned := []struct {
		spec Spec
		hash string
	}{
		{Spec{Kind: "single", Graph: "lj"}, "6aec0cafb7da62500961aff848c3bc2e8f7a0cb92965a2fbd53f9663d1831ee5"},
		{Spec{Kind: "single", Graph: "pl", App: "BC", Policy: "RRIP", Reorder: "Gorder", Scale: 2}, "324fa92afae39dafb9d643d95103fc7b09705602a12df0fb8d9bcec70912f2db"},
		{Spec{Kind: "single", Graph: "tw", App: "SSSP", Policy: "LRU", Reorder: "HubSort", Scale: 8}, "df969d44acb1b737f6d9c4cdb684b625cf077a2dcd79270ebd69a7bbde1c8eab"},
		{Spec{Kind: "single", Graph: "lj", App: "PRD", Policy: "SRRIP", Reorder: "Identity", Scale: 64}, "f55c35c2cedc7d5dc08a1d5d276b4e07b8cb4a867d2fbb07a84afee32c687a2b"},
		{Spec{Kind: "single", Graph: "uni", App: "Radii", Policy: "Hawkeye", Reorder: "DBG", Scale: 16}, "11de8a652cb497855d658455dbf6ca73d4c4055828fc2ab8de533613582dceed"},
		{Spec{Kind: "experiment", Exp: "fig2", Scale: 64}, "7f0023ace40a10124c3f9599a4e7940e20afcf773ec69b6b7ac0a7ffb8898434"},
		{Spec{Kind: "experiment", Exp: "table1", Scale: 1}, "cab3f37b995967edc99210d3146cbc49d3e9ce5736fca281c31973fa231c6531"},
		{Spec{Kind: "experiment", Exp: "fig5", Scale: 16}, "210ba474ea818b20cb1ebd07d3981f85384c97667ee89a5015c39c9e821bf782"},
	}
	for _, p := range pinned {
		if got := mustHash(t, p.spec); got != p.hash {
			t.Errorf("pre-change address moved for %+v:\n got %s\nwant %s", p.spec, got, p.hash)
		}
	}
}
