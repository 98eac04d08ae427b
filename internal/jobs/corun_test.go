package jobs

import (
	"testing"

	"grasp/internal/sim"
)

// TestCorunCanonicalize: the co-run fields' defaulting and validation
// matrix. Co-runs are full-fidelity singles only; the ratio must cover
// the whole mix ([App, CorunApps...]) with positive weights, and an
// explicit uniform ratio canonicalizes away so it content-addresses
// identically to an omitted one.
func TestCorunCanonicalize(t *testing.T) {
	s := Spec{Kind: KindSingle, Graph: "lj", App: "PR", CorunApps: []string{"BFS", "TC"}}
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if s.CorunRatio != nil {
		t.Errorf("omitted ratio canonicalized to %v, want nil", s.CorunRatio)
	}
	s = Spec{Kind: KindSingle, Graph: "lj", App: "PR",
		CorunApps: []string{"BFS"}, CorunRatio: []int{1, 1}}
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if s.CorunRatio != nil {
		t.Errorf("all-ones ratio canonicalized to %v, want nil", s.CorunRatio)
	}
	s = Spec{Kind: KindSingle, Graph: "lj", App: "PR",
		CorunApps: []string{"BFS"}, CorunRatio: []int{2, 1}}
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if len(s.CorunRatio) != 2 || s.CorunRatio[0] != 2 {
		t.Errorf("non-uniform ratio mangled to %v", s.CorunRatio)
	}
	tooWide := make([]string, sim.MaxCorunApps) // 1 + len(CorunApps) = MaxCorunApps + 1
	for i := range tooWide {
		tooWide[i] = "PR"
	}
	bad := map[string]Spec{
		"ratio without apps": {Kind: KindSingle, Graph: "lj", App: "PR", CorunRatio: []int{2, 1}},
		"sampled co-run":     {Kind: KindSingle, Graph: "lj", App: "PR", Fidelity: FidelitySampled, CorunApps: []string{"BFS"}},
		"unknown co-run app": {Kind: KindSingle, Graph: "lj", App: "PR", CorunApps: []string{"NoSuchKernel"}},
		"ratio too short":    {Kind: KindSingle, Graph: "lj", App: "PR", CorunApps: []string{"BFS", "TC"}, CorunRatio: []int{1, 1}},
		"ratio too long":     {Kind: KindSingle, Graph: "lj", App: "PR", CorunApps: []string{"BFS"}, CorunRatio: []int{1, 1, 1}},
		"zero weight":        {Kind: KindSingle, Graph: "lj", App: "PR", CorunApps: []string{"BFS"}, CorunRatio: []int{1, 0}},
		"negative weight":    {Kind: KindSingle, Graph: "lj", App: "PR", CorunApps: []string{"BFS"}, CorunRatio: []int{-1, 1}},
		"mix too wide":       {Kind: KindSingle, Graph: "lj", App: "PR", CorunApps: tooWide},
		"experiment co-run":  {Kind: KindExperiment, Exp: "fig2", CorunApps: []string{"BFS"}},
		"experiment ratio":   {Kind: KindExperiment, Exp: "fig2", CorunRatio: []int{1}},
	}
	for name, s := range bad {
		if err := s.Canonicalize(); err == nil {
			t.Errorf("%s: Canonicalize accepted %+v", name, s)
		}
	}
}

// TestCorunHashDiscriminates: a co-run is a different computation from
// its lead app's solo run, from other mixes, and from other ratios —
// each must get its own content address — while an explicit uniform
// ratio shares the omitted-ratio address.
func TestCorunHashDiscriminates(t *testing.T) {
	point := func() Spec {
		return Spec{Kind: KindSingle, Graph: "lj", App: "PR", Policy: "GRASP", Reorder: "DBG", Scale: 64}
	}
	solo := mustHash(t, point())
	mixA := point()
	mixA.CorunApps = []string{"BFS"}
	hashA := mustHash(t, mixA)
	if hashA == solo {
		t.Error("co-run collides with the lead app's solo address")
	}
	mixB := point()
	mixB.CorunApps = []string{"TC"}
	if h := mustHash(t, mixB); h == hashA {
		t.Error("PR+TC collides with PR+BFS")
	}
	ordered := point()
	ordered.CorunApps = []string{"BFS", "TC"}
	reversed := point()
	reversed.CorunApps = []string{"TC", "BFS"}
	if mustHash(t, ordered) == mustHash(t, reversed) {
		t.Error("mix order is part of the schedule, but the addresses collide")
	}
	weighted := point()
	weighted.CorunApps = []string{"BFS"}
	weighted.CorunRatio = []int{2, 1}
	if h := mustHash(t, weighted); h == hashA {
		t.Error("2:1 ratio collides with uniform")
	}
	uniform := point()
	uniform.CorunApps = []string{"BFS"}
	uniform.CorunRatio = []int{1, 1}
	if h := mustHash(t, uniform); h != hashA {
		t.Errorf("explicit uniform ratio hashed to %s, omitted to %s", h, hashA)
	}
}

// TestCorunJobEndToEnd runs a co-run job through the real manager: the
// outcome must carry the co-run result alone, attribution must partition
// the shared totals, the run must show up in the metrics, and a
// resubmission must be a store hit returning the identical result.
func TestCorunJobEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full co-run replay skipped in -short mode")
	}
	m := newTestManager(t, 1)
	spec := tinySpec()
	spec.CorunApps = []string{"BFS"}
	spec.CorunRatio = []int{2, 1}
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
	if o == nil || o.Corun == nil {
		t.Fatal("co-run job completed without a co-run outcome")
	}
	if o.Single != nil || o.Sampled != nil || o.Output != "" {
		t.Error("co-run outcome also carries other tiers' fields")
	}
	r := o.Corun
	if len(r.Apps) != 2 || r.Apps[0].App != "PR" || r.Apps[1].App != "BFS" {
		t.Fatalf("mix = %+v, want [PR BFS]", r.Apps)
	}
	if r.Apps[0].Weight != 2 || r.Apps[1].Weight != 1 {
		t.Errorf("weights = %d:%d, want 2:1", r.Apps[0].Weight, r.Apps[1].Weight)
	}
	var acc, miss uint64
	for _, a := range r.Apps {
		acc += a.LLC.Accesses()
		miss += a.LLC.Misses
	}
	if acc != r.LLC.Accesses() || miss != r.LLC.Misses {
		t.Errorf("attribution (%d acc, %d miss) does not partition shared totals (%d, %d)",
			acc, miss, r.LLC.Accesses(), r.LLC.Misses)
	}
	if r.Unfairness < 1 {
		t.Errorf("unfairness %v < 1", r.Unfairness)
	}
	if got := m.Metrics(); got.Work.Corun.Cells != 1 {
		t.Errorf("co-run cells = %d, want 1", got.Work.Corun.Cells)
	}
	j2, disp2, err := m.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if disp2 != Cached {
		t.Fatalf("resubmit disposition = %v, want %v", disp2, Cached)
	}
	<-j2.Done()
	o2 := j2.Outcome()
	if o2 == nil || o2.Corun == nil {
		t.Fatal("cached co-run job lost its outcome")
	}
	if o2.Corun.WeightedSpeedup != r.WeightedSpeedup || o2.Corun.Unfairness != r.Unfairness {
		t.Error("cached co-run outcome differs from the original")
	}
}
