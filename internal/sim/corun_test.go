package sim

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"grasp/internal/apps"
	"grasp/internal/cache"
	"grasp/internal/graph"
	"grasp/internal/mem"
	"grasp/internal/policy"
	"grasp/internal/trace"
)

// corunFixture shares one scaled workload and one recording per kernel
// across the co-run suites (recording is the expensive half).
type corunFixture struct {
	hcfg   cache.HierarchyConfig
	w      *Workload
	traces map[string]*trace.Trace
	bounds map[string][][2]uint64
}

func newCorunFixture(t *testing.T, appNames ...string) *corunFixture {
	t.Helper()
	ds, err := graph.DatasetByName("lj")
	if err != nil {
		t.Fatal(err)
	}
	w, err := PrepareWorkload(ds, "DBG", false, 64)
	if err != nil {
		t.Fatal(err)
	}
	fx := &corunFixture{hcfg: replayTestHCfg(), w: w,
		traces: make(map[string]*trace.Trace), bounds: make(map[string][][2]uint64)}
	for _, app := range appNames {
		tr, err := RecordTraceNCtx(context.Background(), w, app, apps.LayoutMerged, fx.hcfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Release)
		if tr.Len() == 0 {
			t.Fatalf("%s: recording captured no LLC-bound accesses", app)
		}
		b, err := ABRBoundsFor(w, app, apps.LayoutMerged)
		if err != nil {
			t.Fatal(err)
		}
		fx.traces[app], fx.bounds[app] = tr, b
	}
	return fx
}

// stream builds one CorunStream over the fixture's recording of app.
func (fx *corunFixture) stream(app string, weight int) CorunStream {
	return CorunStream{App: app, Layout: apps.LayoutMerged, Weight: weight,
		Trace: fx.traces[app], Bounds: fx.bounds[app]}
}

// corunWithSolos fills each stream's solo baseline by a dedicated replay
// of its own recording (same policy and geometry, LLC to itself), then
// runs the co-run — what a caller without a cached solo result does.
func (fx *corunFixture) corunWithSolos(streams []CorunStream, policyName string) (CorunResult, error) {
	ctx := context.Background()
	for i, st := range streams {
		spec := Spec{App: st.App, Layout: st.Layout, Policy: policyName, HCfg: fx.hcfg}
		solo, err := ReplayResultCtx(ctx, st.Trace, spec, fx.w.Dataset.Name, st.Bounds)
		if err != nil {
			return CorunResult{}, err
		}
		streams[i].Solo = solo
	}
	return CorunReplayResultCtx(ctx, streams, policyName, fx.hcfg, fx.w.Dataset.Name)
}

// TestCorunSingleAppBitIdentical is the co-run equivalence suite: for
// EVERY registered policy, a 1-app co-run must be bit-identical to the
// plain single-app replay — same private-level stats, same attributed and
// shared LLC stats, same modeled cycles — and report the no-interference
// fairness values exactly (slowdown 1, weighted speedup 1, unfairness 1).
func TestCorunSingleAppBitIdentical(t *testing.T) {
	fx := newCorunFixture(t, "PR")
	for _, pinfo := range Policies() {
		spec := Spec{App: "PR", Layout: apps.LayoutMerged, Policy: pinfo.Name, HCfg: fx.hcfg}
		solo, err := ReplayResultCtx(context.Background(), fx.traces["PR"], spec, fx.w.Dataset.Name, fx.bounds["PR"])
		if err != nil {
			t.Fatalf("%s: solo replay: %v", pinfo.Name, err)
		}
		r, err := fx.corunWithSolos([]CorunStream{fx.stream("PR", 1)}, pinfo.Name)
		if err != nil {
			t.Fatalf("%s: co-run: %v", pinfo.Name, err)
		}
		a := r.Apps[0]
		if a.L1 != solo.L1 || a.L2 != solo.L2 {
			t.Errorf("%s: private-level stats diverge from solo replay", pinfo.Name)
		}
		if a.LLC != solo.LLC || r.LLC != solo.LLC {
			t.Errorf("%s: 1-app co-run LLC stats diverge from solo replay\ncorun: %+v\nsolo:  %+v",
				pinfo.Name, a.LLC, solo.LLC)
		}
		if a.Cycles != solo.Cycles {
			t.Errorf("%s: cycles %v != solo %v", pinfo.Name, a.Cycles, solo.Cycles)
		}
		if a.Solo.AppTime != solo.AppTime {
			a.Solo.AppTime = solo.AppTime // never differs: same recording's wall-clock
		}
		if a.Solo != solo {
			t.Errorf("%s: embedded solo baseline diverges from direct solo replay", pinfo.Name)
		}
		if a.Slowdown != 1 || r.WeightedSpeedup != 1 || r.Unfairness != 1 {
			t.Errorf("%s: 1-app fairness = (slowdown %v, ws %v, unfairness %v), want all exactly 1",
				pinfo.Name, a.Slowdown, r.WeightedSpeedup, r.Unfairness)
		}
	}
}

// TestCorunDeterministic: a co-run replay is bit-reproducible across runs
// and GOMAXPROCS settings (the interleave is single-threaded and the
// schedule a pure function of the inputs).
func TestCorunDeterministic(t *testing.T) {
	fx := newCorunFixture(t, "BFS", "PR")
	streams := []CorunStream{fx.stream("BFS", 2), fx.stream("PR", 1), fx.stream("BFS", 1)}
	run := func() CorunResult {
		r, err := fx.corunWithSolos(streams, "GRASP")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := run()
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for i := 0; i < 2; i++ {
		if got := run(); !reflect.DeepEqual(got, base) {
			t.Fatalf("run %d (GOMAXPROCS=1): co-run result diverged\ngot:  %+v\nbase: %+v", i, got, base)
		}
	}
}

// TestCorunAttributionSums is the partition property: per-app attributed
// LLC stats must sum EXACTLY to the shared totals, counter for counter,
// on every mix shape — including duplicate apps and skewed weights — for
// a policy from each family (baseline, hint-consuming, PC-indexed).
func TestCorunAttributionSums(t *testing.T) {
	fx := newCorunFixture(t, "BFS", "PR", "KCore")
	mixes := [][]CorunStream{
		{fx.stream("BFS", 1), fx.stream("PR", 1)},
		{fx.stream("PR", 3), fx.stream("PR", 1)},
		{fx.stream("BFS", 1), fx.stream("PR", 2), fx.stream("KCore", 5), fx.stream("PR", 1)},
	}
	for _, polName := range []string{"RRIP", "GRASP", "SHiP-PC"} {
		for mi, streams := range mixes {
			r, err := fx.corunWithSolos(streams, polName)
			if err != nil {
				t.Fatalf("%s mix %d: %v", polName, mi, err)
			}
			var sum cache.Stats
			for _, a := range r.Apps {
				addStats(&sum, a.LLC)
			}
			if sum != r.LLC {
				t.Errorf("%s mix %d: attribution does not partition the shared LLC\nsum:    %+v\nshared: %+v",
					polName, mi, sum, r.LLC)
			}
			if r.Unfairness < 1 {
				t.Errorf("%s mix %d: unfairness %v < 1", polName, mi, r.Unfairness)
			}
			// Unfairness == 1 exactly when every slowdown is equal.
			minS, maxS := r.Apps[0].Slowdown, r.Apps[0].Slowdown
			for _, a := range r.Apps {
				if a.Slowdown < minS {
					minS = a.Slowdown
				}
				if a.Slowdown > maxS {
					maxS = a.Slowdown
				}
			}
			if (r.Unfairness == 1) != (minS == maxS) {
				t.Errorf("%s mix %d: unfairness %v inconsistent with slowdown range [%v, %v]",
					polName, mi, r.Unfairness, minS, maxS)
			}
		}
	}
}

// TestCorunOPTLowerBound extends the Belady property to the multi-stream
// path: OPT, run offline over the exact tagged block stream the shared
// LLC observed, lower-bounds every registered policy's aggregate co-run
// miss count.
func TestCorunOPTLowerBound(t *testing.T) {
	if testing.Short() {
		t.Skip("policy sweep skipped in -short mode")
	}
	fx := newCorunFixture(t, "BFS", "PR")
	streams := []CorunStream{fx.stream("BFS", 1), fx.stream("PR", 2)}
	// Reconstruct the interleaved, stream-tagged block stream exactly as
	// CorunReplayResultCtx replays it.
	its := []trace.InterleaveStream{
		{Trace: fx.traces["BFS"], Weight: 1},
		{Trace: fx.traces["PR"], Weight: 2},
	}
	var blocks []uint64
	err := trace.InterleaveReplayCtx(context.Background(), its, 0, func(stream int, accs []mem.Access) {
		base := uint64(stream) << corunStreamShift
		for _, a := range accs {
			blocks = append(blocks, cache.BlockAddr(a.Addr+base))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	llcCfg := fx.hcfg.LLC
	opt := policy.SimulateOPT(blocks, llcCfg.Sets(), llcCfg.Ways)
	for _, pinfo := range Policies() {
		r, err := fx.corunWithSolos(streams, pinfo.Name)
		if err != nil {
			t.Fatalf("%s: %v", pinfo.Name, err)
		}
		if r.LLC.Accesses() != opt.Accesses() {
			t.Fatalf("%s: co-run replayed %d accesses, OPT trace has %d", pinfo.Name, r.LLC.Accesses(), opt.Accesses())
		}
		if opt.Misses > r.LLC.Misses {
			t.Errorf("%s: OPT misses %d exceed the policy's %d — Belady bound violated",
				pinfo.Name, opt.Misses, r.LLC.Misses)
		}
	}
}

// TestCorunValidation: the argument contract errors.
func TestCorunValidation(t *testing.T) {
	fx := newCorunFixture(t, "PR")
	bg := context.Background()
	if _, err := CorunReplayResultCtx(bg, nil, "GRASP", fx.hcfg, "lj"); err == nil {
		t.Error("empty mix accepted")
	}
	wide := make([]CorunStream, MaxCorunApps+1)
	for i := range wide {
		wide[i] = fx.stream("PR", 1)
	}
	if _, err := CorunReplayResultCtx(bg, wide, "GRASP", fx.hcfg, "lj"); err == nil {
		t.Errorf("mix of %d streams accepted", len(wide))
	}
	if _, err := CorunReplayResultCtx(bg, []CorunStream{fx.stream("PR", 0)}, "GRASP", fx.hcfg, "lj"); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := CorunReplayResultCtx(bg, []CorunStream{fx.stream("PR", 1)}, "nope", fx.hcfg, "lj"); err == nil {
		t.Error("unknown policy accepted")
	}
}
