package sim

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"grasp/internal/apps"
	"grasp/internal/cache"
	"grasp/internal/core"
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

// corun computes every listed policy's solo baselines by ONE broadcast
// replay per distinct recording (same geometry, LLC to itself), then runs
// the mix under all of them in one fan-out — what a caller without cached
// solo results does.
func (fx *corunFixture) corun(streams []CorunStream, policies ...string) ([]CorunResult, error) {
	ctx := context.Background()
	pols := make([]CorunPolicy, len(policies))
	for p, name := range policies {
		pols[p] = CorunPolicy{Name: name, Solos: make([]Result, len(streams))}
	}
	solos := make(map[*trace.Trace][]Result)
	for i, st := range streams {
		if solos[st.Trace] == nil {
			specs := make([]Spec, len(policies))
			for p, name := range policies {
				specs[p] = Spec{App: st.App, Layout: st.Layout, Policy: name, HCfg: fx.hcfg}
			}
			rs, err := BroadcastResultsCtx(ctx, st.Trace, specs, fx.w.Dataset.Name, st.Bounds)
			if err != nil {
				return nil, err
			}
			solos[st.Trace] = rs
		}
		for p := range pols {
			pols[p].Solos[i] = solos[st.Trace][p]
		}
	}
	return CorunBroadcastResultsCtx(ctx, streams, pols, fx.hcfg, fx.w.Dataset.Name)
}

// policyNames lists every registered policy.
func policyNames() []string {
	var out []string
	for _, p := range Policies() {
		out = append(out, p.Name)
	}
	return out
}

// corunReference is the pre-fan-out implementation, kept as the oracle of
// TestCorunBroadcastEquivalence: a private interleave per policy whose
// consumer tags each access itself and attributes by snapshotting the
// shared LLC's whole Stats around every delivered batch (every ACCESS at
// weight 1), over an LLC it programs itself. It shares nothing with the
// production path but the final pricing of the attributed stats.
func corunReference(ctx context.Context, streams []CorunStream, pol CorunPolicy, hcfg cache.HierarchyConfig, workloadName string) (CorunResult, error) {
	pinfo, err := PolicyByName(pol.Name)
	if err != nil {
		return CorunResult{}, err
	}
	llc, err := cache.New(hcfg.LLC, pinfo.New(hcfg.LLC.Sets(), hcfg.LLC.Ways))
	if err != nil {
		return CorunResult{}, err
	}
	if pinfo.NeedsABRs {
		abrs := core.NewABRs(hcfg.LLC.SizeBytes)
		for i, st := range streams {
			base := uint64(i) << corunStreamShift
			for _, b := range st.Bounds {
				if err := abrs.SetBounds(b[0]+base, b[1]+base); err != nil {
					return CorunResult{}, err
				}
			}
		}
		llc.SetClassifier(abrs)
	}
	its := make([]trace.InterleaveStream, len(streams))
	for i, st := range streams {
		its[i] = trace.InterleaveStream{Trace: st.Trace, Weight: st.Weight}
	}
	perApp := make([]cache.Stats, len(streams))
	err = trace.InterleaveReplayCtx(ctx, its, 0, func(stream int, accs []mem.Access) {
		base := uint64(stream) << corunStreamShift
		pcBase := uint32(stream) << corunPCShift
		prev := llc.Stats
		for _, a := range accs {
			a.Addr += base
			a.PC += pcBase
			llc.Access(a)
		}
		addStats(&perApp[stream], statsDelta(llc.Stats, prev))
	})
	if err != nil {
		return CorunResult{}, err
	}
	return corunResultOf(streams, pol, hcfg, workloadName, perApp, llc.Stats), nil
}

// TestCorunBroadcastEquivalence pins the decode-once fan-out to the
// per-policy reference: for EVERY registered policy, on every mix shape —
// one app, two-way, the doubled eight-way, 3:1 weights, streams of unequal
// length — the fan-out's result for that policy must be reflect.DeepEqual
// to a private interleave with snapshot attribution, and the one-policy
// entry point must agree with its slot of the N-policy one.
func TestCorunBroadcastEquivalence(t *testing.T) {
	fx := newCorunFixture(t, "BFS", "PR", "KCore", "TC")
	if fx.traces["BFS"].Len() == fx.traces["PR"].Len() {
		t.Fatal("fixture: BFS and PR recordings have equal length; the unequal-length shape needs them to differ")
	}
	four := []CorunStream{fx.stream("BFS", 1), fx.stream("PR", 1), fx.stream("KCore", 1), fx.stream("TC", 1)}
	shapes := []struct {
		name    string
		streams []CorunStream
	}{
		{"1-app", []CorunStream{fx.stream("PR", 1)}},
		{"2-way", []CorunStream{fx.stream("KCore", 1), fx.stream("TC", 1)}},
		{"doubled 8-way", append(append([]CorunStream{}, four...), four...)},
		{"3:1 weights", []CorunStream{fx.stream("PR", 3), fx.stream("PR", 1)}},
		{"unequal length", []CorunStream{fx.stream("BFS", 2), fx.stream("PR", 1), fx.stream("BFS", 5)}},
	}
	policies := policyNames()
	if testing.Short() {
		policies = []string{"RRIP", "GRASP", "SHiP-PC", "Hawkeye"}
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			got, err := fx.corun(sh.streams, policies...)
			if err != nil {
				t.Fatal(err)
			}
			for p, name := range policies {
				pol := CorunPolicy{Name: name, Solos: make([]Result, len(sh.streams))}
				for i, a := range got[p].Apps {
					pol.Solos[i] = a.Solo
				}
				want, err := corunReference(context.Background(), sh.streams, pol, fx.hcfg, fx.w.Dataset.Name)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				if !reflect.DeepEqual(got[p], want) {
					t.Errorf("%s: fan-out diverges from the per-policy reference\n got: %+v\nwant: %+v", name, got[p], want)
				}
			}
			// One policy alone is its slot of the N-policy fan-out.
			for i := range sh.streams {
				sh.streams[i].Solo = got[0].Apps[i].Solo
			}
			one, err := CorunReplayResultCtx(context.Background(), sh.streams, policies[0], fx.hcfg, fx.w.Dataset.Name)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(one, got[0]) {
				t.Errorf("%s alone diverges from its slot of the %d-policy fan-out", policies[0], len(policies))
			}
		})
	}
}

// TestCorunDeterministic: a co-run replay is bit-reproducible across runs
// and GOMAXPROCS settings (the interleave is single-threaded and the
// schedule a pure function of the inputs).
func TestCorunDeterministic(t *testing.T) {
	fx := newCorunFixture(t, "BFS", "PR")
	streams := []CorunStream{fx.stream("BFS", 2), fx.stream("PR", 1), fx.stream("BFS", 1)}
	run := func() CorunResult {
		rs, err := fx.corun(streams, "GRASP")
		if err != nil {
			t.Fatal(err)
		}
		return rs[0]
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
	policies := []string{"RRIP", "GRASP", "SHiP-PC"}
	for mi, streams := range mixes {
		rs, err := fx.corun(streams, policies...)
		if err != nil {
			t.Fatalf("mix %d: %v", mi, err)
		}
		for p, polName := range policies {
			r := rs[p]
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
	// the co-run fan-out delivers it.
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
	rs, err := fx.corun(streams, policyNames()...)
	if err != nil {
		t.Fatal(err)
	}
	for p, pinfo := range Policies() {
		r := rs[p]
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
	one := []CorunStream{fx.stream("PR", 1)}
	if _, err := CorunBroadcastResultsCtx(bg, one, nil, fx.hcfg, "lj"); err == nil {
		t.Error("fan-out with no policy accepted")
	}
	if _, err := CorunBroadcastResultsCtx(bg, one, []CorunPolicy{{Name: "GRASP"}}, fx.hcfg, "lj"); err == nil {
		t.Error("policy with no solo baseline for its stream accepted")
	}
}

// statsDelta returns cur - prev, counter for counter: the reference
// implementation's attribution primitive (cur is the shared LLC after a
// batch, prev before it).
func statsDelta(cur, prev cache.Stats) cache.Stats {
	return cache.Stats{
		Hits:       cur.Hits - prev.Hits,
		Misses:     cur.Misses - prev.Misses,
		PropHits:   cur.PropHits - prev.PropHits,
		PropMisses: cur.PropMisses - prev.PropMisses,
		Bypasses:   cur.Bypasses - prev.Bypasses,
		Evictions:  cur.Evictions - prev.Evictions,
		Writebacks: cur.Writebacks - prev.Writebacks,
	}
}

// addStats accumulates d into s field-wise.
func addStats(s *cache.Stats, d cache.Stats) {
	s.Hits += d.Hits
	s.Misses += d.Misses
	s.PropHits += d.PropHits
	s.PropMisses += d.PropMisses
	s.Bypasses += d.Bypasses
	s.Evictions += d.Evictions
	s.Writebacks += d.Writebacks
}
