package main

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"grasp/internal/apps"
	"grasp/internal/cache"
	"grasp/internal/exp"
	"grasp/internal/graph"
	"grasp/internal/jobs"
	"grasp/internal/mem"
	"grasp/internal/sim"
)

// parseArgs runs args through the real flag set, so the tests see the
// defaults `graspsim` itself would.
func parseArgs(t *testing.T, args ...string) *options {
	t.Helper()
	fs, o := newFlags()
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

// noGraph is a -graph argument that resolves to nothing: singleSpec must
// accept or refuse a flag combination without looking at it.
const noGraph = "/nonexistent/graspsim-single-test.el"

// TestSingleSpec is the flags -> jobs.Spec table of a -graph run.
func TestSingleSpec(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want jobs.Spec
	}{
		{name: "defaults",
			want: jobs.Spec{App: "PR", Policy: "GRASP", Reorder: "DBG", Scale: 1, Fidelity: jobs.FidelityFull}},
		{name: "flags", args: []string{"-app", "BFS", "-policy", "LRU", "-reorder", "Sort", "-scale", "16", "-timeout", "90s"},
			want: jobs.Spec{App: "BFS", Policy: "LRU", Reorder: "Sort", Scale: 16, Fidelity: jobs.FidelityFull, TimeoutS: 90}},
		{name: "sampled default K", args: []string{"-fidelity", "sampled"},
			want: jobs.Spec{App: "PR", Policy: "GRASP", Reorder: "DBG", Scale: 1,
				Fidelity: jobs.FidelitySampled, SampleK: jobs.DefaultSampleK}},
		{name: "sampled K", args: []string{"-fidelity", "sampled", "-sample-k", "65536"},
			want: jobs.Spec{App: "PR", Policy: "GRASP", Reorder: "DBG", Scale: 1,
				Fidelity: jobs.FidelitySampled, SampleK: 65536}},
		{name: "corun", args: []string{"-corun", "BFS, TC"},
			want: jobs.Spec{App: "PR", Policy: "GRASP", Reorder: "DBG", Scale: 1, Fidelity: jobs.FidelityFull,
				CorunApps: []string{"BFS", "TC"}}},
		{name: "corun ratio", args: []string{"-corun", "PR", "-corun-ratio", "2,1"},
			want: jobs.Spec{App: "PR", Policy: "GRASP", Reorder: "DBG", Scale: 1, Fidelity: jobs.FidelityFull,
				CorunApps: []string{"PR"}, CorunRatio: []int{2, 1}}},
		{name: "uniform ratio is the omitted one", args: []string{"-corun", "PR", "-corun-ratio", "1,1"},
			want: jobs.Spec{App: "PR", Policy: "GRASP", Reorder: "DBG", Scale: 1, Fidelity: jobs.FidelityFull,
				CorunApps: []string{"PR"}}},
	} {
		got, err := singleSpec(parseArgs(t, append([]string{"-graph", noGraph}, tc.args...)...))
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		tc.want.Kind, tc.want.Graph = jobs.KindSingle, noGraph
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: spec = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestSingleSpecRefusals: every bad flag combination is refused by the
// daemon's validator (or the flag parser) before any graph is resolved —
// the -graph argument here does not exist, and no error mentions it.
func TestSingleSpecRefusals(t *testing.T) {
	wide := strings.TrimSuffix(strings.Repeat("BFS,", sim.MaxCorunApps), ",") // + -app = one too many
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"K not a power of two", "not a power of two", []string{"-fidelity", "sampled", "-sample-k", "12"}},
		{"K too large", "exceeds the maximum 65536", []string{"-fidelity", "sampled", "-sample-k", "131072"}},
		{"K without sampled", "only valid with \"sampled\"", []string{"-sample-k", "4"}},
		{"unknown fidelity", "unknown fidelity", []string{"-fidelity", "fast"}},
		{"ratio without corun", "-corun-ratio requires -corun", []string{"-corun-ratio", "2,1"}},
		{"sampled corun", "only valid with \"full\"", []string{"-corun", "BFS", "-fidelity", "sampled"}},
		{"unknown app", "unknown app \"NOPE\"", []string{"-app", "NOPE"}},
		{"unknown corun app", "unknown corun app \"NOPE\"", []string{"-corun", "NOPE"}},
		{"unknown policy", "unknown policy \"NOPE\"", []string{"-policy", "NOPE"}},
		{"unknown reorder", "NOPE", []string{"-reorder", "NOPE"}},
		{"corun too wide", "exceeds the maximum", []string{"-corun", wide}},
		{"scale past uint32", "-scale 4294967360 exceeds 4294967295", []string{"-scale", "4294967360"}},
		{"K past uint32", "-sample-k 4294967300 exceeds 4294967295", []string{"-fidelity", "sampled", "-sample-k", "4294967300"}},
	} {
		_, err := singleSpec(parseArgs(t, append([]string{"-graph", noGraph}, tc.args...)...))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), noGraph) {
			t.Errorf("%s: error %q, want one containing %q and not the graph", tc.name, err, tc.want)
		}
	}
}

// TestSingleSpecAddress: the job a full-fidelity `graspsim -graph lj` asks
// for is the job a client spelling only kind and graph asks for — same
// content address, so CLI and HTTP callers share stored results, and
// addresses minted before the tier and co-run fields existed still resolve.
func TestSingleSpecAddress(t *testing.T) {
	fromFlags, err := singleSpec(parseArgs(t, "-graph", "lj"))
	if err != nil {
		t.Fatal(err)
	}
	bare := jobs.Spec{Kind: jobs.KindSingle, Graph: "lj"}
	if err := bare.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	got, err := fromFlags.Hash()
	if err != nil {
		t.Fatal(err)
	}
	want, err := bare.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("flags hash to %s, the bare spec to %s", got, want)
	}
}

// TestSweepTier: an -exp run refuses the -graph-only flags and validates
// -fidelity/-sample-k as a -graph run does, filling the default divisor.
func TestSweepTier(t *testing.T) {
	o := parseArgs(t, "-exp", "fig2", "-fidelity", "sampled")
	if err := sweepTier(o); err != nil || o.sampleK != jobs.DefaultSampleK {
		t.Fatalf("sampled sweep: K = %d, err = %v", o.sampleK, err)
	}
	if err := sweepTier(parseArgs(t, "-exp", "fig2", "-scale", "16")); err != nil {
		t.Fatalf("-scale 16 sweep refused: %v", err)
	}
	for _, args := range [][]string{
		{"-sample-k", "4"},
		{"-fidelity", "sampled", "-sample-k", "3"},
		{"-fidelity", "fast"},
		{"-corun", "BFS"},
		{"-corun-ratio", "2,1"},
		{"-arrays"},
		{"-scale", "3"},
		{"-scale", "24", "-fidelity", "sampled"},
		{"-scale", "4294967360"},
		{"-fidelity", "sampled", "-sample-k", "4294967300"},
	} {
		if err := sweepTier(parseArgs(t, args...)); err == nil {
			t.Errorf("%v: accepted on an -exp run", args)
		}
	}
}

// TestArraysRefused: -arrays replays the recording behind a local
// full-fidelity result; on any other run it is refused before the graph is
// touched.
func TestArraysRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-remote", "localhost:1"},
		{"-fidelity", "sampled"},
		{"-corun", "BFS"},
	} {
		o := parseArgs(t, append([]string{"-graph", noGraph, "-arrays"}, args...)...)
		spec, err := singleSpec(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := runSingle(o, spec, new(bytes.Buffer)); err == nil || !strings.Contains(err.Error(), "-arrays") {
			t.Errorf("%v: err = %v, want the -arrays refusal", args, err)
		}
	}
}

// arraySink is the live-stream reference of -arrays: a sim.RunSink wrapper
// that feeds the hierarchy and tallies every LLC-bound access of the
// executing application against the array its address falls in.
type arraySink struct {
	h         *cache.Hierarchy
	as        *mem.AddressSpace
	acc, miss map[string]uint64
}

// Access implements mem.Sink.
func (s *arraySink) Access(a mem.Access) {
	if s.h.Filter(a) {
		return
	}
	name := "(unmapped)"
	if ar := s.as.Find(a.Addr); ar != nil {
		name = ar.Name
	}
	s.acc[name]++
	if !s.h.LLC.Access(a) {
		s.miss[name]++
	}
}

// liveArrays runs spec execution-driven with an arraySink in front of the
// hierarchy, returning the tally and the run's Result.
func liveArrays(t *testing.T, wl *sim.Workload, spec sim.Spec) (*arraySink, sim.Result) {
	t.Helper()
	var sink *arraySink
	r, err := sim.RunSink(wl, spec, func(h *cache.Hierarchy, as *mem.AddressSpace) mem.Sink {
		sink = &arraySink{h: h, as: as, acc: map[string]uint64{}, miss: map[string]uint64{}}
		return sink
	})
	if err != nil {
		t.Fatal(err)
	}
	return sink, r
}

// TestArraysMatchesRun: the replayed -arrays tally equals the live-stream
// one array by array — for a hint-consuming policy, a plain one and a
// PC-predicting one, over an app with weight arrays (SSSP) and one with
// auxiliary arrays (TC) — its tally LLC ends in sim.Run's LLC state, and
// the per-array counts partition sim.Run's LLC accesses and misses.
func TestArraysMatchesRun(t *testing.T) {
	cfg := exp.ScaledConfig(64)
	s := exp.NewSession(cfg)
	for _, app := range []string{"PR", "SSSP", "TC"} {
		wl, err := s.Workload("lj", "DBG", app == "SSSP")
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []string{"GRASP", "LRU", "Hawkeye"} {
			spec := sim.Spec{App: app, Layout: apps.LayoutMerged, Policy: pol, HCfg: cfg.HCfg}
			want, err := sim.Run(wl, spec)
			if err != nil {
				t.Fatal(err)
			}
			live, _ := liveArrays(t, wl, spec)
			got, err := tallyArrays(context.Background(), s,
				jobs.Spec{Graph: "lj", Reorder: "DBG", App: app, Policy: pol}, wl)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.acc, live.acc) || !reflect.DeepEqual(got.miss, live.miss) {
				t.Errorf("%s/%s: replayed tally acc=%v miss=%v, live acc=%v miss=%v",
					app, pol, got.acc, got.miss, live.acc, live.miss)
			}
			if got.llc.Stats != want.LLC {
				t.Errorf("%s/%s: tally LLC %+v, sim.Run %+v", app, pol, got.llc.Stats, want.LLC)
			}
			var acc, miss uint64
			for name := range got.acc {
				acc += got.acc[name]
				miss += got.miss[name]
			}
			if acc != want.LLC.Accesses() || miss != want.LLC.Misses {
				t.Errorf("%s/%s: per-array sums %d/%d, LLC %d/%d",
					app, pol, acc, miss, want.LLC.Accesses(), want.LLC.Misses)
			}
		}
	}
}

// TestRunSingleLocal: a local full-fidelity run — the replay engine behind
// jobs.Simulate — prints byte for byte what the execution-driven path
// renders from sim.Run's Result and the workload's graph, -arrays
// breakdown included (rendered from the live-stream tally).
func TestRunSingleLocal(t *testing.T) {
	ds, err := graph.DatasetByName("lj")
	if err != nil {
		t.Fatal(err)
	}
	cfg := exp.ScaledConfig(64)
	wl, err := sim.PrepareWorkload(ds, "DBG", false, cfg.ScaleDiv)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"GRASP", "LRU"} {
		simSpec := sim.Spec{App: "PR", Layout: apps.LayoutMerged, Policy: pol, HCfg: cfg.HCfg}
		r, err := sim.Run(wl, simSpec)
		if err != nil {
			t.Fatal(err)
		}
		args := []string{"-graph", "lj", "-scale", "64", "-app", "PR", "-policy", pol}
		for _, arrays := range []bool{false, true} {
			if arrays {
				args = append(args, "-arrays")
			}
			o := parseArgs(t, args...)
			spec, err := singleSpec(o)
			if err != nil {
				t.Fatal(err)
			}
			var got, want bytes.Buffer
			if err := runSingle(o, spec, &got); err != nil {
				t.Fatal(err)
			}
			if err := printOutcome(&want, spec, &jobs.Outcome{Single: &r}, false, wl.Graph); err != nil {
				t.Fatal(err)
			}
			if arrays {
				live, _ := liveArrays(t, wl, simSpec)
				(&arrayTally{acc: live.acc, miss: live.miss}).print(&want, r)
			}
			if got.String() != want.String() {
				t.Errorf("%v: runSingle printed\n%s\nthe direct path\n%s", args, got.String(), want.String())
			}
		}
	}
}

// TestSampledSweepPrintsPlainResultsOnly: an -exp run on the sampled tier
// estimates each experiment's plain results, one row per declared point
// in declaration order, and nothing else: not the co-run cells (which it
// would print as solo estimates of their first app), not the region-scaled
// results (which it would print as plain GRASP estimates).
func TestSampledSweepPrintsPlainResultsOnly(t *testing.T) {
	o := parseArgs(t, "-exp", "corun,ablation-region", "-fidelity", "sampled", "-scale", "64")
	if err := sweepTier(o); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runSampledSweep(o, &buf); err != nil {
		t.Fatal(err)
	}
	sections := strings.Split(buf.String(), "\n## ")[1:]
	if len(sections) != 2 {
		t.Fatalf("%d experiment sections, want 2:\n%s", len(sections), buf.String())
	}
	for i, id := range []string{"corun", "ablation-region"} {
		e, err := exp.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, p := range e.Points() {
			if p.Plain() {
				want = append(want, strings.Join([]string{p.DS, p.Reorder, p.App, p.Policy}, " "))
			}
		}
		var got []string
		for _, line := range strings.Split(sections[i], "\n") {
			// Dataset, Reorder, App, Policy (some names hold a space), then
			// the estimate's three columns.
			if f := strings.Fields(line); len(f) >= 7 && f[1] == "DBG" {
				got = append(got, strings.Join(f[:len(f)-3], " "))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d rows, want one per declared plain result (%d)", id, len(got), len(want))
		}
	}
}
