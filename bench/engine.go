package main

// engine.go is the only file of the benchmark that reaches below exp, jobs,
// server and cluster. Every engine symbol used here has a production
// caller today — none of the zero-caller twins ROADMAP marks for deletion
// — so when the engine's API is collapsed, this is the one file to follow
// it.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"grasp/internal/apps"
	"grasp/internal/cache"
	"grasp/internal/exp"
	"grasp/internal/graph"
	"grasp/internal/ligra"
	"grasp/internal/mem"
	"grasp/internal/policy"
	"grasp/internal/sim"
	"grasp/internal/trace"
)

// Names the exp-level files need from below exp.
type sampledResult = sim.SampledResult

const layoutMerged = apps.LayoutMerged

// optTraceCap mirrors exp's bound on a declared LLC trace's length.
const optTraceCap = 8_000_000

func registeredPolicies() []string {
	var out []string
	for _, p := range sim.Policies() {
		out = append(out, p.Name)
	}
	return out
}

func datasetNames() []string {
	var out []string
	for _, d := range graph.Datasets() {
		out = append(out, d.Name)
	}
	return out
}

// paperApps is the paper's five applications.
func paperApps() []string { return apps.Names() }

// groupKey identifies one recording: everything the LLC-bound stream is a
// function of.
type groupKey struct {
	ds, reorder, app string
	layout           apps.Layout
}

func (k groupKey) String() string { return k.ds + "/" + k.reorder + "/" + k.app }

// recorded is one group's recording with what replays of it need.
type recorded struct {
	key      groupKey
	w        *sim.Workload
	tr       *trace.Trace
	bounds   [][2]uint64
	recordS  float64
	capped   bool
	baseline map[string]sim.Result // solo result by policy, once broadcast
}

// ladder re-enacts a sweep unit with the layers' own entry points, one
// span per call, memoizing exactly what exp.Session memoizes (base graph,
// workload, recording) so the sum of its spans is the unit's engine work.
type ladder struct {
	spans     *spanLog
	root      int
	cfg       exp.Config
	bases     map[string]*graph.CSR
	workloads map[string]*sim.Workload
	recs      map[groupKey]*recorded
	order     []*recorded

	loadEdges    uint64
	reorderEdges map[string]uint64
	reorderS     map[string]float64
	corunAccs    int64
	corunS       float64
	skip         trace.SkipReport
}

func newLadder(spans *spanLog, root int, cfg exp.Config) *ladder {
	return &ladder{spans: spans, root: root, cfg: cfg,
		bases: make(map[string]*graph.CSR), workloads: make(map[string]*sim.Workload),
		recs:         make(map[groupKey]*recorded),
		reorderEdges: make(map[string]uint64), reorderS: make(map[string]float64)}
}

// release returns the recordings' memory to the trace budget.
func (l *ladder) release() {
	for _, r := range l.order {
		r.tr.Release()
	}
}

func (l *ladder) workload(dsName, reorderName string, weighted bool) (*sim.Workload, error) {
	wkey := fmt.Sprintf("%s|%s|%v", dsName, reorderName, weighted)
	if w := l.workloads[wkey]; w != nil {
		return w, nil
	}
	ds, err := graph.Resolve(dsName)
	if err != nil {
		return nil, err
	}
	bkey := fmt.Sprintf("%s|%v", dsName, weighted)
	g := l.bases[bkey]
	if g == nil {
		if _, err := l.spans.timed("graph.load", l.root, bkey, func() (err error) {
			g, err = ds.Load(weighted, l.cfg.ScaleDiv)
			return err
		}); err != nil {
			return nil, err
		}
		l.bases[bkey] = g
		l.loadEdges += g.NumEdges()
	}
	var w *sim.Workload
	d, err := l.spans.timed("reorder.run", l.root, wkey, func() (err error) {
		w, err = sim.PrepareWorkloadOn(g, ds, reorderName, weighted)
		return err
	})
	if err != nil {
		return nil, err
	}
	l.workloads[wkey] = w
	l.reorderEdges[reorderName] += g.NumEdges()
	l.reorderS[reorderName] += d
	return w, nil
}

// record returns the group's recording, executing the application behind
// the L1/L2 filter on first use. limit > 0 records a capped prefix.
func (l *ladder) record(k groupKey, limit int64) (*recorded, error) {
	if r := l.recs[k]; r != nil {
		return r, nil
	}
	w, err := l.workload(k.ds, k.reorder, k.app == "SSSP")
	if err != nil {
		return nil, err
	}
	r := &recorded{key: k, w: w, capped: limit > 0}
	if r.recordS, err = l.spans.timed("sim.record", l.root, k.String(), func() (err error) {
		r.tr, err = sim.RecordTraceNCtx(context.Background(), w, k.app, k.layout, l.cfg.HCfg, limit)
		return err
	}); err != nil {
		return nil, err
	}
	if _, err := l.spans.timed("sim.abr_bounds", l.root, k.String(), func() (err error) {
		r.bounds, err = sim.ABRBoundsFor(w, k.app, k.layout)
		return err
	}); err != nil {
		return nil, err
	}
	l.recs[k] = r
	l.order = append(l.order, r)
	return r, nil
}

// pointGroup mirrors exp's Datapoint.group: a declared trace records under
// DBG/Merged.
func pointGroup(p exp.Datapoint) groupKey {
	if p.Trace {
		return groupKey{ds: p.DS, reorder: "DBG", app: p.App, layout: apps.LayoutMerged}
	}
	return groupKey{ds: p.DS, reorder: p.Reorder, app: p.App, layout: p.Layout}
}

// solo re-enacts Session.Prefetch over pts the way the session schedules
// it: a group with several consumers records once and broadcasts one
// decode to all its policies, a lone declared trace records its capped
// prefix, a lone policy runs execution-driven. It returns the number of
// distinct datapoints.
func (l *ladder) solo(pts []exp.Datapoint) (int, error) {
	seen := make(map[exp.Datapoint]bool)
	type group struct {
		key      groupKey
		policies []string
		declared bool
	}
	byKey := make(map[groupKey]*group)
	var groups []*group
	for _, p := range pts {
		if seen[p] {
			continue
		}
		seen[p] = true
		k := pointGroup(p)
		g := byKey[k]
		if g == nil {
			g = &group{key: k}
			byKey[k] = g
			groups = append(groups, g)
		}
		if p.Trace {
			g.declared = true
		} else {
			g.policies = append(g.policies, p.Policy)
		}
	}
	ctx := context.Background()
	for _, g := range groups {
		switch {
		case len(g.policies) > 1 || (g.declared && len(g.policies) == 1):
			r, err := l.record(g.key, 0)
			if err != nil {
				return 0, err
			}
			specs := make([]sim.Spec, len(g.policies))
			for i, p := range g.policies {
				specs[i] = sim.Spec{App: g.key.app, Layout: g.key.layout, Policy: p, HCfg: l.cfg.HCfg}
			}
			var results []sim.Result
			if _, err := l.spans.timed("sim.broadcast", l.root, g.key.String(), func() (err error) {
				results, err = sim.BroadcastResultsCtx(ctx, r.tr, specs, r.w.Dataset.Name, r.bounds)
				return err
			}); err != nil {
				return 0, err
			}
			r.baseline = make(map[string]sim.Result, len(results))
			for i, p := range g.policies {
				r.baseline[p] = results[i]
			}
		case g.declared:
			if _, err := l.record(g.key, optTraceCap); err != nil {
				return 0, err
			}
		default:
			w, err := l.workload(g.key.ds, g.key.reorder, g.key.app == "SSSP")
			if err != nil {
				return 0, err
			}
			spec := sim.Spec{App: g.key.app, Layout: g.key.layout, Policy: g.policies[0], HCfg: l.cfg.HCfg}
			if _, err := l.spans.timed("sim.direct", l.root, g.key.String(), func() error {
				_, err := sim.RunCtx(ctx, w, spec)
				return err
			}); err != nil {
				return 0, err
			}
		}
	}
	return len(seen), nil
}

// sampled re-enacts the sweep-sampled unit: each estimate is one masked
// replay of its group's full recording.
func (l *ladder) sampled(points []samplePoint, k uint32) error {
	for _, p := range points {
		r, err := l.record(groupKey{ds: p.ds, reorder: "DBG", app: p.app, layout: apps.LayoutMerged}, 0)
		if err != nil {
			return err
		}
		spec := sim.Spec{App: p.app, Layout: apps.LayoutMerged, Policy: p.policy, HCfg: l.cfg.HCfg}
		if _, err := l.spans.timed("sim.sampled", l.root, r.key.String()+"/"+p.policy, func() error {
			_, rep, err := sim.SampledReplayResultSkipCtx(context.Background(), r.tr, spec, r.w.Dataset.Name, r.bounds, k)
			l.skip.Add(rep)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// corun re-enacts the co-run experiment's cells on the recordings and solo
// baselines solo() left behind: every mix under every policy on every
// dataset, each one interleaved replay into a shared LLC.
func (l *ladder) corun(mixes [][]string, datasets, policies []string) error {
	for _, mix := range mixes {
		for _, pol := range policies {
			for _, ds := range datasets {
				streams := make([]sim.CorunStream, len(mix))
				var accs int64
				for i, app := range mix {
					r := l.recs[groupKey{ds: ds, reorder: "DBG", app: app, layout: apps.LayoutMerged}]
					if r == nil || r.baseline == nil {
						return fmt.Errorf("co-run cell %v/%s/%s: no solo baseline for %s", mix, pol, ds, app)
					}
					streams[i] = sim.CorunStream{App: app, Layout: apps.LayoutMerged, Weight: 1,
						Trace: r.tr, Bounds: r.bounds, Solo: r.baseline[pol]}
					accs += r.tr.Len()
				}
				d, err := l.spans.timed("sim.corun", l.root, fmt.Sprintf("%d-way/%s/%s", len(mix), pol, ds), func() error {
					_, err := sim.CorunReplayResultCtx(context.Background(), streams, pol, l.cfg.HCfg, ds)
					return err
				})
				if err != nil {
					return err
				}
				l.corunAccs += accs
				l.corunS += d
			}
		}
	}
	return nil
}

// nsPer is seconds spread over n items, in nanoseconds each; 0 for none.
func nsPer[N int | int64 | uint64](seconds float64, n N) float64 {
	if n == 0 {
		return 0
	}
	return seconds * 1e9 / float64(n)
}

// ladderSpanNames are the re-enacted engine calls whose self times sum to
// exp.ladder_sum_s.
var ladderSpanNames = []string{"graph.load", "reorder.run", "sim.record", "sim.abr_bounds",
	"sim.broadcast", "sim.direct", "sim.sampled", "sim.corun"}

// report turns the re-enactment's spans and counts into per-layer metrics.
func (l *ladder) report(m metrics, self map[string]float64) {
	m.set("graph.load_s", self["graph.load"], len(l.bases))
	m.set("graph.load_ns_per_edge", nsPer(self["graph.load"], l.loadEdges), len(l.bases))
	m.set("reorder.run_s", self["reorder.run"], len(l.workloads))
	for tech, edges := range l.reorderEdges {
		m.set("reorder.ns_per_edge."+sanitize(tech), nsPer(l.reorderS[tech], edges), int(edges))
	}
	var llc int64
	for _, r := range l.order {
		llc += r.tr.Len()
	}
	m.set("sim.record_s", self["sim.record"], len(l.order))
	m.set("sim.record_ns_per_llc_access", nsPer(self["sim.record"], llc), len(l.order))
	m.set("sim.broadcast_s", self["sim.broadcast"], len(l.order))
	m.set("sim.direct_s", self["sim.direct"], 1)
	m.set("sim.sampled_s", self["sim.sampled"], 1)
	m.set("sim.corun_s", self["sim.corun"], 1)
	m.set("sim.corun_ns_per_access", nsPer(l.corunS, l.corunAccs), int(l.corunAccs))
	m.set("exp.groups", float64(len(l.order)), 1)
	m.set("trace.llc_accesses", float64(llc), 1)
	var sum float64
	for _, n := range ladderSpanNames {
		sum += self[n]
	}
	m.set("exp.ladder_sum_s", sum, 1)
}

// rungPasses is how often each kernel rung repeats; the median is kept.
const rungPasses = 3

// medianSeconds times fn rungPasses times and returns the median.
func medianSeconds(fn func() error) (float64, error) {
	var ds []float64
	for i := 0; i < rungPasses; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

func noop([]mem.Access) {}

// rungs measures the kernels by substitution on the workload's own two
// longest full recordings: the same call with the layer under test swapped
// for a no-op, the difference divided by the accesses that went through.
func (l *ladder) rungs(m metrics) error {
	var full []*recorded
	for _, r := range l.order {
		if !r.capped {
			full = append(full, r)
		}
	}
	if len(full) == 0 {
		return nil
	}
	sort.SliceStable(full, func(i, j int) bool { return full[i].tr.Len() > full[j].tr.Len() })
	full = full[:min(2, len(full))]
	ctx := context.Background()
	llcCfg := l.cfg.HCfg.LLC

	var accs, bytes int64
	var decode1, decode8, masked, encode, native, counting, recordS float64
	var appAccs uint64
	var skip trace.SkipReport
	perPolicy := make(map[string]float64)
	for _, r := range full {
		n := r.tr.Len()
		accs += n
		bytes += r.tr.SizeBytes()
		recordS += r.recordS

		d, err := medianSeconds(func() error { return r.tr.BroadcastNCtx(ctx, 0, []func([]mem.Access){noop}) })
		if err != nil {
			return err
		}
		decode1 += d
		eight := make([]func([]mem.Access), 8)
		for i := range eight {
			eight[i] = noop
		}
		if d, err = medianSeconds(func() error { return r.tr.BroadcastNCtx(ctx, 0, eight) }); err != nil {
			return err
		}
		decode8 += d

		mask := trace.SampledSetsMask(llcCfg.Sets(), trace.SampledSets(llcCfg.Sets(), sampledK))
		if d, err = medianSeconds(func() error {
			rep, err := r.tr.BroadcastMaskedNCtx(ctx, 0, mask, []func([]mem.Access){noop})
			skip = rep
			return err
		}); err != nil {
			return err
		}
		masked += d
		l.skip.Add(skip)

		for _, p := range policyNames {
			if _, err := sim.PolicyByName(p); err != nil {
				continue // no longer registered: its rung reads 0
			}
			spec := sim.Spec{App: r.key.app, Layout: r.key.layout, Policy: p, HCfg: l.cfg.HCfg}
			if d, err = medianSeconds(func() error {
				_, err := sim.ReplayResultCtx(ctx, r.tr, spec, r.w.Dataset.Name, r.bounds)
				return err
			}); err != nil {
				return err
			}
			perPolicy[p] += d
		}

		stream := make([]mem.Access, 0, n)
		if err := r.tr.BroadcastNCtx(ctx, 0, []func([]mem.Access){func(a []mem.Access) { stream = append(stream, a...) }}); err != nil {
			return err
		}
		if d, err = medianSeconds(func() error {
			rec := trace.NewRawRecorder()
			for _, a := range stream {
				rec.Record(a)
			}
			tr, err := rec.Finish(0)
			if err == nil {
				tr.Release()
			}
			return err
		}); err != nil {
			return err
		}
		encode += d

		runApp := func(sink mem.Sink) func() error {
			return func() error {
				app, err := apps.New(r.key.app, ligra.NewGraph(r.w.Graph), r.key.layout)
				if err != nil {
					return err
				}
				app.Run(ligra.NewTracer(sink))
				return nil
			}
		}
		if d, err = medianSeconds(runApp(nil)); err != nil {
			return err
		}
		native += d
		var count mem.CountingSink
		if d, err = medianSeconds(runApp(&count)); err != nil {
			return err
		}
		counting += d
		appAccs += (count.Reads + count.Writes) / rungPasses
	}
	m.set("trace.decode_ns_per_access", nsPer(decode1, accs), int(accs))
	m.set("trace.fanout_ns_per_access_per_consumer", nsPer(decode8-decode1, accs)/7, int(accs))
	m.set("trace.decode_masked_ns_per_access", nsPer(masked, accs), int(accs))
	m.set("trace.pruned_share", l.skip.SkipRatio(), int(accs))
	m.set("trace.chunks_skipped", float64(l.skip.ChunksSkipped), int(l.skip.ChunksSkipped+l.skip.ChunksDecoded))
	m.set("trace.encode_ns_per_access", nsPer(encode, accs), int(accs))
	m.set("trace.bytes_per_access", float64(bytes)/float64(accs), int(accs))
	for p, d := range perPolicy {
		m.set("cache.access_ns."+sanitize(p), nsPer(d-decode1, accs), int(accs))
	}
	m.set("apps.native_ns_per_access", nsPer(native, appAccs), int(appAccs))
	m.set("ligra.emit_ns_per_access", nsPer(counting-native, appAccs), int(appAccs))
	m.set("cache.filter_encode_ns_per_access", nsPer(recordS-counting, appAccs), int(appAccs))

	// Interleaving the same recordings, against decoding each alone.
	streams := make([]trace.InterleaveStream, len(full))
	for i, r := range full {
		streams[i] = trace.InterleaveStream{Trace: r.tr, Weight: 1}
	}
	d, err := medianSeconds(func() error {
		return trace.InterleaveReplayCtx(ctx, streams, 0, func(int, []mem.Access) {})
	})
	if err != nil {
		return err
	}
	m.set("trace.interleave_ns_per_access", nsPer(d-decode1, accs), int(accs))

	// Belady's OPT on the longest recording's block stream.
	r := full[0]
	blocks := make([]uint64, 0, r.tr.Len())
	if err := r.tr.BroadcastNCtx(ctx, 0, []func([]mem.Access){func(as []mem.Access) {
		for _, a := range as {
			blocks = append(blocks, cache.BlockAddr(a.Addr))
		}
	}}); err != nil {
		return err
	}
	if d, err = medianSeconds(func() error {
		policy.SimulateOPT(blocks, llcCfg.Sets(), llcCfg.Ways)
		return nil
	}); err != nil {
		return err
	}
	m.set("policy.opt_ns_per_access", nsPer(d, len(blocks)), len(blocks))
	return nil
}
