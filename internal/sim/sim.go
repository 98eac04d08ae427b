// Package sim is the simulation driver: it wires a dataset, a reordering
// technique, an application and an LLC policy into the cache hierarchy and
// produces the metrics the paper reports (LLC misses, access breakdown,
// modeled memory time). It replaces the paper's Sniper-based methodology
// (Sec. IV-C) with execution-driven trace simulation — see DESIGN.md.
package sim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"grasp/internal/apps"
	"grasp/internal/cache"
	"grasp/internal/core"
	"grasp/internal/graph"
	"grasp/internal/ligra"
	"grasp/internal/mem"
	"grasp/internal/policy"
	"grasp/internal/reorder"
	"grasp/internal/trace"
)

// PolicyInfo describes an LLC policy available to experiments, including
// whether it consumes GRASP's software hints (and therefore needs ABRs
// programmed).
type PolicyInfo struct {
	Name      string
	NeedsABRs bool
	New       func(sets, ways uint32) cache.Policy
}

// registry is the one table of LLC policies and their names, built exactly
// once: resolving a policy is on the per-simulation setup path. Prior
// schemes come first, then the GRASP variants. NeedsABRs marks the
// policies that read GRASP's software hints: the GRASP variants and XMem's
// PIN-X, which pins High-Reuse blocks through the GRASP interface.
var registry = sync.OnceValues(func() ([]PolicyInfo, map[string]PolicyInfo) {
	out := []PolicyInfo{
		{Name: "LRU", New: func(s, w uint32) cache.Policy { return cache.NewLRU(s, w) }},
		{Name: "SRRIP", New: func(s, w uint32) cache.Policy { return policy.NewSRRIP(s, w) }},
		{Name: "BRRIP", New: func(s, w uint32) cache.Policy { return policy.NewBRRIP(s, w) }},
		{Name: "RRIP", New: func(s, w uint32) cache.Policy { return policy.NewDRRIP(s, w) }},
		{Name: "DIP", New: func(s, w uint32) cache.Policy { return policy.NewDIP(s, w) }},
		{Name: "PLRU", New: func(s, w uint32) cache.Policy { return policy.NewPLRU(s, w) }},
		{Name: "SHiP-MEM", New: func(s, w uint32) cache.Policy { return policy.NewSHiP(s, w, false) }},
		{Name: "SHiP-PC", New: func(s, w uint32) cache.Policy { return policy.NewSHiP(s, w, true) }},
		{Name: "Hawkeye", New: func(s, w uint32) cache.Policy { return policy.NewHawkeye(s, w) }},
		{Name: "Leeway", New: func(s, w uint32) cache.Policy { return policy.NewLeeway(s, w) }},
		{Name: "PIN-25", NeedsABRs: true, New: func(s, w uint32) cache.Policy { return policy.NewXMem(s, w, 25) }},
		{Name: "PIN-50", NeedsABRs: true, New: func(s, w uint32) cache.Policy { return policy.NewXMem(s, w, 50) }},
		{Name: "PIN-75", NeedsABRs: true, New: func(s, w uint32) cache.Policy { return policy.NewXMem(s, w, 75) }},
		{Name: "PIN-100", NeedsABRs: true, New: func(s, w uint32) cache.Policy { return policy.NewXMem(s, w, 100) }},
		{Name: "RRIP+Hints", NeedsABRs: true,
			New: func(s, w uint32) cache.Policy { return core.NewPolicy(s, w, core.ModeHintsOnly) }},
		{Name: "GRASP (Insertion-Only)", NeedsABRs: true,
			New: func(s, w uint32) cache.Policy { return core.NewPolicy(s, w, core.ModeInsertionOnly) }},
		{Name: "GRASP", NeedsABRs: true, New: func(s, w uint32) cache.Policy { return core.NewPolicy(s, w, core.ModeFull) }},
		{Name: "GRASP-LRU", NeedsABRs: true, New: func(s, w uint32) cache.Policy { return core.NewLRUPolicy(s, w) }},
		{Name: "GRASP-PLRU", NeedsABRs: true, New: func(s, w uint32) cache.Policy { return core.NewPLRUPolicy(s, w) }},
		{Name: "GRASP-DIP", NeedsABRs: true, New: func(s, w uint32) cache.Policy { return core.NewDIPPolicy(s, w) }},
	}
	byName := make(map[string]PolicyInfo, len(out))
	for _, p := range out {
		byName[p.Name] = p
	}
	return out, byName
})

// Policies returns the full registry: the prior schemes from
// internal/policy (and LRU from internal/cache) plus the GRASP variants
// from internal/core, in a fixed order. The returned slice is shared;
// callers must not modify it.
func Policies() []PolicyInfo {
	all, _ := registry()
	return all
}

// PolicyByName resolves a policy from the registry.
func PolicyByName(name string) (PolicyInfo, error) {
	_, byName := registry()
	if p, ok := byName[name]; ok {
		return p, nil
	}
	return PolicyInfo{}, fmt.Errorf("sim: unknown policy %q", name)
}

// Workload is a prepared (dataset, reordering) pair, reusable across apps
// and policies so experiments amortize generation and reordering cost.
type Workload struct {
	Dataset     graph.Dataset
	Reorder     string
	Graph       *graph.CSR
	ReorderCost time.Duration
	Weighted    bool
}

// PrepareWorkload materializes the dataset (generating synthetic kinds
// scaled down by scaleDiv, 1 = full reproduction scale; ingesting
// file-backed datasets) and applies the named reordering technique, timing
// it.
func PrepareWorkload(ds graph.Dataset, reorderName string, weighted bool, scaleDiv uint32) (*Workload, error) {
	g, err := ds.Load(weighted, scaleDiv)
	if err != nil {
		return nil, err
	}
	return PrepareWorkloadOn(g, ds, reorderName, weighted)
}

// PrepareWorkloadOn applies the named reordering to an already-loaded
// graph, producing the workload. The loaded graph is never mutated
// (reorderings build relabeled copies), so callers holding one loaded
// instance — a Prefetch batch shares one load across every reordering of
// a graph — can prepare many workloads from it.
//
// A weighted workload keeps only its out-edges (graph.CSR.OutOnly): SSSP,
// the one application that reads weights, pushes throughout (Table IV),
// so the in-edge side is a third of the graph's bytes that no simulation
// reads. A pull traversal on it panics, naming the missing side.
func PrepareWorkloadOn(g *graph.CSR, ds graph.Dataset, reorderName string, weighted bool) (*Workload, error) {
	tech, err := reorder.ByName(reorderName)
	if err != nil {
		return nil, err
	}
	perm, cost := reorder.Timed(tech, g, reorder.BySum)
	if reorderName != "Identity" {
		g = reorder.Apply(g, perm)
	}
	if weighted {
		g = g.OutOnly()
	}
	return &Workload{Dataset: ds, Reorder: reorderName, Graph: g,
		ReorderCost: cost, Weighted: weighted}, nil
}

// Spec identifies one simulation run on a prepared workload.
type Spec struct {
	App    string
	Layout apps.Layout
	Policy string
	HCfg   cache.HierarchyConfig
	// RegionScale sizes a hint-consuming policy's High/Moderate Reuse
	// Regions as a multiple of the LLC capacity; 0 is the paper's 1x
	// (Sec. III-B), and a policy without ABRs refuses any other value.
	// It is omitted from JSON at 0, so a paper-design outcome's bytes
	// are those of a Spec without the field.
	RegionScale float64 `json:",omitempty"`
}

// Resolve returns spec's policy from the registry, refusing an unknown
// name and a region scale on a policy that has no reuse regions.
func (spec Spec) Resolve() (PolicyInfo, error) {
	pinfo, err := PolicyByName(spec.Policy)
	if err == nil && spec.RegionScale != 0 && !pinfo.NeedsABRs {
		err = fmt.Errorf("sim: region scale %g on %s, a policy without reuse regions", spec.RegionScale, spec.Policy)
	}
	return pinfo, err
}

// Result carries the metrics of one run.
type Result struct {
	Spec        Spec
	Workload    string // dataset name
	L1, L2, LLC cache.Stats
	Cycles      float64       // modeled memory time (arbitrary units)
	AppTime     time.Duration // wall-clock of the traced execution
}

// SpeedupPctOver returns the percentage speed-up of r relative to base
// under the memory-time model: positive = r is faster.
func (r Result) SpeedupPctOver(base Result) float64 {
	return (base.Cycles/r.Cycles - 1) * 100
}

// MissReductionPctOver returns the percentage of base's LLC misses that r
// eliminates (can be negative).
func (r Result) MissReductionPctOver(base Result) float64 {
	if base.LLC.Misses == 0 {
		return 0
	}
	return (1 - float64(r.LLC.Misses)/float64(base.LLC.Misses)) * 100
}

// Run executes one (app, layout, policy) simulation on the workload.
func Run(w *Workload, spec Spec) (Result, error) {
	return RunSink(w, spec, nil)
}

// RunSink is Run with the caller's sink between the application and the
// hierarchy — the one place an execution-driven run resolves the policy,
// programs the ABRs (at spec.RegionScale) and builds the hierarchy. wrap
// receives that hierarchy and the run's address space and returns the
// sink the application drives; whatever it interposes (RunCtx's context
// poll, a test's live-stream tally) must forward every access to h for
// the Result to equal Run's. A nil wrap drives h itself.
func RunSink(w *Workload, spec Spec, wrap func(h *cache.Hierarchy, as *mem.AddressSpace) mem.Sink) (Result, error) {
	pinfo, err := spec.Resolve()
	if err != nil {
		return Result{}, err
	}
	fg := ligra.NewGraph(w.Graph)
	app, err := apps.New(spec.App, fg, spec.Layout)
	if err != nil {
		return Result{}, err
	}
	llcPolicy := pinfo.New(spec.HCfg.LLC.Sets(), spec.HCfg.LLC.Ways)
	var cl cache.Classifier
	if pinfo.NeedsABRs {
		abrs := core.NewABRs(spec.HCfg.LLC.SizeBytes)
		abrs.SetRegionScale(spec.RegionScale)
		for _, a := range app.ABRArrays() {
			if err := abrs.SetArray(a); err != nil {
				return Result{}, err
			}
		}
		cl = abrs
	}
	h, err := cache.NewHierarchy(spec.HCfg, llcPolicy, cl)
	if err != nil {
		return Result{}, err
	}
	var sink mem.Sink = h
	if wrap != nil {
		sink = wrap(h, fg.AS)
	}
	start := time.Now()
	app.Run(ligra.NewTracer(sink))
	elapsed := time.Since(start)
	return Result{
		Spec:     spec,
		Workload: w.Dataset.Name,
		L1:       h.L1.Stats, L2: h.L2.Stats, LLC: h.LLC.Stats,
		Cycles:  h.MemoryCycles(),
		AppTime: elapsed,
	}, nil
}

// cancelPollInterval is how many accesses a cancellable direct run lets
// pass between context polls — the same cadence as the Recorder's poll,
// so a cancelled simulation unwinds within one chunk's worth of accesses
// on either path.
const cancelPollInterval = 1 << 15

// cancelSink interposes a context poll in front of the hierarchy: the
// RunSink wrapper of a cancellable RunCtx.
type cancelSink struct {
	h    *cache.Hierarchy
	ctx  context.Context
	done <-chan struct{}
	poll int
}

// Access implements mem.Sink: poll the context every cancelPollInterval
// accesses, then forward.
func (c *cancelSink) Access(a mem.Access) {
	if c.poll--; c.poll <= 0 {
		c.poll = cancelPollInterval
		select {
		case <-c.done:
			trace.PanicAbort(trace.ContextErr(c.ctx))
		default:
		}
	}
	c.h.Access(a)
}

// RunCtx is Run with cooperative cancellation. The application drives
// the access stream and offers no return path, so cancellation unwinds
// the execution via the trace.PanicAbort sentinel, recovered here and
// returned as the context's error. With a non-cancellable context (nil
// Done) this is byte-for-byte Run: no wrapper sink, no poll.
func RunCtx(ctx context.Context, w *Workload, spec Spec) (res Result, err error) {
	done := ctx.Done()
	if done == nil {
		return Run(w, spec)
	}
	defer func() {
		if p := recover(); p != nil {
			aerr, ok := trace.AbortError(p)
			if !ok {
				panic(p)
			}
			err = aerr
		}
	}()
	return RunSink(w, spec, func(h *cache.Hierarchy, _ *mem.AddressSpace) mem.Sink {
		return &cancelSink{h: h, ctx: ctx, done: done, poll: cancelPollInterval}
	})
}

// RecordTraceNCtx executes the app once behind the policy-independent
// L1/L2 filter of hcfg and returns the encoded LLC-bound access stream —
// the record half of the record-once/replay-many engine (DESIGN.md
// Sec. 11). The trace, combined with the filter stats it carries, is
// sufficient to reproduce Run's Result exactly for ANY LLC policy and
// geometry, because the upper levels never observe the LLC.
//
// limit caps the encoding: at most limit LLC-bound accesses are stored
// (limit <= 0: all); the L1/L2 filter still runs over the whole execution,
// so the stored prefix is exactly the first limit accesses of an unlimited
// recording. Capped traces serve bounded-prefix consumers without holding
// the full stream; they must NOT back full-result replays.
//
// Cancellation is cooperative: the recorder polls the context as it
// encodes and unwinds the application with the abort sentinel once it is
// cancelled; the partial recording is dropped and the context's error
// returned. A non-cancellable
// context adds one nil check per access to the recorder's hot path.
func RecordTraceNCtx(ctx context.Context, w *Workload, appName string, layout apps.Layout, hcfg cache.HierarchyConfig, limit int64) (tr *trace.Trace, err error) {
	fg := ligra.NewGraph(w.Graph)
	app, err := apps.New(appName, fg, layout)
	if err != nil {
		return nil, err
	}
	rec, err := trace.NewRecorder(hcfg)
	if err != nil {
		return nil, err
	}
	rec.SetLimit(limit)
	if ctx.Done() != nil {
		rec.SetContext(ctx)
		defer func() {
			if p := recover(); p != nil {
				aerr, ok := trace.AbortError(p)
				if !ok {
					panic(p)
				}
				tr, err = nil, aerr
			}
		}()
	}
	start := time.Now()
	app.Run(ligra.NewTracer(rec))
	return rec.Finish(time.Since(start))
}

// NewReplayLLC builds a standalone LLC of spec's geometry (spec.HCfg.LLC)
// under spec's policy and, for hint-consuming policies, a classifier
// programmed from recorded ABR bounds (in SetArray order, so region sizing
// matches the recording run) with reuse regions of spec.RegionScale x the
// LLC. It is the one place a replay resolves its policy, so every replay
// tier refuses what Run refuses; it is exported for consumers composing
// their own broadcast-replay fan-outs (the OPT study feeds several such
// LLCs plus a block collector from one decode pass).
func NewReplayLLC(spec Spec, abrArrays [][2]uint64) (*cache.Cache, error) {
	pinfo, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	llcCfg := spec.HCfg.LLC
	llc, err := cache.New(llcCfg, pinfo.New(llcCfg.Sets(), llcCfg.Ways))
	if err != nil {
		return nil, err
	}
	if pinfo.NeedsABRs {
		abrs := core.NewABRs(llcCfg.SizeBytes)
		abrs.SetRegionScale(spec.RegionScale)
		for _, b := range abrArrays {
			if err := abrs.SetBounds(b[0], b[1]); err != nil {
				return nil, err
			}
		}
		llc.SetClassifier(abrs)
	}
	return llc, nil
}

// ReplayResultCtx produces the Result of one (app, layout, policy)
// datapoint from a recorded trace instead of re-executing the application:
// the replay half of the engine. The returned metrics are identical to
// what Run would report for the same spec — L1/L2 stats come from the
// recording, the LLC is simulated fresh from the decoded stream, and the
// memory-time model prices the combination exactly as a live hierarchy
// would. AppTime is the recording run's execution time (the trace shares
// one execution across every policy, so per-policy app wall-clock does not
// exist on this path). It is BroadcastResultsCtx with one spec, so
// cancellation is the fan-out's per-chunk context check.
func ReplayResultCtx(ctx context.Context, tr *trace.Trace, spec Spec, workloadName string, abrArrays [][2]uint64) (Result, error) {
	rs, err := BroadcastResultsCtx(ctx, tr, []Spec{spec}, workloadName, abrArrays)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// BroadcastResultsCtx produces the Results of several policies' datapoints
// from ONE decode pass over a recorded trace: each spec gets its own
// replay LLC, and trace.BroadcastNCtx fans every decoded slab out to all
// of them concurrently. Each returned Result is identical to what Run
// would produce for the same spec; an N-policy sweep just pays one decode
// instead of N, and the N LLC simulations overlap on multi-core hosts
// (one spec simulates on the decoding goroutine). The specs may
// differ in policy AND LLC geometry (the recording is valid for any LLC
// configuration).
// The fan-out's producer checks the context per decoded chunk, so a
// cancelled N-policy sweep stops within one chunk boundary across all N
// replays at once.
func BroadcastResultsCtx(ctx context.Context, tr *trace.Trace, specs []Spec, workloadName string, abrArrays [][2]uint64) ([]Result, error) {
	llcs := make([]*cache.Cache, len(specs))
	consumers := make([]func([]mem.Access), len(specs))
	for i, spec := range specs {
		llc, err := NewReplayLLC(spec, abrArrays)
		if err != nil {
			return nil, err
		}
		llcs[i] = llc
		consumers[i] = func(accs []mem.Access) {
			for _, a := range accs {
				llc.Access(a)
			}
		}
	}
	if err := tr.BroadcastNCtx(ctx, 0, consumers); err != nil {
		return nil, err
	}
	out := make([]Result, len(specs))
	for i, spec := range specs {
		out[i] = Result{
			Spec:     spec,
			Workload: workloadName,
			L1:       tr.L1Stats(), L2: tr.L2Stats(), LLC: llcs[i].Stats,
			Cycles:  cache.MemoryCyclesOf(spec.HCfg, tr.L1Stats(), tr.L2Stats(), llcs[i].Stats),
			AppTime: tr.AppTime(),
		}
	}
	return out, nil
}

// ABRBoundsFor computes the [start, end) bounds of the app's ABR arrays on
// a fresh graph wrapper (layout-dependent), for use with ReplayResultCtx
// and NewReplayLLC. The address space layout is deterministic, so bounds
// from a fresh wrapper match those of the run that produced the trace.
func ABRBoundsFor(w *Workload, appName string, layout apps.Layout) ([][2]uint64, error) {
	fg := ligra.NewGraph(w.Graph)
	app, err := apps.New(appName, fg, layout)
	if err != nil {
		return nil, err
	}
	var out [][2]uint64
	for _, a := range app.ABRArrays() {
		out = append(out, [2]uint64{a.Base, a.End()})
	}
	return out, nil
}
