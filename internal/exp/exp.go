// Package exp is the experiment harness: every table and figure of the
// paper's evaluation has a named experiment that regenerates it on the
// synthetic datasets (see DESIGN.md Sec. 4 for the per-experiment index).
//
// The harness is a concurrent experiment engine (DESIGN.md Sec. 6): a
// Session is safe for use from many goroutines, deduplicates concurrent
// requests for the same datapoint singleflight-style, and can fan a batch
// of pre-declared datapoints out over a worker pool. Experiments declare
// their datapoints up front (Experiment.Points) so RunAll computes the
// union in parallel and then renders each experiment, in order, from the
// warm cache — producing output byte-identical to a sequential run.
package exp

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"grasp/internal/apps"
	"grasp/internal/cache"
	"grasp/internal/graph"
	"grasp/internal/sim"
	"grasp/internal/trace"
)

// Config is an experiment's geometry: the dataset scale and the simulated
// hierarchy. What a session may retain is its Store's business.
type Config struct {
	// ScaleDiv divides dataset sizes; 1 = full reproduction scale
	// (131072 vertices, 256KB LLC). Benchmarks use larger divisors.
	ScaleDiv uint32
	// HCfg is the simulated hierarchy. Zero value = default config scaled
	// to ScaleDiv (the LLC shrinks with the datasets to preserve the
	// footprint-to-capacity ratio).
	HCfg cache.HierarchyConfig
}

// DefaultConfig returns the full reproduction scale.
func DefaultConfig() Config {
	return Config{ScaleDiv: 1, HCfg: cache.DefaultHierarchyConfig()}
}

// ScaledConfig returns a configuration scaled down by div (power of two):
// datasets are div times smaller and the hierarchy shrinks with them.
func ScaledConfig(div uint32) Config {
	h := cache.DefaultHierarchyConfig()
	shrink := func(c cache.Config) cache.Config {
		s := c.SizeBytes / uint64(div)
		min := uint64(c.Ways) * cache.BlockSize * 2
		if s < min {
			s = min
		}
		return cache.Config{SizeBytes: s, Ways: c.Ways}
	}
	h.L1 = shrink(h.L1)
	h.L2 = shrink(h.L2)
	h.LLC = shrink(h.LLC)
	return Config{ScaleDiv: div, HCfg: h}
}

// Session caches prepared workloads, simulation results and recorded LLC
// traces so experiments sharing datapoints (e.g. fig5 and fig6) do not
// repeat work. It is safe for concurrent use: simultaneous requests for
// one datapoint — whether from Prefetch workers or from experiments run in
// parallel by the caller — are deduplicated so each datapoint is computed
// exactly once, and a batch waits for a datapoint another caller is
// computing instead of computing it again. Everything it remembers lives in
// its Store (artifacts.go, DESIGN.md Sec. 6), which other sessions, of
// other scales, may share.
//
// The session is also the scheduler of the record-once/replay-many engine
// (DESIGN.md Sec. 11): the access stream reaching the LLC is a pure
// function of (dataset, reorder, app, layout), so when a Prefetch batch
// asks for several policies on one such group, the application executes
// once into a trace.Trace and every policy replays the shared immutable
// recording. That recording is the only source of a full-fidelity result:
// a lone Result call or a single-policy group records on first touch and
// replays too, so the next policy of the group — on a daemon they arrive
// one request at a time — finds the recording instead of re-executing.
type Session struct {
	Cfg        Config
	art        *Store
	simRuns    atomic.Uint64 // number of distinct simulated result datapoints (dedup observability)
	broadcasts atomic.Uint64 // result fan-outs run, each serving one group's claimed policies
	sampledRun atomic.Uint64 // distinct set-sampled estimates computed (fast-tier observability)
	subBuilds  atomic.Uint64 // sampled subsequences built (each one masked decode of a full recording)
	corunRun   atomic.Uint64 // distinct shared-LLC co-run replays computed (DESIGN.md Sec. 15)

	// phase accumulates cumulative engine nanoseconds per prefetch phase
	// (across workers, so a multi-core batch's phases can sum past
	// wall-clock); PhaseSeconds exposes it for the closing line of a
	// graspsim sweep.
	phase struct {
		load, reorder, record, replay, sampled, corun atomic.Int64
	}
}

// recording pairs a recorded LLC-bound trace with the ABR bounds of the
// run that produced it, so hint-consuming policies replay under the exact
// classifier configuration of a direct run.
type recording struct {
	tr     *trace.Trace
	bounds [][2]uint64
}

// NewSession creates a session over a fresh store of the default budget:
// the whole cache of a process that runs one geometry (graspsim, bench).
func NewSession(cfg Config) *Session { return NewStore(0).Session(cfg) }

// SimRuns returns the number of distinct result datapoints the session
// has simulated (each a replay of its group's recording, alone or in a
// fan-out) — cache hits and singleflight-merged requests do not count, so
// under any access pattern this equals the number of distinct result
// datapoints.
func (s *Session) SimRuns() uint64 { return s.simRuns.Load() }

// Broadcasts returns how many decode-once result fan-outs this session
// has run: one per group of a Prefetch batch whatever its policy count,
// and one per lone result (a fan-out of one). The CI bench smoke asserts
// a multi-policy batch is served by exactly one.
func (s *Session) Broadcasts() uint64 { return s.broadcasts.Load() }

// PhaseSeconds returns the session's cumulative engine time per phase:
// "load" (dataset generation/ingestion), "reorder" (vertex reordering +
// relabeling), "record" (traced application executions), "replay"
// (trace decode + LLC simulation, broadcast or single), "sampled"
// (set-sampled fast-tier replays, DESIGN.md Sec. 14) and "corun"
// (interleaved shared-LLC co-run replays, Sec. 15). Values
// are worker-cumulative — on a multi-core host the phases of one wall
// second can sum to several phase-seconds — and monotone over the
// session's lifetime; a local graspsim sweep prints them on its closing
// stderr line, so a slow sweep localizes to a phase (DESIGN.md Sec. 7).
func (s *Session) PhaseSeconds() map[string]float64 {
	sec := func(a *atomic.Int64) float64 { return time.Duration(a.Load()).Seconds() }
	return map[string]float64{
		"load":    sec(&s.phase.load),
		"reorder": sec(&s.phase.reorder),
		"record":  sec(&s.phase.record),
		"replay":  sec(&s.phase.replay),
		"sampled": sec(&s.phase.sampled),
		"corun":   sec(&s.phase.corun),
	}
}

// CacheBytesRetained returns the bytes currently charged against the
// budget of the session's store, by this session and any other sharing it.
func (s *Session) CacheBytesRetained() int64 { return s.art.CacheBytesRetained() }

// dataset opens a request's handle on dsName: the spec is resolved and,
// if it names a graph file, stat'ed — once; everything the request then
// touches keys under the stamp seen here and the session's Config. A
// stray file shadowing a builtin name is ignored, matching graph.Resolve's
// precedence.
func (s *Session) dataset(dsName string) dataset {
	d := dataset{name: dsName}
	if ds, err := graph.Resolve(dsName); err == nil && ds.Kind == graph.KindFile {
		if fi, err := os.Stat(ds.Path); err == nil {
			d = s.art.observe(dsName, fileStamp{size: fi.Size(), modNano: fi.ModTime().UnixNano()})
		}
	}
	d.cfg = s.Cfg
	return d
}

// group identifies one recording group — every result datapoint that
// shares it can be served from one recorded trace — by the key of that
// trace, the group's full recording.
func group(d dataset, reorder, app string, layout apps.Layout) artifactKey {
	return artifactKey{ds: d, kind: kindRecording, reorder: reorder, app: app, layout: layout}
}

// of returns the key of another artifact of k's group.
func (k artifactKey) of(kd kind, policy string) artifactKey {
	k.kind, k.policy = kd, policy
	return k
}

func (p Datapoint) group(d dataset) artifactKey {
	if p.Trace {
		// Declared LLC traces record under DBG/Merged (the OPT study's
		// configuration), sharing the recording with any result datapoints
		// of that group.
		return group(d, "DBG", p.App, apps.LayoutMerged)
	}
	return group(d, p.Reorder, p.App, p.Layout)
}

// recording returns the group's shared recording, executing the
// application once behind the L1/L2 filter on first use. The one recording
// backs result replays for any policy and the OPT study, which decodes
// only its first optTraceCap accesses; at scale 1 the largest is 39 MB.
// A key with n = K names the group's sampled subsequence instead
// (sampledSource), pruned from the full recording on first use.
func (s *Session) recording(ctx context.Context, g artifactKey) (recording, error) {
	return get(ctx, s.art, g, func() (recording, charge, error) {
		if g.n != 0 {
			return s.subsequence(ctx, g)
		}
		w, err := s.workload(g.ds, g.reorder, g.app == "SSSP")
		if err != nil {
			return recording{}, charge{}, err
		}
		start := time.Now()
		tr, err := sim.RecordTraceNCtx(ctx, w, g.app, g.layout, s.Cfg.HCfg, 0)
		s.phase.record.Add(int64(time.Since(start)))
		if err != nil {
			return recording{}, charge{}, err
		}
		bounds, err := sim.ABRBoundsFor(w, g.app, g.layout)
		if err != nil {
			tr.Release()
			return recording{}, charge{}, err
		}
		return recording{tr: tr, bounds: bounds},
			charge{bytes: tr.SizeBytes(), release: tr.Release}, nil
	})
}

// subsequence builds the recording under g, a group's sampled
// subsequence at K = g.n: one masked decode of the group's pinned full
// recording, re-encoded (trace.Subsequence). It is charged and evicted
// like any recording, independently of the full one it was pruned from.
func (s *Session) subsequence(ctx context.Context, g artifactKey) (recording, charge, error) {
	full := g
	full.n = 0
	var rec recording
	err := s.withRecordings(ctx, []artifactKey{full}, func(recs []recording) error {
		start := time.Now()
		tr, err := recs[0].tr.Subsequence(ctx, sim.SampledMask(s.Cfg.HCfg.LLC, g.n))
		s.phase.sampled.Add(int64(time.Since(start)))
		rec = recording{tr: tr, bounds: recs[0].bounds}
		return err
	})
	if err != nil {
		return recording{}, charge{}, err
	}
	s.subBuilds.Add(1)
	return rec, charge{bytes: rec.tr.SizeBytes(), release: rec.tr.Release}, nil
}

// withRecordings runs fn with every listed group's recording PINNED at
// once (recs[i] belongs to groups[i]), so a concurrent budget eviction
// cannot reclaim a trace mid-replay. Losing a pin race (the recording was
// evicted and released between lookup and pin) retries: the eviction also
// removed the store entry, so the next lookup re-records.
func (s *Session) withRecordings(ctx context.Context, groups []artifactKey, fn func(recs []recording) error) error {
	recs := make([]recording, 0, len(groups))
	defer func() {
		for _, rec := range recs {
			rec.tr.Unpin()
		}
	}()
	for _, g := range groups {
		for {
			rec, err := s.recording(ctx, g)
			if err != nil {
				return err
			}
			if rec.tr.Pin() {
				recs = append(recs, rec)
				break
			}
		}
	}
	return fn(recs)
}

// WithRecording lends fn the full recording of one (dataset, reorder, app,
// layout) group, recorded on first use, and the ABR bounds of the run that
// produced it, pinned while fn runs (graspsim -arrays' per-array tally).
func (s *Session) WithRecording(ctx context.Context, dsName, reorderName, app string, layout apps.Layout,
	fn func(tr *trace.Trace, bounds [][2]uint64) error) error {
	g := group(s.dataset(dsName), reorderName, app, layout)
	return s.withRecordings(ctx, []artifactKey{g}, func(recs []recording) error {
		return fn(recs[0].tr, recs[0].bounds)
	})
}

// Workload returns the prepared (dataset, reorder) pair, preparing and
// caching it on first use. dsName goes through the dataset registry's
// resolver, so it can be a paper dataset name or a graph-file path
// (re-prepared if the file changes).
func (s *Session) Workload(dsName, reorderName string, weighted bool) (*sim.Workload, error) {
	return s.workload(s.dataset(dsName), reorderName, weighted)
}

func (s *Session) workload(d dataset, reorderName string, weighted bool) (*sim.Workload, error) {
	k := artifactKey{ds: d, kind: kindWorkload, reorder: reorderName, weighted: weighted}
	return get(context.Background(), s.art, k, func() (*sim.Workload, charge, error) {
		ds, err := graph.Resolve(d.name)
		if err != nil {
			return nil, charge{}, err
		}
		g, err := s.baseGraph(d, ds, weighted)
		if err != nil {
			return nil, charge{}, err
		}
		start := time.Now()
		w, err := sim.PrepareWorkloadOn(g, ds, reorderName, weighted)
		s.phase.reorder.Add(int64(time.Since(start)))
		if err != nil {
			return nil, charge{}, err
		}
		var c charge
		if w.Graph != g && d.fileBacked() {
			// Reordered copy; the shared base is charged by baseGraph.
			c.bytes = w.Graph.Footprint()
		}
		return w, c, nil
	})
}

// baseGraph returns the loaded (generated or ingested) base graph of a
// dataset, cached per (dataset, weighted): the expensive part of workload
// preparation that is identical across reordering techniques — each
// technique builds a relabeled copy and never mutates the base.
func (s *Session) baseGraph(d dataset, ds graph.Dataset, weighted bool) (*graph.CSR, error) {
	k := artifactKey{ds: d, kind: kindBase, weighted: weighted}
	return get(context.Background(), s.art, k, func() (*graph.CSR, charge, error) {
		start := time.Now()
		g, err := ds.Load(weighted, s.Cfg.ScaleDiv)
		s.phase.load.Add(int64(time.Since(start)))
		if err != nil {
			return nil, charge{}, err
		}
		var c charge
		if d.fileBacked() {
			c.bytes = g.Footprint()
		}
		return g, c, nil
	})
}

// replayEach is the shape the single-group simulation tiers share (full
// and sampled; a co-run spans several groups and has its own tier —
// corun.go): the kd cells of group g for every listed policy (n: the
// sampling divisor K, 0 for full results), claimed at once. The cells this
// caller leads are one timed sim call over the workload and the pinned
// full recording of g (recorded on first touch), charged to phase and
// counted in runs when it succeeds. An unknown policy is refused before
// any of that. Replays can fail environmentally (an I/O fault) and under a
// caller's context, which is why both kinds are transient.
func replayEach[V any](ctx context.Context, s *Session, g artifactKey, kd kind, n uint32, policies []string,
	phase *atomic.Int64, runs *atomic.Uint64,
	simulate func(w *sim.Workload, rec recording, specs []sim.Spec) ([]V, error)) ([]V, error) {
	keys := make([]artifactKey, len(policies))
	for i, policy := range policies {
		if _, err := sim.PolicyByName(policy); err != nil {
			return nil, err
		}
		keys[i] = g.of(kd, policy)
		keys[i].n = n
	}
	return getEach(ctx, s.art, keys, func(led []int) (vs []V, _ []charge, err error) {
		w, err := s.workload(g.ds, g.reorder, g.app == "SSSP")
		if err != nil {
			return nil, nil, err
		}
		specs := make([]sim.Spec, len(led))
		for j, policy := range pick(policies, led) {
			specs[j] = sim.Spec{App: g.app, Layout: g.layout, Policy: policy, HCfg: s.Cfg.HCfg}
		}
		err = s.withRecordings(ctx, []artifactKey{g}, func(recs []recording) error {
			start := time.Now()
			vs, err = simulate(w, recs[0], specs)
			phase.Add(int64(time.Since(start)))
			return err
		})
		if err == nil {
			runs.Add(uint64(len(led)))
		}
		return vs, nil, err
	})
}

// pick returns xs[i] for every i in idx.
func pick[T any](xs []T, idx []int) []T {
	out := make([]T, len(idx))
	for j, i := range idx {
		out[j] = xs[i]
	}
	return out
}

// one unwraps the lone cell of a one-key tier call.
func one[V any](vs []V, err error) (V, error) {
	if err != nil {
		var zero V
		return zero, err
	}
	return vs[0], nil
}

// Result returns the metrics of one simulation datapoint, computing and
// caching it on first use: a replay of the datapoint's group recording,
// which is recorded first if no earlier request left one. The metrics are
// those of an execution-driven sim.Run (the replay-equivalence suite pins
// this) except AppTime, which is the recording run's.
func (s *Session) Result(dsName, reorderName, app string, layout apps.Layout, policy string) (sim.Result, error) {
	return s.ResultCtx(context.Background(), dsName, reorderName, app, layout, policy)
}

// ResultCtx is Result with cooperative cancellation: the recording and the
// replay check ctx at trace-chunk boundaries and return an error wrapping
// ctx's cause once it expires. Cancellation never perturbs a completed
// datapoint — a cancelled computation is dropped from the cache (a
// recording cut short is abandoned, never retained), and a later request
// recomputes it from scratch with identical output.
func (s *Session) ResultCtx(ctx context.Context, dsName, reorderName, app string, layout apps.Layout, policy string) (sim.Result, error) {
	return one(s.results(ctx, group(s.dataset(dsName), reorderName, app, layout), []string{policy}))
}

// results returns group g's result under every listed policy: the
// policies no earlier or concurrent request has claimed replay the group's
// shared recording in ONE decode-once fan-out, so a lone request is a
// fan-out of one and an N-policy batch pays one decode, not N.
func (s *Session) results(ctx context.Context, g artifactKey, policies []string) ([]sim.Result, error) {
	return replayEach(ctx, s, g, kindResult, 0, policies, &s.phase.replay, &s.simRuns,
		func(w *sim.Workload, rec recording, specs []sim.Spec) ([]sim.Result, error) {
			rs, err := sim.BroadcastResultsCtx(ctx, rec.tr, specs, w.Dataset.Name, rec.bounds)
			if err == nil {
				s.broadcasts.Add(1)
			}
			return rs, err
		})
}

// Datapoint names one unit of simulation work an experiment will consume:
// either one (dataset, reorder, app, layout, policy) result or, with Trace
// set, one recorded (dataset, app) LLC trace — and, with OPTScale set too,
// one cell of the OPT study over that trace.
type Datapoint struct {
	DS, Reorder, App string
	Layout           apps.Layout
	Policy           string
	Trace            bool // declare the LLC trace instead of a result (Reorder/Layout/Policy ignored)
	// OPTScale, on a Trace point, also declares the OPT study cell of the
	// trace (fig11.go) at an LLC of OPTScale x the session's LLC capacity.
	// 0 declares the recording alone.
	OPTScale float64
}

// Prefetch computes the given datapoints on a pool of GOMAXPROCS workers,
// leaving them cached in the session. The batch is deduplicated up front
// (a duplicate entry would park a worker slot blocking on the in-flight
// original instead of doing distinct work); datapoints that merely share a
// workload are deduplicated by the singleflight store, so no simulation
// runs twice either way.
//
// Prefetch schedules the record-once/replay-many engine by group: the
// batch is grouped by (dataset, reorder, app, layout), and each group
// executes the application once into a shared recorded trace (unless an
// earlier request left one) with every policy of the group — be it one or
// twenty — replaying it in a single decode-once fan-out. The returned
// error is the earliest (by batch position) failure, matching what a
// sequential pass would report first.
func (s *Session) Prefetch(points []Datapoint) error {
	return s.PrefetchObservedCtx(context.Background(), points, nil)
}

// PrefetchObservedCtx is Prefetch with a progress callback, cooperative
// cancellation and per-unit fault containment. After each datapoint of
// the deduplicated batch completes (success or error), onProgress is
// invoked with the number done so far and the batch total. It is called
// concurrently from the worker pool, so it must be goroutine-safe; `done`
// values are each delivered exactly once but may arrive out of order (a
// group delivers all of its datapoints when its fan-out completes). A nil
// onProgress is allowed. Long-running callers (the graspd job service) use
// the callback to surface per-job completion percentages while a batch is
// in flight.
//
// Cancellation is checked before each scheduling unit starts and at chunk
// boundaries inside recordings and replays, so a cancelled batch unwinds
// within one chunk of work; units already complete stay cached, unfinished
// ones are dropped (transient semantics) and recompute identically on a
// later request. A panic inside one unit's simulation fails only that
// unit's datapoints — the stack is attached to their error — and the rest
// of the batch keeps running.
func (s *Session) PrefetchObservedCtx(ctx context.Context, points []Datapoint, onProgress func(done, total int)) error {
	seen := make(map[Datapoint]bool, len(points))
	uniq := make([]Datapoint, 0, len(points))
	for _, p := range points {
		if !seen[p] {
			seen[p] = true
			uniq = append(uniq, p)
		}
	}
	// One dataset handle per distinct spec for the whole batch.
	handles := make(map[string]dataset)
	groups := make([]artifactKey, len(uniq))
	for i, p := range uniq {
		d, ok := handles[p.DS]
		if !ok {
			d = s.dataset(p.DS)
			handles[p.DS] = d
		}
		groups[i] = p.group(d)
	}
	// Phase 0 — dataset-parallel workload preparation: fan the batch's
	// DISTINCT (dataset, reorder) workloads out over the pool before any
	// recording or simulation is scheduled. At full scale the expensive
	// reorderings (one Gorder pass per dataset) are the longest-pole
	// inputs of the recording phase; preparing them all up front lets a
	// multi-core host reorder every dataset concurrently instead of
	// discovering each reordering serially behind a recording slot.
	// Errors are dropped here — the store caches them, and they re-surface
	// attributed to the first datapoint that needs the failed workload.
	seenW := make(map[artifactKey]bool, len(uniq))
	var warm []artifactKey
	for _, g := range groups {
		wk := artifactKey{ds: g.ds, kind: kindWorkload, reorder: g.reorder, weighted: g.app == "SSSP"}
		if !seenW[wk] {
			seenW[wk] = true
			warm = append(warm, wk)
		}
	}
	forEachParallel(len(warm), func(i int) {
		// Swallow panics too: a workload whose preparation panics must not
		// kill the warm-up worker — the store drops the entry, and the panic
		// recurs (contained) under the first unit that needs the workload.
		defer func() { _ = recover() }()
		if ctx.Err() != nil {
			return
		}
		_, _ = s.workload(warm[i].ds, warm[i].reorder, warm[i].weighted)
	})
	// Build the schedule: one unit per (dataset, reorder, app, layout)
	// group: the recording (the expensive application execution, skipped
	// when the full recording already exists) followed by the group's cells
	// through their tiers — every policy result in a single decode-once
	// fan-out (results), so an N-policy group pays one decode instead of N
	// and its replays run concurrently even inside one worker slot
	// (DESIGN.md Sec. 12), and every OPT study cell declared on the group's
	// trace in one more pass over the recording the unit holds pinned
	// (optCells).
	var units []artifactKey                // the groups, in batch order
	byGroup := make(map[artifactKey][]int) // a group's points: indices into uniq, batch order
	for i, g := range groups {
		if _, ok := byGroup[g]; !ok {
			units = append(units, g)
		}
		byGroup[g] = append(byGroup[g], i)
	}
	errs := make([]error, len(uniq))
	var completed atomic.Int64
	// runUnit executes one scheduling unit with fault containment: a panic
	// anywhere under it (a policy bug, a corrupted dataset) becomes the
	// unit's error with the stack attached, instead of escaping the worker
	// goroutine and killing the process. A sentinel abort (cooperative
	// cancellation surfacing from a sink with no error return path) is
	// unwrapped to its cause. pointErr carries per-datapoint failures that
	// must not fail the whole unit.
	runUnit := func(g artifactKey, pts []int) (uerr error, pointErr map[int]error) {
		defer func() {
			if p := recover(); p != nil {
				if aerr, ok := trace.AbortError(p); ok {
					uerr = aerr
					return
				}
				uerr = fmt.Errorf("exp: datapoint panicked: %v\n%s", p, debug.Stack())
			}
		}()
		if err := trace.ContextErr(ctx); err != nil {
			return err, nil
		}
		pointErr = make(map[int]error)
		var policies []string
		var cells []int
		var llcs []cache.Config
		for _, i := range pts {
			switch p := uniq[i]; {
			case p.Trace && p.OPTScale == 0:
				// Satisfied by the recording itself.
			case p.Trace:
				cells = append(cells, i)
				llcs = append(llcs, studyLLC(s.Cfg.HCfg.LLC, p.OPTScale))
			default:
				// Validate the policy up front so one bad name fails only its
				// own datapoint (as a sequential pass would), not the fan-out.
				if _, err := sim.PolicyByName(p.Policy); err != nil {
					pointErr[i] = err
					continue
				}
				policies = append(policies, p.Policy)
			}
		}
		return s.withRecordings(ctx, []artifactKey{g}, func([]recording) error {
			if _, err := s.results(ctx, g, policies); err != nil {
				return err
			}
			// A failed study pass fails the cells, not the results above.
			if _, err := s.optCells(ctx, g, llcs); err != nil {
				for _, i := range cells {
					pointErr[i] = err
				}
			}
			return nil
		}), pointErr
	}
	forEachParallel(len(units), func(j int) {
		pts := byGroup[units[j]]
		uerr, pointErr := runUnit(units[j], pts)
		for _, i := range pts {
			if errs[i] = uerr; uerr == nil {
				errs[i] = pointErr[i]
			}
			if onProgress != nil {
				onProgress(int(completed.Add(1)), len(uniq))
			}
		}
	})
	return cmp.Or(errs...)
}

// forEachParallel invokes work(i) for every i in [0, n) from a pool of at
// most GOMAXPROCS goroutines. It is the fan-out primitive shared by
// Prefetch and the experiments that schedule units of their own (co-run
// mixes, region-scale replays).
func forEachParallel(n int, work func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			work(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				work(i)
			}
		}()
	}
	wg.Wait()
}

// matrixPoints declares the datapoints of one scheme matrix: the RRIP
// baseline plus every scheme, over apps x datasets under one reordering.
func matrixPoints(datasets []string, reorderName string, appNames, schemes []string) []Datapoint {
	var out []Datapoint
	for _, app := range appNames {
		for _, ds := range datasets {
			out = append(out, Datapoint{DS: ds, Reorder: reorderName, App: app,
				Layout: apps.LayoutMerged, Policy: "RRIP"})
			for _, scheme := range schemes {
				out = append(out, Datapoint{DS: ds, Reorder: reorderName, App: app,
					Layout: apps.LayoutMerged, Policy: scheme})
			}
		}
	}
	return out
}

// Experiment regenerates one table or figure.
type Experiment struct {
	ID    string // paper artifact id: table1, fig5, ...
	Title string
	Run   func(s *Session, w io.Writer) error
	// Points declares the simulation datapoints the experiment will read,
	// for batch fan-out by RunAll (nil: the experiment does no session
	// work, or does work — like fig10a's native timing — that must not be
	// precomputed).
	Points func() []Datapoint
}

// All returns the experiments in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: skew of the graph datasets", Run: runTable1},
		{ID: "table4", Title: "Table IV: effect of Property Array merging", Run: runTable4, Points: table4Points},
		{ID: "fig2", Title: "Fig. 2: LLC accesses and misses inside/outside the Property Array", Run: runFig2, Points: fig2Points},
		{ID: "fig5", Title: "Fig. 5: LLC miss reduction over RRIP", Run: runFig5, Points: fig5Points},
		{ID: "fig6", Title: "Fig. 6: speed-up over RRIP", Run: runFig6, Points: fig5Points},
		{ID: "fig7", Title: "Fig. 7: impact of GRASP features", Run: runFig7, Points: fig7Points},
		{ID: "fig8", Title: "Fig. 8: pinning-based schemes, high-skew datasets", Run: runFig8, Points: fig8Points},
		{ID: "fig9", Title: "Fig. 9: low-/no-skew datasets (fr, uni)", Run: runFig9, Points: fig9Points},
		{ID: "fig10a", Title: "Fig. 10a: net speed-up of reordering techniques (incl. cost)", Run: runFig10a},
		{ID: "fig10b", Title: "Fig. 10b: GRASP on top of reordering techniques", Run: runFig10b, Points: fig10bPoints},
		{ID: "fig11", Title: "Fig. 11: misses eliminated over LRU (RRIP, GRASP, OPT)", Run: runFig11, Points: fig11Points},
		{ID: "table7", Title: "Table VII: misses eliminated over LRU across LLC sizes", Run: runTable7, Points: table7Points},
		{ID: "noreorder", Title: "Extra: prior schemes without vertex reordering (Sec. V-A)", Run: runNoReorder, Points: noReorderPoints},
		{ID: "ablation-region", Title: "Extra: sensitivity to the High-Reuse-Region size", Run: runAblationRegion, Points: ablationRegionPoints},
		{ID: "ablation-bases", Title: "Extra: GRASP over LRU/PLRU/DIP base schemes (Sec. III-C)", Run: runAblationBases, Points: ablationBasesPoints},
		{ID: "ablation-ship", Title: "Extra: SHiP-PC vs SHiP-MEM signatures (Sec. II-F)", Run: runAblationSHiP, Points: ablationSHiPPoints},
		{ID: "streaming", Title: "Extra: reordering staleness under graph updates (Sec. VI)", Run: runStreaming},
		{ID: "scenarios", Title: "Extra: every policy on the extension workloads (KCore, TC)", Run: runScenarios, Points: scenarioPoints},
		{ID: "corun", Title: "Extra: multi-programmed co-runs, weighted speedup and fairness", Run: runCorun, Points: corunPoints},
	}
}

// ByID returns the named experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q; known: %v", id, ids())
}

func ids() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// RunObserver brackets each experiment executed by RunAll; either callback
// may be nil.
type RunObserver struct {
	// Before runs immediately before the experiment's output is written.
	Before func(e Experiment)
	// After runs once the output is written, with the wall-clock time the
	// experiment body took (excluding the shared prefetch phase).
	After func(e Experiment, elapsed time.Duration)
}

// RunAll executes the experiments with batch fan-out: the union of their
// declared datapoints is computed first on the session's parallel worker
// pool (deduplicated, so datapoints shared between experiments — fig5/fig6,
// fig11/table7 — are simulated once), then each experiment body runs in
// paper order against the warm caches and writes to w. Because bodies run
// sequentially against identical cached results, the per-experiment output
// is byte-identical to a plain sequential run; experiments that time native
// execution (fig10a) also see an otherwise-idle machine.
func RunAll(s *Session, exps []Experiment, w io.Writer, obs RunObserver) error {
	var points []Datapoint
	for _, e := range exps {
		if e.Points != nil {
			points = append(points, e.Points()...)
		}
	}
	if err := s.Prefetch(points); err != nil {
		// Attribute the failure to the experiment that declared the bad
		// datapoint: every point is cached (success or error) by now, so
		// re-walking the declarations in order is instant and finds the
		// same failure a sequential run would have reported first.
		for _, e := range exps {
			if e.Points == nil {
				continue
			}
			for _, p := range e.Points() {
				if perr := s.Prefetch([]Datapoint{p}); perr != nil {
					return fmt.Errorf("%s: %w", e.ID, perr)
				}
			}
		}
		return err
	}
	for _, e := range exps {
		if obs.Before != nil {
			obs.Before(e)
		}
		start := time.Now()
		if err := e.Run(s, w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if obs.After != nil {
			obs.After(e, time.Since(start))
		}
	}
	return nil
}

// highSkewNames returns the five main-evaluation dataset names in paper
// order.
func highSkewNames() []string {
	var out []string
	for _, d := range graph.HighSkewDatasets() {
		out = append(out, d.Name)
	}
	return out
}
