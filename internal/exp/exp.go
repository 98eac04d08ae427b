// Package exp is the experiment harness: every table and figure of the
// paper's evaluation has a named experiment that regenerates it on the
// synthetic datasets (see DESIGN.md Sec. 4 for the per-experiment index).
//
// The harness is a concurrent experiment engine (DESIGN.md Sec. 6): a
// Session is safe for use from many goroutines, deduplicates concurrent
// requests for the same datapoint singleflight-style, and can fan a batch
// of pre-declared datapoints out over a worker pool. Experiments declare
// their datapoints up front (Experiment.Points) so Run computes them in
// parallel and then renders the experiment from the warm cache — producing
// output byte-identical to a sequential run. The scheme-over-RRIP figures
// are each one matrix value (figs.go) that declares and renders its cells.
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
	"strings"
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
	Cfg Config
	art *Store

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

// Ledger returns the work ledger of the session's store: this session's
// work and that of any other session sharing it.
func (s *Session) Ledger() Ledger { return s.art.Ledger() }

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

// group returns the recording group of p; a co-run point's is its first
// stream's.
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
	return get(ctx, s.art, g, func() (recording, int64, error) {
		if g.n != 0 {
			return s.subsequence(ctx, g)
		}
		w, err := s.workload(g.ds, g.reorder, apps.Weighted(g.app), nil)
		if err != nil {
			return recording{}, 0, err
		}
		start := time.Now()
		tr, err := sim.RecordTraceNCtx(ctx, w, g.app, g.layout, s.Cfg.HCfg, 0)
		s.phase.record.Add(int64(time.Since(start)))
		if err != nil {
			return recording{}, 0, err
		}
		bounds, err := sim.ABRBoundsFor(w, g.app, g.layout)
		if err != nil {
			return recording{}, 0, err
		}
		s.art.tally(func(l *Ledger) { l.Recordings, l.Recorded = l.Recordings+1, l.Recorded+uint64(tr.Len()) })
		return recording{tr: tr, bounds: bounds}, tr.SizeBytes(), nil
	})
}

// subsequence builds the recording under g, a group's sampled
// subsequence at K = g.n: one masked decode of the group's full
// recording, re-encoded (trace.Subsequence). It is charged and evicted
// like any recording, independently of the full one it was pruned from.
func (s *Session) subsequence(ctx context.Context, g artifactKey) (recording, int64, error) {
	full := g
	full.n = 0
	src, err := s.recording(ctx, full)
	if err != nil {
		return recording{}, 0, err
	}
	start := time.Now()
	tr, err := src.tr.Subsequence(ctx, sim.SampledMask(s.Cfg.HCfg.LLC, g.n))
	s.phase.sampled.Add(int64(time.Since(start)))
	if err != nil {
		return recording{}, 0, err
	}
	s.art.tally(func(l *Ledger) { l.Subsequences++ })
	return recording{tr: tr, bounds: src.bounds}, tr.SizeBytes(), nil
}

// Recording returns the full recording of one (dataset, reorder, app,
// layout) group, recorded on first use, and the ABR bounds of the run that
// produced it (graspsim -arrays' per-array tally). The trace is a plain
// value: a budget eviction drops only the store's reference to it.
func (s *Session) Recording(ctx context.Context, dsName, reorderName, app string, layout apps.Layout) (*trace.Trace, [][2]uint64, error) {
	rec, err := s.recording(ctx, group(s.dataset(dsName), reorderName, app, layout))
	return rec.tr, rec.bounds, err
}

// Workload returns the prepared (dataset, reorder) pair, preparing and
// caching it on first use. dsName goes through the dataset registry's
// resolver, so it can be a paper dataset name or a graph-file path
// (re-prepared if the file changes).
func (s *Session) Workload(dsName, reorderName string, weighted bool) (*sim.Workload, error) {
	return s.workload(s.dataset(dsName), reorderName, weighted, nil)
}

// workload returns the workload of (dataset, reorder, weighted), loaded by
// load (a Prefetch batch's shared load; nil: for this workload alone) and
// reordered in one get. The store keeps no original graph, so a lone
// request for a second reordering of a graph file parses it again. A
// file-backed workload is charged its own graph's bytes.
func (s *Session) workload(d dataset, reorderName string, weighted bool, load func() (*graph.CSR, error)) (*sim.Workload, error) {
	k := artifactKey{ds: d, kind: kindWorkload, reorder: reorderName, weighted: weighted}
	return get(context.Background(), s.art, k, func() (*sim.Workload, int64, error) {
		ds, err := graph.Resolve(d.name)
		if err != nil {
			return nil, 0, err
		}
		if load == nil {
			load = func() (*graph.CSR, error) { return s.load(ds, weighted) }
		}
		g, err := load()
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		w, err := sim.PrepareWorkloadOn(g, ds, reorderName, weighted)
		s.phase.reorder.Add(int64(time.Since(start)))
		if err != nil {
			return nil, 0, err
		}
		s.art.tally(func(l *Ledger) { l.Reorders++ })
		var bytes int64
		if d.fileBacked() {
			bytes = w.Graph.Footprint()
		}
		return w, bytes, nil
	})
}

// load generates a dataset's graph, or parses its file.
func (s *Session) load(ds graph.Dataset, weighted bool) (*graph.CSR, error) {
	start := time.Now()
	g, err := ds.Load(weighted, s.Cfg.ScaleDiv)
	s.phase.load.Add(int64(time.Since(start)))
	if err == nil {
		s.art.tally(func(l *Ledger) { l.Loads++ })
	}
	return g, err
}

// spec is the sim.Spec of group g's cell under policy with reuse regions
// of regionScale x the LLC. The paper's 1x is spelled 0, so that it keys,
// and reports, as the plain cell.
func (s *Session) spec(g artifactKey, policy string, regionScale float64) sim.Spec {
	if regionScale == 1 {
		regionScale = 0
	}
	return sim.Spec{App: g.app, Layout: g.layout, Policy: policy, RegionScale: regionScale, HCfg: s.Cfg.HCfg}
}

// replayEach is the shape the single-group simulation tiers share (full
// and sampled; a co-run spans several groups and has its own tier —
// corun.go): the kd cells of group g for every listed spec (n: the
// sampling divisor K, 0 for full results), keyed by policy and region
// scale and claimed at once. The cells this caller leads are one timed sim
// call over the workload and the full recording of g (recorded on first
// touch), charged to phase; simulate counts its own fan-out. A spec sim
// refuses is refused before any of that. Replays can fail environmentally
// (an I/O fault) and under a caller's context: both kinds are transient.
func replayEach[V any](ctx context.Context, s *Session, g artifactKey, kd kind, n uint32, specs []sim.Spec,
	phase *atomic.Int64, simulate func(w *sim.Workload, rec recording, specs []sim.Spec) ([]V, error)) ([]V, error) {
	keys := make([]artifactKey, len(specs))
	for i, spec := range specs {
		if _, err := spec.Resolve(); err != nil {
			return nil, err
		}
		keys[i] = g.of(kd, spec.Policy)
		keys[i].n, keys[i].scale = n, spec.RegionScale
	}
	return getEach(ctx, s.art, keys, func(led []int) (vs []V, _ []int64, err error) {
		w, err := s.workload(g.ds, g.reorder, apps.Weighted(g.app), nil)
		if err != nil {
			return nil, nil, err
		}
		rec, err := s.recording(ctx, g)
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		vs, err = simulate(w, rec, pick(specs, led))
		phase.Add(int64(time.Since(start)))
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
	g := group(s.dataset(dsName), reorderName, app, layout)
	return one(s.results(ctx, g, []sim.Spec{s.spec(g, policy, 0)}))
}

// results returns group g's result under every listed spec (s.spec): the
// specs no earlier or concurrent request has claimed replay the group's
// shared recording in ONE decode-once fan-out, so a lone request is a
// fan-out of one and an N-spec batch — policies and region scales alike —
// pays one decode, not N.
func (s *Session) results(ctx context.Context, g artifactKey, specs []sim.Spec) ([]sim.Result, error) {
	return replayEach(ctx, s, g, kindResult, 0, specs, &s.phase.replay,
		func(w *sim.Workload, rec recording, specs []sim.Spec) ([]sim.Result, error) {
			rs, err := sim.BroadcastResultsCtx(ctx, rec.tr, specs, w.Dataset.Name, rec.bounds)
			if err == nil {
				s.art.tally(func(l *Ledger) {
					l.Full.add(len(rs), len(rs), rec.tr.Len())
					for _, r := range rs {
						l.llc(r.Spec.Policy, r.LLC)
					}
				})
			}
			return rs, err
		})
}

// Datapoint names one cell an experiment will consume: a plain
// (dataset, reorder, app, layout, policy) result, or the cell one of the
// last four fields declares over the same recordings.
type Datapoint struct {
	DS, Reorder, App string
	Layout           apps.Layout
	Policy           string
	// Trace declares the OPT study cell (fig11.go) of the (dataset, app)
	// recording under DBG/Merged at an LLC of OPTScale x the session's;
	// Reorder, Layout and Policy are ignored.
	Trace    bool
	OPTScale float64
	// RegionScale, on a hint-consuming policy's point, declares its result
	// with reuse regions of RegionScale x the LLC (sim.Spec.RegionScale):
	// one more spec of its group's results fan-out, and at 1 the plain
	// cell.
	RegionScale float64
	// Corun declares the co-run cell (corun.go) of App beside the
	// "+"-joined apps of Corun under Policy, uniform weights, as jobs.Spec.
	Corun string
}

// Plain reports whether p declares a plain result: no OPT study cell,
// region scale or co-run cell.
func (p Datapoint) Plain() bool { return !p.Trace && p.RegionScale == 0 && p.Corun == "" }

// Prefetch computes the given datapoints on a pool of GOMAXPROCS workers,
// leaving them cached in the session; it is the only scheduler of session
// work, and experiment bodies read the cells it settled. The batch is
// deduplicated up front, and the store's singleflight dedups what its
// units share, so no cell is computed twice. Each (dataset, reorder, app,
// layout) group is one unit: the application executes once into a shared
// recording (unless an earlier request left one) that every policy of the
// group replays in a single decode-once fan-out. The batch's co-run cells
// follow, one unit per (dataset, mix). The returned error is the earliest
// (by batch position) failure, as a sequential pass would report first.
func (s *Session) Prefetch(points []Datapoint) error {
	return s.PrefetchObservedCtx(context.Background(), points, nil)
}

// PrefetchObservedCtx is Prefetch with a progress callback, cooperative
// cancellation and per-unit fault containment. onProgress (may be nil) is
// called with the number done so far and the batch total after each
// datapoint of the deduplicated batch completes, success or error, from
// the worker pool, so it must be goroutine-safe; each `done` value comes
// once, possibly out of order (a unit delivers its datapoints together).
//
// Cancellation is checked before each unit starts and at chunk boundaries
// inside recordings and replays, so a cancelled batch unwinds within one
// chunk of work; completed units stay cached, unfinished ones are dropped
// (transient semantics) and recompute identically on a later request. A
// panic inside one unit fails only that unit's datapoints — the stack is
// attached to their error — and the rest of the batch keeps running.
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
	// Phase 0: prepare the batch's DISTINCT workloads on the pool before
	// any unit runs, so a multi-core host reorders every dataset at once
	// instead of discovering each reordering (a Gorder pass at full scale)
	// behind a recording slot. The workloads of one graph share one load,
	// dropped when the phase ends. Errors are dropped here: the store
	// keeps them for the first datapoint that needs the workload.
	seenW := make(map[artifactKey]bool, len(uniq))
	var warm []artifactKey
	loads := make(map[artifactKey]func() (*graph.CSR, error)) // by (dataset, weighted); none: load alone
	for _, g := range groups {
		wk := artifactKey{ds: g.ds, kind: kindWorkload, reorder: g.reorder, weighted: apps.Weighted(g.app)}
		lk := artifactKey{ds: g.ds, weighted: wk.weighted}
		if ds, err := graph.Resolve(lk.ds.name); err == nil && loads[lk] == nil {
			loads[lk] = sync.OnceValues(func() (*graph.CSR, error) { return s.load(ds, lk.weighted) })
		}
		if !seenW[wk] {
			seenW[wk] = true
			warm = append(warm, wk)
		}
	}
	forEachParallel(len(warm), func(i int) {
		// A panic recurs, contained, under the first unit that needs the
		// workload; the store has dropped the entry.
		defer func() { _ = recover() }()
		if ctx.Err() != nil {
			return
		}
		_, _ = s.workload(warm[i].ds, warm[i].reorder, warm[i].weighted, loads[artifactKey{ds: warm[i].ds, weighted: warm[i].weighted}])
	})
	// The schedule: a unit per group, then, in a second pass over the
	// recordings and solo baselines the first left, a unit per mix.
	var passes [2][]artifactKey           // group units, then mix units, each in batch order
	byUnit := make(map[artifactKey][]int) // a unit's points: indices into uniq, batch order
	for i, p := range uniq {
		k, pass := groups[i], 0
		if p.Corun != "" {
			k, pass = k.of(kindCorun, ""), 1
			k.app += "+" + p.Corun
		}
		if _, ok := byUnit[k]; !ok {
			passes[pass] = append(passes[pass], k)
		}
		byUnit[k] = append(byUnit[k], i)
	}
	errs := make([]error, len(uniq))
	var completed atomic.Int64
	// runUnit contains a unit's faults: a panic anywhere under it (a policy
	// bug, a corrupted dataset) becomes the unit's error, stack attached,
	// instead of killing the process, and a sentinel abort (cancellation
	// surfacing from a sink with no error path) is unwrapped to its cause.
	runUnit := func(k artifactKey, pts []Datapoint) (uerr error, pointErr []error) {
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
		return s.unit(ctx, k, pts)
	}
	for _, units := range passes {
		forEachParallel(len(units), func(j int) {
			idx := byUnit[units[j]]
			uerr, pointErr := runUnit(units[j], pick(uniq, idx))
			for n, i := range idx {
				if errs[i] = uerr; uerr == nil {
					errs[i] = pointErr[n]
				}
				if onProgress != nil {
					onProgress(int(completed.Add(1)), len(uniq))
				}
			}
		})
	}
	return cmp.Or(errs...)
}

// unit computes the cells of one scheduling unit, keyed k, through their
// tiers. A mix unit (k of kindCorun) is one coruns call, which decodes and
// interleaves the mix once for all of its policies. A group unit runs its
// results, region-scaled ones included, in one decode-once fan-out
// (results), so N specs pay one decode and replay concurrently even in one
// worker slot (DESIGN.md Sec. 12), then its OPT study cells in one more
// pass over the recording. Every tier records on first touch, and only for
// the cells it leads: a unit whose cells are all settled records nothing.
// pointErr, indexed like pts, fails single datapoints: a spec sim refuses
// (an unknown policy, as a sequential pass would, or a region scale on a
// policy without reuse regions), a failed study pass — not the unit's
// results.
func (s *Session) unit(ctx context.Context, k artifactKey, pts []Datapoint) (error, []error) {
	pointErr := make([]error, len(pts))
	var specs []sim.Spec
	var policies []string
	var study []int
	var llcs []cache.Config
	for j, p := range pts {
		if p.Trace {
			study, llcs = append(study, j), append(llcs, studyLLC(s.Cfg.HCfg.LLC, p.OPTScale))
			continue
		}
		spec := s.spec(k, p.Policy, p.RegionScale)
		if _, pointErr[j] = spec.Resolve(); pointErr[j] == nil {
			specs, policies = append(specs, spec), append(policies, p.Policy)
		}
	}
	if k.kind == kindCorun {
		m, err := s.newCorunMix(k.ds, k.reorder, strings.Split(k.app, "+"), nil, k.layout)
		if err == nil {
			_, err = s.coruns(ctx, m, policies)
		}
		return err, pointErr
	}
	if _, err := s.results(ctx, k, specs); err != nil {
		return err, nil
	}
	if _, err := s.optCells(ctx, k, llcs); err != nil {
		for _, j := range study {
			pointErr[j] = err
		}
	}
	return nil, pointErr
}

// forEachParallel invokes work(i) for every i in [0, n) from a pool of at
// most GOMAXPROCS goroutines: Prefetch's worker pool.
func forEachParallel(n int, work func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
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
	// for batch fan-out by Run and the golden and bench harnesses (nil:
	// the experiment does no session work, or does work — like fig10a's
	// native timing — that must not be precomputed).
	Points func() []Datapoint
}

// All returns the experiments in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: skew of the graph datasets", Run: runTable1},
		{ID: "table4", Title: "Table IV: effect of Property Array merging", Run: runTable4, Points: table4Points},
		{ID: "fig2", Title: "Fig. 2: LLC accesses and misses inside/outside the Property Array", Run: runFig2, Points: fig2Points},
		{ID: "fig5", Title: "Fig. 5: LLC miss reduction over RRIP", Run: fig5.run, Points: fig5.points},
		{ID: "fig6", Title: "Fig. 6: speed-up over RRIP", Run: fig6.run, Points: fig6.points},
		{ID: "fig7", Title: "Fig. 7: impact of GRASP features", Run: fig7.run, Points: fig7.points},
		{ID: "fig8", Title: "Fig. 8: pinning-based schemes, high-skew datasets", Run: fig8.run, Points: fig8.points},
		{ID: "fig9", Title: "Fig. 9: low-/no-skew datasets (fr, uni)", Run: fig9.run, Points: fig9.points},
		{ID: "fig10a", Title: "Fig. 10a: net speed-up of reordering techniques (incl. cost)", Run: runFig10a},
		{ID: "fig10b", Title: "Fig. 10b: GRASP on top of reordering techniques", Run: fig10b.run, Points: fig10b.points},
		{ID: "fig11", Title: "Fig. 11: misses eliminated over LRU (RRIP, GRASP, OPT)", Run: runFig11, Points: fig11Points},
		{ID: "table7", Title: "Table VII: misses eliminated over LRU across LLC sizes", Run: runTable7, Points: table7Points},
		{ID: "noreorder", Title: "Extra: prior schemes without vertex reordering (Sec. V-A)", Run: noReorder.run, Points: noReorder.points},
		{ID: "ablation-region", Title: "Extra: sensitivity to the High-Reuse-Region size", Run: runAblationRegion, Points: ablationRegionPoints},
		{ID: "ablation-bases", Title: "Extra: GRASP over LRU/PLRU/DIP base schemes (Sec. III-C)", Run: runAblationBases, Points: ablationBasesPoints},
		{ID: "ablation-ship", Title: "Extra: SHiP-PC vs SHiP-MEM signatures (Sec. II-F)", Run: ablationSHiP.run, Points: ablationSHiP.points},
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

// Run executes one experiment the one way every runner does (graspsim's
// -exp sweep, graspd's experiment jobs): it prefetches the datapoints the
// experiment declares on the session's worker pool, reporting progress
// through onProgress (may be nil; see PrefetchObservedCtx), checks ctx,
// then renders the body to w from the warm cache. Bodies read only what
// they declared, so the output is byte-identical to a plain sequential
// e.Run. An error names the experiment: "<id>: ...". A caller running
// several experiments may prefetch the union of their points first — the
// per-experiment prefetch then only reads the store.
func Run(ctx context.Context, s *Session, e Experiment, w io.Writer, onProgress func(done, total int)) error {
	if e.Points != nil {
		if err := s.PrefetchObservedCtx(ctx, e.Points(), onProgress); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	if err := trace.ContextErr(ctx); err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	if err := e.Run(s, w); err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
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
