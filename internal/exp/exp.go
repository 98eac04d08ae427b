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
	"context"
	"errors"
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

// Config controls experiment scale.
type Config struct {
	// ScaleDiv divides dataset sizes; 1 = full reproduction scale
	// (131072 vertices, 256KB LLC). Benchmarks use larger divisors.
	ScaleDiv uint32
	// HCfg is the simulated hierarchy. Zero value = default config scaled
	// to ScaleDiv (the LLC shrinks with the datasets to preserve the
	// footprint-to-capacity ratio).
	HCfg cache.HierarchyConfig
	// FileBytesBudget caps the approximate bytes of parsed graphs and
	// recorded traces the session retains for file-backed datasets; the
	// least-recently-requested file's entries are evicted when the total
	// exceeds it, so a long-lived daemon fed arbitrary distinct paths
	// cannot grow without bound (DESIGN.md Sec. 10). Synthetic datasets
	// are a small fixed set and are never evicted. 0 selects
	// DefaultFileBytesBudget; negative disables the cap.
	FileBytesBudget int64
	// TraceBytesBudget caps the total encoded bytes (resident + spilled)
	// of the recordings the session keeps cached, across ALL datasets:
	// the trace memory budget (trace.SetMemoryBudget) only bounds RAM —
	// the overflow spills to temp files that persist while their traces
	// stay cached, so a daemon sweeping many full-scale multi-policy
	// groups would otherwise accumulate unbounded temp disk. When the
	// total exceeds the budget the least-recently-used recordings are
	// evicted and Released (their spill space reclaimed immediately;
	// in-flight replays are protected by trace pinning — DESIGN.md
	// Sec. 11). 0 selects DefaultTraceBytesBudget; negative disables.
	TraceBytesBudget int64
}

// DefaultFileBytesBudget is the per-session retained-bytes cap for
// file-backed datasets when Config.FileBytesBudget is zero (2 GiB).
const DefaultFileBytesBudget = int64(2) << 30

// DefaultTraceBytesBudget is the per-session cap on cached recordings'
// encoded bytes when Config.TraceBytesBudget is zero (16 GiB): generous
// enough that a bench-scale sweep never evicts, small enough that
// full-scale spill files cannot fill a typical temp filesystem.
const DefaultTraceBytesBudget = int64(16) << 30

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

// flightCall is one in-flight or completed computation in a flightCache.
type flightCall[V any] struct {
	done chan struct{} // closed when val/err are set
	val  V
	err  error
}

// flightCache is a concurrency-safe memoization table with singleflight
// semantics: the first goroutine to request a key computes it with no lock
// held; goroutines that request the same key while it is in flight block
// until that one computation finishes and share its outcome. do caches
// errors alongside successes (right for purely deterministic computations,
// where a retry would fail identically); doTransient drops the entry on
// error, for computations with environmental failure modes — trace
// recordings and replays touch disk once the spill budget engages, and a
// daemon must not serve a transient ENOSPC from cache forever.
type flightCache[V any] struct {
	mu sync.Mutex
	m  map[string]*flightCall[V]
}

func newFlightCache[V any]() *flightCache[V] {
	return &flightCache[V]{m: make(map[string]*flightCall[V])}
}

func (f *flightCache[V]) do(key string, fn func() (V, error)) (V, error) {
	f.mu.Lock()
	if c, ok := f.m[key]; ok {
		f.mu.Unlock()
		<-c.done
		return c.val, c.err
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.m[key] = c
	f.mu.Unlock()
	defer f.settlePanic(key, c)
	c.val, c.err = fn()
	close(c.done)
	return c.val, c.err
}

// settlePanic keeps a panicking computation from poisoning the table: the
// entry is dropped, waiters blocked on it receive an error instead of
// hanging forever, and the panic continues up to the containment layer
// (the jobs manager's recover, or process exit for CLI callers). Without
// this, a panic would leave the flightCall's done channel open and every
// waiter — possibly a whole worker pool — deadlocked.
func (f *flightCache[V]) settlePanic(key string, c *flightCall[V]) {
	if p := recover(); p != nil {
		f.mu.Lock()
		if f.m[key] == c {
			delete(f.m, key)
		}
		f.mu.Unlock()
		c.err = fmt.Errorf("exp: computation panicked: %v", p)
		close(c.done)
		panic(p)
	}
}

// doTransient is do, except a failed computation is removed from the
// table (identity-checked, so a retry already in flight is never
// clobbered) before the error is returned: waiters blocked on the failed
// call still receive its error, but the next request recomputes.
func (f *flightCache[V]) doTransient(key string, fn func() (V, error)) (V, error) {
	f.mu.Lock()
	if c, ok := f.m[key]; ok {
		f.mu.Unlock()
		<-c.done
		return c.val, c.err
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.m[key] = c
	f.mu.Unlock()
	c.val, c.err = fn()
	if c.err != nil {
		f.mu.Lock()
		if f.m[key] == c {
			delete(f.m, key)
		}
		f.mu.Unlock()
	}
	close(c.done)
	return c.val, c.err
}

func (f *flightCache[V]) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}

// ready reports whether key's computation has already completed
// successfully, without blocking on one in flight.
func (f *flightCache[V]) ready(key string) bool {
	f.mu.Lock()
	c, ok := f.m[key]
	f.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-c.done:
		return c.err == nil
	default:
		return false
	}
}

// deleteMatching drops every memoized entry whose key satisfies match.
// Callers already blocked on an in-flight computation are unaffected —
// they hold the call struct directly and still receive its outcome — the
// entry just stops being findable, so the next request recomputes.
func (f *flightCache[V]) deleteMatching(match func(key string) bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k := range f.m {
		if match(k) {
			delete(f.m, k)
		}
	}
}

// Session caches prepared workloads, simulation results and recorded LLC
// traces so experiments sharing datapoints (e.g. fig5 and fig6) do not
// repeat work. It is safe for concurrent use: simultaneous requests for
// one datapoint — whether from Prefetch workers or from experiments run in
// parallel by the caller — are deduplicated so each datapoint is computed
// exactly once.
//
// The session is also the scheduler of the record-once/replay-many engine
// (DESIGN.md Sec. 11): the access stream reaching the LLC is a pure
// function of (dataset, reorder, app, layout), so when a Prefetch batch
// asks for several policies on one such group, the application executes
// once into a trace.Trace and every policy replays the shared immutable
// recording. Single-policy groups bypass the recorder (a recording run
// costs about as much as a direct run, so it only pays off when amortized)
// unless a recording already exists.
type Session struct {
	Cfg        Config
	bases      *flightCache[*graph.CSR] // loaded base graphs, shared across reorderings
	workloads  *flightCache[*sim.Workload]
	results    *flightCache[sim.Result]
	sampled    *flightCache[sim.SampledResult]
	corun      *flightCache[sim.CorunResult]
	traces     *flightCache[recording]
	simRuns    atomic.Uint64 // number of distinct simulated result datapoints (dedup observability)
	broadcasts atomic.Uint64 // groups whose replays were served by one broadcast decode
	sampledRun atomic.Uint64 // distinct set-sampled estimates computed (fast-tier observability)
	corunRun   atomic.Uint64 // distinct shared-LLC co-run replays computed (DESIGN.md Sec. 15)

	// skipMu/skip accumulate the codec-layer accounting of this session's
	// sampled replays (records pruned in the decode loop vs delivered);
	// SampledSkip exposes it for the bench tooling's skip-ratio evidence
	// alongside the process-wide trace.SkipStats.
	skipMu sync.Mutex
	skip   trace.SkipReport

	// phase accumulates cumulative engine nanoseconds per prefetch phase
	// (across workers, so a multi-core batch's phases can sum past
	// wall-clock); PhaseSeconds exposes it for the bench tooling's
	// per-phase regression tracking.
	phase struct {
		load, reorder, record, replay, direct, sampled, corun atomic.Int64
	}

	stampMu sync.Mutex
	stamps  map[string]fileStamp // graph-file spec -> last observed stamp

	fileMu    sync.Mutex
	fileUse   map[string]*fileUsage // file-backed dataset -> retained bytes + recency
	fileSeq   uint64
	fileTotal int64

	traceMu    sync.Mutex
	traceUse   map[string]*traceUsage // trace cache key -> encoded bytes + recency
	traceSeq   uint64
	traceTotal int64
}

// fileStamp is one observed (size, mtime) state of a graph file.
type fileStamp struct {
	size    int64
	modNano int64
}

// key renders the stamp as the cache-key suffix for dsName.
func (st fileStamp) key(dsName string) string {
	return fmt.Sprintf("%s@%d.%d", dsName, st.size, st.modNano)
}

// recording pairs a recorded LLC-bound trace with the ABR bounds of the
// run that produced it, so hint-consuming policies replay under the exact
// classifier configuration of a direct run.
type recording struct {
	tr     *trace.Trace
	bounds [][2]uint64
}

// fileUsage tracks the approximate bytes (parsed/reordered graphs plus
// recorded traces) the session retains for one file-backed dataset, and
// when it was last requested, for the LRU byte-budget eviction.
type fileUsage struct {
	bytes int64
	seq   uint64
}

// traceUsage tracks one cached recording's encoded footprint and recency
// for the recording byte-budget eviction; it also holds the recording so
// eviction can Release it (returning resident bytes to the process budget
// and reclaiming spill-file space) instead of waiting for GC.
type traceUsage struct {
	bytes int64
	seq   uint64
	rec   recording
}

// NewSession creates a session.
func NewSession(cfg Config) *Session {
	if cfg.FileBytesBudget == 0 {
		cfg.FileBytesBudget = DefaultFileBytesBudget
	}
	if cfg.TraceBytesBudget == 0 {
		cfg.TraceBytesBudget = DefaultTraceBytesBudget
	}
	return &Session{Cfg: cfg,
		bases:     newFlightCache[*graph.CSR](),
		workloads: newFlightCache[*sim.Workload](),
		results:   newFlightCache[sim.Result](),
		sampled:   newFlightCache[sim.SampledResult](),
		corun:     newFlightCache[sim.CorunResult](),
		traces:    newFlightCache[recording](),
		stamps:    make(map[string]fileStamp),
		fileUse:   make(map[string]*fileUsage),
		traceUse:  make(map[string]*traceUsage)}
}

// SimRuns returns the number of distinct result datapoints the session
// has simulated, whether by direct execution or by trace replay — cache
// hits and singleflight-merged requests do not count, so under any access
// pattern this equals the number of distinct result datapoints.
func (s *Session) SimRuns() uint64 { return s.simRuns.Load() }

// Broadcasts returns how many recording groups this session has served
// through the decode-once broadcast path (a Prefetch batch group counts
// once regardless of its policy count). The CI bench smoke asserts this
// is non-zero for a multi-policy batch.
func (s *Session) Broadcasts() uint64 { return s.broadcasts.Load() }

// PhaseSeconds returns the session's cumulative engine time per phase:
// "load" (dataset generation/ingestion), "reorder" (vertex reordering +
// relabeling), "record" (traced application executions), "replay"
// (trace decode + LLC simulation, broadcast or single), "direct"
// (execution-driven simulations that bypassed the trace engine),
// "sampled" (set-sampled fast-tier replays, DESIGN.md Sec. 14) and
// "corun" (interleaved shared-LLC co-run replays, Sec. 15). Values
// are worker-cumulative — on a multi-core host the phases of one wall
// second can sum to several phase-seconds — and monotone over the
// session's lifetime; the bench tooling records them so a prefetch
// regression localizes to a phase (DESIGN.md Sec. 7).
func (s *Session) PhaseSeconds() map[string]float64 {
	sec := func(a *atomic.Int64) float64 { return time.Duration(a.Load()).Seconds() }
	return map[string]float64{
		"load":    sec(&s.phase.load),
		"reorder": sec(&s.phase.reorder),
		"record":  sec(&s.phase.record),
		"replay":  sec(&s.phase.replay),
		"direct":  sec(&s.phase.direct),
		"sampled": sec(&s.phase.sampled),
		"corun":   sec(&s.phase.corun),
	}
}

// datasetKey returns the cache-key component for a dataset spec. Specs
// that resolve to synthetic datasets key as themselves (generation is
// deterministic — and a stray file shadowing a builtin name is ignored,
// matching graph.Resolve's precedence), but a graph-file spec is suffixed
// with the file's (size, mtime) stamp: a Session can outlive many edits
// of a file (graspd keeps one per scale for the daemon's lifetime), and
// without the stamp the workload/result/trace memos would keep serving
// the parse of the original bytes after the graph registry has
// re-ingested the edited file. When a file's stamp advances, every entry
// under any other stamp of that file is evicted from all three memos —
// they pin whole parsed/reordered graphs and LLC traces, which would
// otherwise leak for the session's lifetime, one generation per edit
// (evicting all generations, not just the recorded one, also sweeps
// entries created under a rolled-back stamp, e.g. after a backup
// restore). Transitions are accepted only forward (never to an older
// mtime): a goroutine still holding a stat taken just before a concurrent
// edit must not roll the recorded stamp back, evicting the newer entries
// and thrashing the caches; it keys under what it observed and moves on
// (those entries persist until the next advance sweeps them — at most one
// stale generation, not one per edit).
func (s *Session) datasetKey(dsName string) string {
	ds, err := graph.Resolve(dsName)
	if err != nil || ds.Kind != graph.KindFile {
		return dsName
	}
	fi, err := os.Stat(ds.Path)
	if err != nil {
		return dsName
	}
	cur := fileStamp{size: fi.Size(), modNano: fi.ModTime().UnixNano()}
	s.stampMu.Lock()
	prev, seen := s.stamps[dsName]
	advance := !seen || cur.modNano > prev.modNano ||
		(cur.modNano == prev.modNano && cur.size != prev.size)
	if advance {
		s.stamps[dsName] = cur
	}
	s.stampMu.Unlock()
	if seen && advance {
		// Sweep every generation but the current one. Keying is atomic in
		// the memos (do() inserts under the caller's full key), so entries
		// being computed under cur's key right now are untouched.
		curKey := cur.key(dsName)
		stale := func(k string) bool {
			return strings.HasPrefix(k, dsName+"@") && !strings.HasPrefix(k, curKey+"|")
		}
		for _, c := range []interface{ deleteMatching(func(string) bool) }{
			s.bases, s.workloads, s.results, s.sampled, s.corun,
		} {
			c.deleteMatching(stale)
		}
		s.releaseRecordings(stale)
		// The swept generations' graphs and traces are gone; restart the
		// byte accounting at the per-path overhead (current-stamp entries
		// re-account as they are computed).
		s.fileMu.Lock()
		if u := s.fileUse[dsName]; u != nil {
			s.fileTotal -= u.bytes - fileEntryOverhead
			u.bytes = fileEntryOverhead
		}
		s.fileMu.Unlock()
	}
	s.touchFile(dsName)
	return cur.key(dsName)
}

// fileEntryOverhead is the nominal accounting charge for merely knowing a
// file-backed dataset (its stamp, recency slot, and any error-cached memo
// entries): far above the true footprint, so the byte budget also bounds
// how many distinct paths — including ones that never parse — a session
// retains state for.
const fileEntryOverhead = 64 << 10

// chargeFile adds n retained bytes to dsName's slot (creating it with the
// nominal per-path overhead), bumps its recency, and returns the
// least-recently-used datasets to evict while the total exceeds the
// budget. Caller must not hold fileMu.
func (s *Session) chargeFile(dsName string, n int64) (evict []string) {
	budget := s.Cfg.FileBytesBudget
	s.fileMu.Lock()
	u := s.fileUse[dsName]
	if u == nil {
		u = &fileUsage{bytes: fileEntryOverhead}
		s.fileUse[dsName] = u
		s.fileTotal += fileEntryOverhead
	}
	s.fileSeq++
	u.seq = s.fileSeq
	u.bytes += n
	s.fileTotal += n
	if budget > 0 {
		for s.fileTotal > budget && len(s.fileUse) > 1 {
			oldest, oldestSeq := "", uint64(0)
			for name, fu := range s.fileUse {
				if name != dsName && (oldest == "" || fu.seq < oldestSeq) {
					oldest, oldestSeq = name, fu.seq
				}
			}
			if oldest == "" {
				break
			}
			s.fileTotal -= s.fileUse[oldest].bytes
			delete(s.fileUse, oldest)
			evict = append(evict, oldest)
		}
	}
	s.fileMu.Unlock()
	return evict
}

// touchFile bumps the LRU recency of a file-backed dataset, creating (and
// budget-checking) its accounting slot on first sight.
func (s *Session) touchFile(dsName string) {
	for _, name := range s.chargeFile(dsName, 0) {
		s.evictDataset(name)
	}
}

// noteFileBytes charges newly retained bytes (a parsed/reordered graph, a
// recorded trace's resident part) to dsName's budget slot if it is a
// file-backed dataset, evicting least-recently-used file datasets while
// the session total exceeds Config.FileBytesBudget. Synthetic datasets
// are exempt: they are a small fixed registry, while file paths are
// operator-controlled and unbounded (the graspd daemon's memory-bound
// requirement, DESIGN.md Sec. 10).
func (s *Session) noteFileBytes(dsName string, n int64) {
	if n <= 0 {
		return
	}
	if ds, err := graph.Resolve(dsName); err != nil || ds.Kind != graph.KindFile {
		return
	}
	for _, name := range s.chargeFile(dsName, n) {
		s.evictDataset(name)
	}
}

// evictDataset drops every memoized entry (all stamped generations) of a
// file-backed dataset from the four caches plus its stamp, freeing the
// parsed graphs and recorded traces it pinned. In-flight computations are
// unaffected (deleteMatching semantics); the next request re-ingests.
// Dropped recordings are Released eagerly — trace pinning protects any
// replay still reading them (DESIGN.md Sec. 11).
func (s *Session) evictDataset(dsName string) {
	prefix := dsName + "@"
	match := func(k string) bool { return strings.HasPrefix(k, prefix) }
	for _, c := range []interface{ deleteMatching(func(string) bool) }{
		s.bases, s.workloads, s.results, s.sampled, s.corun,
	} {
		c.deleteMatching(match)
	}
	s.releaseRecordings(match)
	s.stampMu.Lock()
	delete(s.stamps, dsName)
	s.stampMu.Unlock()
}

// releaseRecordings removes every cached recording whose cache key
// satisfies match from the trace memo and the recording budget, then
// Releases each one: resident bytes return to the process budget and
// spill files close immediately, while replays that pinned the trace
// before the release keep reading it safely until they unpin.
func (s *Session) releaseRecordings(match func(key string) bool) {
	s.traces.deleteMatching(match)
	s.traceMu.Lock()
	var victims []recording
	for k, u := range s.traceUse {
		if match(k) {
			s.traceTotal -= u.bytes
			victims = append(victims, u.rec)
			delete(s.traceUse, k)
		}
	}
	s.traceMu.Unlock()
	for _, rec := range victims {
		rec.tr.Release()
	}
}

// registerRecording charges a freshly recorded trace's encoded bytes to
// the session's recording budget and evicts (Releases) least-recently-
// used cached recordings while the total exceeds Config.TraceBytesBudget.
// The entry being registered is never evicted by its own insertion, so a
// single over-budget recording still serves its group before becoming an
// eviction candidate.
func (s *Session) registerRecording(key string, rec recording) {
	bytes := rec.tr.SizeBytes()
	budget := s.Cfg.TraceBytesBudget
	var victimKeys []string
	var victims []recording
	s.traceMu.Lock()
	s.traceSeq++
	s.traceUse[key] = &traceUsage{bytes: bytes, seq: s.traceSeq, rec: rec}
	s.traceTotal += bytes
	if budget > 0 {
		for s.traceTotal > budget && len(s.traceUse) > 1 {
			oldest, oldestSeq := "", uint64(0)
			for k, u := range s.traceUse {
				if k != key && (oldest == "" || u.seq < oldestSeq) {
					oldest, oldestSeq = k, u.seq
				}
			}
			if oldest == "" {
				break
			}
			u := s.traceUse[oldest]
			s.traceTotal -= u.bytes
			victimKeys = append(victimKeys, oldest)
			victims = append(victims, u.rec)
			delete(s.traceUse, oldest)
		}
	}
	s.traceMu.Unlock()
	for i, vk := range victimKeys {
		vk := vk
		s.traces.deleteMatching(func(k string) bool { return k == vk })
		victims[i].tr.Release()
	}
}

// touchRecording bumps a cached recording's LRU recency on reuse.
func (s *Session) touchRecording(key string) {
	s.traceMu.Lock()
	if u := s.traceUse[key]; u != nil {
		s.traceSeq++
		u.seq = s.traceSeq
	}
	s.traceMu.Unlock()
}

// TraceBytesRetained returns the total encoded bytes of the recordings
// the session currently caches (observability and tests).
func (s *Session) TraceBytesRetained() int64 {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	return s.traceTotal
}

// FileBytesRetained returns the approximate bytes currently retained for
// file-backed datasets (observability and tests).
func (s *Session) FileBytesRetained() int64 {
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	return s.fileTotal
}

// groupKey identifies one recording group: every result datapoint of a
// Prefetch batch that shares it can be served from one recorded trace.
type groupKey struct {
	ds, reorder, app string
	layout           apps.Layout
}

func (p Datapoint) group() groupKey {
	if p.Trace {
		// Declared LLC traces record under DBG/Merged (the OPT study's
		// configuration), sharing the recording with any result datapoints
		// of that group.
		return groupKey{ds: p.DS, reorder: "DBG", app: p.App, layout: apps.LayoutMerged}
	}
	return groupKey{ds: p.DS, reorder: p.Reorder, app: p.App, layout: p.Layout}
}

// foreignCancel reports whether err is a cancellation that cannot have
// originated from ctx: a singleflight waiter merged onto another caller's
// in-flight computation observes THAT caller's cancellation even though
// its own context is still live (two jobs sharing a recording, one
// cancelled mid-record). The transient caches drop failed entries, so the
// waiter just retries and recomputes under its own context — without this
// check one job's cancel would fail every job that happened to share a
// datapoint with it.
func foreignCancel(ctx context.Context, err error) bool {
	if err == nil || ctx.Err() != nil {
		return false
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// record returns the shared FULL recording of one (dataset, reorder, app,
// layout) group, executing the application once behind the L1/L2 filter
// and caching the encoded trace on first use. Full recordings back
// result replays for any policy.
func (s *Session) record(ctx context.Context, k groupKey) (recording, error) {
	key := fmt.Sprintf("%s|%s|%s|%v|rec", s.datasetKey(k.ds), k.reorder, k.app, k.layout)
	for {
		rec, err := s.traces.doTransient(key, func() (recording, error) {
			return s.recordTrace(ctx, key, k, 0)
		})
		if foreignCancel(ctx, err) {
			continue
		}
		if err == nil {
			s.touchRecording(key)
		}
		return rec, err
	}
}

// cappedRecord returns a bounded-prefix recording of the group (the OPT
// study's trace length), cached separately from full recordings: a capped
// trace costs ~64MB where a full-scale full trace runs to tens of GB, but
// it must never back a full-result replay, so traceReady ignores it.
func (s *Session) cappedRecord(ctx context.Context, k groupKey) (recording, error) {
	key := fmt.Sprintf("%s|%s|%s|%v|rec%d", s.datasetKey(k.ds), k.reorder, k.app, k.layout, optTraceCap)
	for {
		rec, err := s.traces.doTransient(key, func() (recording, error) {
			return s.recordTrace(ctx, key, k, optTraceCap)
		})
		if foreignCancel(ctx, err) {
			continue
		}
		if err == nil {
			s.touchRecording(key)
		}
		return rec, err
	}
}

// optRecording serves bounded-prefix consumers (the OPT study): the full
// recording when one is already cached — its prefix is identical and
// decoding stops at the cap — otherwise a capped one.
func (s *Session) optRecording(ctx context.Context, k groupKey) (recording, error) {
	if s.traceReady(k) {
		return s.record(ctx, k)
	}
	return s.cappedRecord(ctx, k)
}

// recordTrace executes one recording run (limit <= 0: full stream) and
// registers the finished trace under key in the recording byte budget.
func (s *Session) recordTrace(ctx context.Context, key string, k groupKey, limit int64) (recording, error) {
	w, err := s.Workload(k.ds, k.reorder, k.app == "SSSP")
	if err != nil {
		return recording{}, err
	}
	start := time.Now()
	tr, err := sim.RecordTraceNCtx(ctx, w, k.app, k.layout, s.Cfg.HCfg, limit)
	s.phase.record.Add(int64(time.Since(start)))
	if err != nil {
		return recording{}, err
	}
	bounds, err := sim.ABRBoundsFor(w, k.app, k.layout)
	if err != nil {
		tr.Release()
		return recording{}, err
	}
	s.noteFileBytes(k.ds, tr.ResidentBytes())
	rec := recording{tr: tr, bounds: bounds}
	s.registerRecording(key, rec)
	return rec, nil
}

// withRecording runs fn with a PINNED recording of the group — the full
// stream, or the OPT-capped variant via optRecording — so a concurrent
// budget eviction cannot reclaim the trace mid-replay. Losing the pin
// race (the cached recording was evicted and released between lookup and
// pin) retries: the eviction also removed the cache entry, so the next
// lookup re-records.
func (s *Session) withRecording(ctx context.Context, k groupKey, capped bool, fn func(rec recording) error) error {
	for {
		var rec recording
		var err error
		if capped {
			rec, err = s.optRecording(ctx, k)
		} else {
			rec, err = s.record(ctx, k)
		}
		if err != nil {
			return err
		}
		if !rec.tr.Pin() {
			continue
		}
		err = fn(rec)
		rec.tr.Unpin()
		return err
	}
}

// traceReady reports whether the group's FULL recording is already cached
// and healthy, without blocking on one in flight.
func (s *Session) traceReady(k groupKey) bool {
	return s.traces.ready(fmt.Sprintf("%s|%s|%s|%v|rec", s.datasetKey(k.ds), k.reorder, k.app, k.layout))
}

// Workload returns the prepared (dataset, reorder) pair, preparing and
// caching it on first use. dsName goes through the dataset registry's
// resolver, so it can be a paper dataset name or a graph-file path
// (re-prepared if the file changes; see datasetKey).
func (s *Session) Workload(dsName, reorderName string, weighted bool) (*sim.Workload, error) {
	key := fmt.Sprintf("%s|%s|%v", s.datasetKey(dsName), reorderName, weighted)
	return s.workloads.do(key, func() (*sim.Workload, error) {
		ds, err := graph.Resolve(dsName)
		if err != nil {
			return nil, err
		}
		g, err := s.baseGraph(dsName, ds, weighted)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		w, err := sim.PrepareWorkloadOn(g, ds, reorderName, weighted)
		s.phase.reorder.Add(int64(time.Since(start)))
		if err != nil {
			return nil, err
		}
		if w.Graph != g {
			// Reordered copy; the shared base was accounted by baseGraph.
			s.noteFileBytes(dsName, w.Graph.Footprint())
		}
		return w, nil
	})
}

// baseGraph returns the loaded (generated or ingested) base graph of a
// dataset, cached per (dataset, weighted): the expensive part of workload
// preparation that is identical across reordering techniques — each
// technique builds a relabeled copy and never mutates the base.
func (s *Session) baseGraph(dsName string, ds graph.Dataset, weighted bool) (*graph.CSR, error) {
	key := fmt.Sprintf("%s|%v|base", s.datasetKey(dsName), weighted)
	return s.bases.do(key, func() (*graph.CSR, error) {
		start := time.Now()
		g, err := ds.Load(weighted, s.Cfg.ScaleDiv)
		s.phase.load.Add(int64(time.Since(start)))
		if err != nil {
			return nil, err
		}
		s.noteFileBytes(dsName, g.Footprint())
		return g, nil
	})
}

// Result returns the metrics of one simulation datapoint, computing and
// caching it on first use. If the datapoint's group already has a cached
// recording the result replays it; otherwise it runs execution-driven —
// the two are result-identical (the replay-equivalence suite pins this),
// so callers never observe which path served them.
func (s *Session) Result(dsName, reorderName, app string, layout apps.Layout, policy string) (sim.Result, error) {
	return s.ResultCtx(context.Background(), dsName, reorderName, app, layout, policy)
}

// ResultCtx is Result with cooperative cancellation: the simulation checks
// ctx at trace-chunk / access-poll boundaries and returns an error wrapping
// ctx's cause once it expires. Cancellation never perturbs a completed
// datapoint — a cancelled computation is dropped from the cache, and a
// later request recomputes it from scratch with identical output.
func (s *Session) ResultCtx(ctx context.Context, dsName, reorderName, app string, layout apps.Layout, policy string) (sim.Result, error) {
	p := Datapoint{DS: dsName, Reorder: reorderName, App: app, Layout: layout, Policy: policy}
	return s.result(ctx, p, s.traceReady(p.group()))
}

// resultKey renders the result-cache key of one datapoint.
func (s *Session) resultKey(p Datapoint) string {
	return fmt.Sprintf("%s|%s|%s|%v|%s", s.datasetKey(p.DS), p.Reorder, p.App, p.Layout, p.Policy)
}

// result computes one result datapoint, replaying the group's shared
// recording when viaTrace is set (recording it first if need be).
func (s *Session) result(ctx context.Context, p Datapoint, viaTrace bool) (sim.Result, error) {
	// doTransient: the replay path can fail environmentally (spill I/O),
	// and a failed result must not be served from cache for the session's
	// lifetime; deterministic failures just recompute cheaply on request.
	// The foreignCancel retry covers waiters merged onto a flight that was
	// cancelled under someone else's context.
	for {
		r, err := s.results.doTransient(s.resultKey(p), func() (sim.Result, error) {
			weighted := p.App == "SSSP"
			w, err := s.Workload(p.DS, p.Reorder, weighted)
			if err != nil {
				return sim.Result{}, err
			}
			spec := sim.Spec{App: p.App, Layout: p.Layout, Policy: p.Policy, HCfg: s.Cfg.HCfg}
			if viaTrace {
				var r sim.Result
				err := s.withRecording(ctx, p.group(), false, func(rec recording) error {
					start := time.Now()
					var rerr error
					r, rerr = sim.ReplayResultCtx(ctx, rec.tr, spec, w.Dataset.Name, rec.bounds)
					s.phase.replay.Add(int64(time.Since(start)))
					return rerr
				})
				if err != nil {
					return sim.Result{}, err
				}
				s.simRuns.Add(1)
				return r, nil
			}
			s.simRuns.Add(1)
			start := time.Now()
			r, err := sim.RunCtx(ctx, w, spec)
			s.phase.direct.Add(int64(time.Since(start)))
			return r, err
		})
		if foreignCancel(ctx, err) {
			continue
		}
		return r, err
	}
}

// Datapoint names one unit of simulation work an experiment will consume:
// either one (dataset, reorder, app, layout, policy) result or, with Trace
// set, one recorded (dataset, app) LLC trace.
type Datapoint struct {
	DS, Reorder, App string
	Layout           apps.Layout
	Policy           string
	Trace            bool // declare the LLC trace instead of a result (Reorder/Layout/Policy ignored)
}

// compute materializes the datapoint into the session caches. A declared
// trace needs only the OPT study's bounded prefix, so outside a Prefetch
// batch (which knows whether the group's full recording is coming anyway)
// it records capped unless a full recording already exists.
func (s *Session) compute(p Datapoint) error {
	if p.Trace {
		_, err := s.optRecording(context.Background(), p.group())
		return err
	}
	_, err := s.Result(p.DS, p.Reorder, p.App, p.Layout, p.Policy)
	return err
}

// Prefetch computes the given datapoints on a pool of GOMAXPROCS workers,
// leaving them cached in the session. The batch is deduplicated up front
// (a duplicate entry would park a worker slot blocking on the in-flight
// original instead of doing distinct work); datapoints that merely share a
// workload are deduplicated by the singleflight caches, so no simulation
// runs twice either way.
//
// Prefetch is where the record-once/replay-many engine engages: the batch
// is grouped by (dataset, reorder, app, layout), and any group requested
// under two or more policies executes the application once into a shared
// recorded trace, with every policy of the group replaying it. Recordings
// are scheduled before replays so the worker pool starts the expensive
// application executions as early as possible; replays (cheap,
// LLC-only) fill in behind them. Single-policy groups run execution-driven
// unless their recording already exists. The returned error is the
// earliest (by batch position) failure, matching what a sequential pass
// would report first.
func (s *Session) Prefetch(points []Datapoint) error {
	return s.PrefetchObservedCtx(context.Background(), points, nil)
}

// PrefetchObservedCtx is Prefetch with a progress callback, cooperative
// cancellation and per-unit fault containment. After each datapoint of
// the deduplicated batch completes (success or error), onProgress is
// invoked with the number done so far and the batch total. It is called
// concurrently from the worker pool, so it must be goroutine-safe; `done`
// values are each delivered exactly once but may arrive out of order (a
// broadcast group delivers all of its datapoints when the group's fan-out
// completes). A nil onProgress is allowed. Long-running callers (the
// graspd job service) use the callback to surface per-job completion
// percentages while a batch is in flight.
//
// Cancellation is checked before each scheduling unit starts and at chunk
// boundaries inside recordings and replays, so a cancelled batch unwinds
// within one chunk of work; units already complete stay cached, unfinished
// ones are dropped (transient semantics) and recompute identically on a
// later request. A panic inside one unit's simulation fails only that
// unit's datapoints — the stack is attached to their error — and the rest
// of the batch keeps running.
func (s *Session) PrefetchObservedCtx(ctx context.Context, points []Datapoint, onProgress func(done, total int)) error {
	uniq := points
	if len(points) > 1 {
		seen := make(map[Datapoint]bool, len(points))
		uniq = make([]Datapoint, 0, len(points))
		for _, p := range points {
			if !seen[p] {
				seen[p] = true
				uniq = append(uniq, p)
			}
		}
	}
	// Phase 0 — dataset-parallel workload preparation: fan the batch's
	// DISTINCT (dataset, reorder) workloads out over the pool before any
	// recording or simulation is scheduled. At full scale the expensive
	// reorderings (one Gorder pass per dataset) are the longest-pole
	// inputs of the recording phase; preparing them all up front lets a
	// multi-core host reorder every dataset concurrently instead of
	// discovering each reordering serially behind a recording slot.
	// Errors are dropped here — the memo caches them, and they re-surface
	// attributed to the first datapoint that needs the failed workload.
	type workloadKey struct {
		ds, reorder string
		weighted    bool
	}
	seenW := make(map[workloadKey]bool, len(uniq))
	var warm []workloadKey
	for _, p := range uniq {
		g := p.group()
		wk := workloadKey{ds: g.ds, reorder: g.reorder, weighted: g.app == "SSSP"}
		if !seenW[wk] {
			seenW[wk] = true
			warm = append(warm, wk)
		}
	}
	forEachParallel(len(warm), func(i int) {
		// Swallow panics too: a workload whose preparation panics must not
		// kill the warm-up worker — the memo drops the entry, and the panic
		// recurs (contained) under the first unit that needs the workload.
		defer func() { _ = recover() }()
		if ctx.Err() != nil {
			return
		}
		_, _ = s.Workload(warm[i].ds, warm[i].reorder, warm[i].weighted)
	})
	// Group the result datapoints; groups with several consumers of one
	// execution — two or more policies, or a policy plus a declared trace
	// — or whose full recording already exists go through the replay
	// engine. A declared trace counts as a consumer: recording once and
	// replaying the lone policy beats executing the application twice.
	counts := make(map[groupKey]int)
	declaredTrace := make(map[groupKey]bool)
	for _, p := range uniq {
		if p.Trace {
			declaredTrace[p.group()] = true
		} else {
			counts[p.group()]++
		}
	}
	replayGroup := make(map[groupKey]bool, len(counts))
	for k, n := range counts {
		replayGroup[k] = n > 1 || declaredTrace[k] || s.traceReady(k)
	}
	// Build the schedule. Each replay group becomes ONE broadcast unit:
	// the recording (the expensive application execution) followed by a
	// single decode-once fan-out serving every policy of the group — and
	// its declared trace, if any — so an N-policy group pays one decode
	// instead of N and its replays run concurrently even inside one
	// worker slot (DESIGN.md Sec. 12). Trace-only groups record their
	// bounded prefix; everything else runs execution-driven as its own
	// unit. Units carrying a recording are scheduled first, so the worker
	// pool starts every application execution as early as possible.
	const (
		unitBroadcast = iota
		unitTraceOnly
		unitSingle
	)
	type unit struct {
		kind  int
		group groupKey
		pts   []int // indices into uniq, batch order
	}
	var recUnits, restUnits []*unit
	byGroup := make(map[groupKey]*unit)
	for i, p := range uniq {
		k := p.group()
		switch {
		case replayGroup[k]:
			u := byGroup[k]
			if u == nil {
				u = &unit{kind: unitBroadcast, group: k}
				byGroup[k] = u
				recUnits = append(recUnits, u)
			}
			u.pts = append(u.pts, i)
		case p.Trace:
			u := byGroup[k]
			if u == nil {
				u = &unit{kind: unitTraceOnly, group: k}
				byGroup[k] = u
				recUnits = append(recUnits, u)
			}
			u.pts = append(u.pts, i)
		default:
			restUnits = append(restUnits, &unit{kind: unitSingle, group: k, pts: []int{i}})
		}
	}
	units := append(recUnits, restUnits...)
	errs := make([]error, len(uniq))
	var completed atomic.Int64
	note := func(i int, err error) {
		errs[i] = err
		if onProgress != nil {
			onProgress(int(completed.Add(1)), len(uniq))
		}
	}
	// runUnit executes one scheduling unit with fault containment: a panic
	// anywhere under it (a policy bug, a corrupted dataset) becomes the
	// unit's error with the stack attached, instead of escaping the worker
	// goroutine and killing the process. A sentinel abort (cooperative
	// cancellation surfacing from a sink with no error return path) is
	// unwrapped to its cause. pointErr carries per-datapoint failures that
	// must not fail the whole unit.
	runUnit := func(u *unit) (uerr error, pointErr map[int]error) {
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
		switch u.kind {
		case unitBroadcast:
			return s.broadcastUnit(ctx, u.group, u.pts, uniq)
		case unitTraceOnly:
			// Trace-only groups record just the bounded prefix the OPT
			// study consumes.
			_, err := s.optRecording(ctx, u.group)
			return err, nil
		default:
			_, err := s.result(ctx, uniq[u.pts[0]], false)
			return err, nil
		}
	}
	forEachParallel(len(units), func(j int) {
		u := units[j]
		uerr, pointErr := runUnit(u)
		for _, i := range u.pts {
			err := uerr
			if err == nil {
				err = pointErr[i]
			}
			note(i, err)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// broadcastUnit serves one replay group of a Prefetch batch: it obtains
// the group's full recording and fans ONE decode pass out to every
// not-yet-cached policy result of the group, publishing each through the
// singleflight result cache (so concurrent Result callers and later
// requests share them; if another goroutine is already computing one of
// the keys, its outcome wins — identical by the replay-equivalence
// invariant). A declared trace point of the group is satisfied by the
// recording itself. The group-wide error and any per-point errors are
// returned for the caller to attribute.
func (s *Session) broadcastUnit(ctx context.Context, k groupKey, ptIdx []int, uniq []Datapoint) (error, map[int]error) {
	pointErr := make(map[int]error)
	uerr := s.withRecording(ctx, k, false, func(rec recording) error {
		var pending []int
		for _, i := range ptIdx {
			if uniq[i].Trace || s.results.ready(s.resultKey(uniq[i])) {
				continue
			}
			// Validate the policy up front so one bad name fails only its
			// own datapoint (as a sequential pass would), not the fan-out.
			if _, err := sim.PolicyByName(uniq[i].Policy); err != nil {
				pointErr[i] = err
				continue
			}
			pending = append(pending, i)
		}
		if len(pending) == 0 {
			return nil
		}
		w, err := s.Workload(k.ds, k.reorder, k.app == "SSSP")
		if err != nil {
			return err
		}
		specs := make([]sim.Spec, len(pending))
		for j, i := range pending {
			p := uniq[i]
			specs[j] = sim.Spec{App: p.App, Layout: p.Layout, Policy: p.Policy, HCfg: s.Cfg.HCfg}
		}
		start := time.Now()
		results, err := sim.BroadcastResultsCtx(ctx, rec.tr, specs, w.Dataset.Name, rec.bounds)
		s.phase.replay.Add(int64(time.Since(start)))
		if err != nil {
			return err
		}
		s.broadcasts.Add(1)
		for j, i := range pending {
			r := results[j]
			_, derr := s.results.doTransient(s.resultKey(uniq[i]), func() (sim.Result, error) {
				s.simRuns.Add(1)
				return r, nil
			})
			pointErr[i] = derr
		}
		return nil
	})
	return uerr, pointErr
}

// forEachParallel invokes work(i) for every i in [0, n) from a pool of at
// most GOMAXPROCS goroutines. It is the fan-out primitive shared by
// Prefetch and the experiments that run non-session work (OPT replays,
// region-scale sweeps) in parallel.
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

// tracePoints declares the LLC traces of the OPT study (apps x high-skew
// datasets).
func tracePoints() []Datapoint {
	var out []Datapoint
	for _, app := range apps.Names() {
		for _, ds := range highSkewNames() {
			out = append(out, Datapoint{DS: ds, App: app, Trace: true})
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
		{ID: "fig11", Title: "Fig. 11: misses eliminated over LRU (RRIP, GRASP, OPT)", Run: runFig11, Points: tracePoints},
		{ID: "table7", Title: "Table VII: misses eliminated over LRU across LLC sizes", Run: runTable7, Points: tracePoints},
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
				if perr := s.compute(p); perr != nil {
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
