package exp

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"

	"grasp/internal/apps"
)

// kind names one class of artifact in the store. Every artifact
// is a pure function of its key; kinds differ only in what the value is
// and in whether a failure is worth remembering.
type kind uint8

const (
	kindWorkload  kind = iota // *sim.Workload: (dataset, reorder, weighted), loaded and reordered in one step
	kindRecording             // recording: LLC-bound trace of a group; n = K: its sampled subsequence
	kindResult                // sim.Result of (group, policy, region scale)
	kindSampled               // sim.SampledResult of (group, policy), n = sampling divisor K
	kindCorun                 // sim.CorunResult of (mix, policy, weights)
	kindOPT                   // optDatapoint: OPT study cell of a group, n = LLC capacity in blocks
)

// transient marks the kinds whose failures are dropped instead of cached.
// Loading and reordering are deterministic — a retry would fail
// identically — but recordings and replays run under a caller's context
// and can fail environmentally (an I/O fault): a daemon must not serve a
// transient error or somebody's cancellation from cache forever.
var transient = [...]bool{kindRecording: true, kindResult: true, kindSampled: true, kindCorun: true, kindOPT: true}

// fileStamp is one observed (size, mtime) state of a graph file.
type fileStamp struct {
	size    int64
	modNano int64
}

// supersedes reports whether st is a forward transition from prev. Never
// to an older mtime: a goroutine still holding a stat taken just before a
// concurrent edit must not roll the recorded stamp back, evicting the
// newer entries and thrashing the store; it keys under what it observed
// and moves on (at most one stale generation, swept by the next advance).
func (st fileStamp) supersedes(prev fileStamp) bool {
	return st.modNano > prev.modNano || (st.modNano == prev.modNano && st.size != prev.size)
}

// dataset is a request's handle on its dataset: the spec, the requesting
// session's Config and, for a graph file, the stamp observed when the
// request began. The Config is in every key because a graph, a recording
// and a result at one scale are not those at another, and sessions of
// every scale share one Store. Synthetic datasets (generation is
// deterministic) carry the zero stamp and their graphs are never charged.
// A Session can outlive many edits of a file (graspd keeps one per scale
// for the daemon's lifetime); the stamp in every key is what keeps it from
// serving the parse of the original bytes after an edit.
type dataset struct {
	name  string
	stamp fileStamp
	cfg   Config
}

func (d dataset) fileBacked() bool { return d.stamp != fileStamp{} }

// artifactKey is the content address of one artifact. Fields a kind does
// not use stay zero.
type artifactKey struct {
	ds       dataset
	kind     kind
	reorder  string
	app      string // corun: the mix, "+"-joined in stream order
	layout   apps.Layout
	policy   string
	weighted bool    // workload
	n        uint32  // sampled: K; opt: LLC capacity in blocks
	weights  string  // corun: per-stream turn weights, ","-joined
	scale    float64 // result: sim.Spec.RegionScale, 0 for the paper's 1x
}

// entry is one in-flight or settled computation.
type entry struct {
	done    chan struct{} // closed when val/err are set
	val     any
	err     error
	settled bool // done is closed; readable under mu without blocking
	recency uint64
	bytes   int64 // exactly what settling added to the total; eviction subtracts it
}

// fileEntryOverhead is the nominal accounting charge for merely knowing a
// file-backed dataset (its slot and any error-cached entries): far above
// the true footprint, so the byte budget also bounds how many distinct
// paths — including ones that never parse — the store retains state for.
const fileEntryOverhead = 64 << 10

// fileSlot is the per-file state the budget evicts a file dataset by: the
// latest stamp accepted for the path and when it was last requested.
type fileSlot struct {
	stamp   fileStamp
	recency uint64
}

// Store is a process's one cache, shared by every Session made from it:
// a singleflight memo of every artifact kind under one mutex and one
// recency order, with one byte budget drawn over it. Every recomputable
// artifact is charged once — a file-backed graph its footprint, a
// recording its encoded bytes, a known file path fileEntryOverhead — and
// when the total exceeds the budget the least recent RECORDING goes, or
// the whole file DATASET whose slot is older still, whichever session put
// it there. Keys carry the session's Config, so sessions of different
// scales share the budget and never an entry.
type Store struct {
	mu     sync.Mutex
	budget int64 // <= 0: unbounded
	m      map[artifactKey]*entry
	files  map[string]*fileSlot
	seq    uint64
	total  int64
	work   Ledger // what the sessions did (ledger.go)
}

// DefaultStoreBudget is a Store's budget when none is given (4 GiB):
// a full -exp all sweep keeps 0.52 GB of recordings at scale 4 and, by
// the codec's measured scale-1 density, about 2.2 GB at scale 1, so no
// paper sweep evicts.
const DefaultStoreBudget = int64(4) << 30

// NewStore returns an empty store whose budget caps the bytes it retains
// for what it can recompute (see SetBudget).
func NewStore(budget int64) *Store {
	a := &Store{m: make(map[artifactKey]*entry), files: make(map[string]*fileSlot)}
	a.SetBudget(budget)
	return a
}

// Session returns a session of the given geometry over the store: its
// artifacts are charged to, and evicted by, the store's one budget.
func (a *Store) Session(cfg Config) *Session {
	return &Session{Cfg: cfg, art: a}
}

// SetBudget replaces the store's byte budget and evicts down to it at
// once. Past it the least recent recording, or the least recently
// requested file dataset whole, is evicted, so a long-lived daemon fed
// arbitrary groups, scales and distinct paths does not grow without bound
// (DESIGN.md Sec. 10; an eviction drops only the store's reference, so an
// in-flight replay keeps the trace it holds, Sec. 11). Synthetic graphs
// are a small fixed set per scale and are never charged. 0 selects
// DefaultStoreBudget; negative disables the cap.
func (a *Store) SetBudget(n int64) {
	if n == 0 {
		n = DefaultStoreBudget
	}
	a.mu.Lock()
	a.budget = n
	a.enforce(artifactKey{}, "")
	a.mu.Unlock()
}

// foreignCancel reports whether err is a cancellation that cannot have
// originated from ctx: a waiter merged onto another caller's in-flight
// computation observes THAT caller's cancellation even though its own
// context is still live (two jobs sharing a recording, one cancelled
// mid-record).
func foreignCancel(ctx context.Context, err error) bool {
	if err == nil || ctx.Err() != nil {
		return false
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// get returns the artifact under k, computing it with fn on first use:
// getEach of one key.
func get[V any](ctx context.Context, a *Store, k artifactKey, fn func() (V, int64, error)) (V, error) {
	vs, err := getEach(ctx, a, []artifactKey{k}, func([]int) ([]V, []int64, error) {
		v, bytes, err := fn()
		return []V{v}, []int64{bytes}, err
	})
	return vs[0], err
}

// getEach returns the artifacts under keys, in order, with the error of
// the first that failed; it is the only way in. It claims every key at
// once; fn computes the keys this caller leads (led indexes keys) in ONE
// call, with no lock held, and that call's values (with their byte
// charges, if any), error or panic settle each of them. Only then does the caller wait on
// the keys other callers lead, so overlapping batches neither compute a
// key twice nor deadlock: every leader settles its own claims before it
// waits on anyone else's. A failed transient-kind computation is
// forgotten (its waiters still receive the error), and a caller that
// inherited another context's cancellation that way claims the key again
// and recomputes it under its own — one job's cancel must not fail every
// job that shared a datapoint with it.
func getEach[V any](ctx context.Context, a *Store, keys []artifactKey,
	fn func(led []int) ([]V, []int64, error)) ([]V, error) {
	vals, errs := make([]V, len(keys)), make([]error, len(keys))
	pending := make([]int, len(keys))
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		entries, led := a.claimEach(keys, pending)
		if len(led) > 0 {
			lead(a, keys, entries, led, fn)
		}
		var retry []int
		for _, i := range pending {
			e := entries[i]
			<-e.done
			if transient[keys[i].kind] && foreignCancel(ctx, e.err) {
				retry = append(retry, i)
				continue
			}
			vals[i], _ = e.val.(V)
			errs[i] = e.err
		}
		pending = retry
	}
	return vals, cmp.Or(errs...)
}

// claimEach finds or inserts the entries of keys[i] for every i in idx,
// under one lock so that callers claiming overlapping sets never split a
// set between them, and bumps their recency. entries is indexed like
// keys; led lists the indices this caller inserted.
func (a *Store) claimEach(keys []artifactKey, idx []int) (entries []*entry, led []int) {
	entries = make([]*entry, len(keys))
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, i := range idx {
		a.seq++
		e := a.m[keys[i]]
		if e == nil {
			e = &entry{done: make(chan struct{})}
			a.m[keys[i]] = e
			led = append(led, i)
		} else {
			a.work.Served++
		}
		e.recency = a.seq
		entries[i] = e
	}
	return entries, led
}

// lead runs the one computation of the led keys and settles each with its
// outcome. A panic settles them too — the entries are dropped, waiters
// receive an error instead of hanging forever — and then continues up to
// the containment layer (Prefetch's per-unit recover, the jobs manager, or
// process exit).
func lead[V any](a *Store, keys []artifactKey, entries []*entry, led []int,
	fn func(led []int) ([]V, []int64, error)) {
	var vs []V
	var bytes []int64
	var err error
	defer func() {
		p := recover()
		if p != nil {
			err = fmt.Errorf("exp: computation panicked: %v", p)
		}
		for j, i := range led {
			var b int64
			if entries[i].err = err; err == nil {
				entries[i].val = vs[j]
				if j < len(bytes) {
					b = bytes[j]
				}
			}
			a.settle(keys[i], entries[i], b, p != nil)
		}
		if p != nil {
			panic(p)
		}
	}()
	vs, bytes, err = fn(led)
}

// settle publishes one led key's outcome: it charges a success to the
// budget (evicting whatever no longer fits), forgets a failure that is
// transient or a panic, and wakes the waiters.
func (a *Store) settle(k artifactKey, e *entry, bytes int64, panicked bool) {
	a.mu.Lock()
	switch {
	case a.m[k] != e:
		// Evicted while in flight (its file was edited, or its dataset was
		// the budget's victim): nothing is charged, so a later eviction
		// has nothing to subtract. Whoever receives the value still uses
		// it; only the store forgets it.
	case e.err != nil && (panicked || transient[k.kind]):
		delete(a.m, k)
	default:
		// The budget is checked only by an entry that adds to the total,
		// so the over-budget entry that must survive its own insertion is
		// not then evicted by the next uncharged result.
		e.bytes = bytes
		if bytes > 0 {
			if k.ds.fileBacked() {
				a.slot(k.ds)
			}
			a.total += bytes
			a.enforce(k, k.ds.name)
		}
	}
	e.settled = true
	a.mu.Unlock()
	close(e.done)
}

// observe notes a request for the file-backed dataset name whose file is
// currently in state cur, and returns the handle the request keys under
// (its cfg left for the session to set). When the stamp advances, every
// entry under any other stamp of that file, at every scale, is evicted —
// they pin whole parsed graphs and traces, one generation per edit
// otherwise (sweeping all other generations, not just the recorded one,
// also clears entries made under a rolled-back stamp, e.g. after a backup
// restore). Entries being computed under cur right now are untouched. As
// in settle, only a charge (a new path's slot) checks the budget.
func (a *Store) observe(name string, cur fileStamp) dataset {
	d := dataset{name: name, stamp: cur}
	a.mu.Lock()
	defer a.mu.Unlock()
	_, known := a.files[name]
	slot := a.slot(d)
	if cur.supersedes(slot.stamp) {
		slot.stamp = cur
		a.evict(func(k artifactKey) bool { return k.ds.name == name && k.ds.stamp != cur })
	}
	a.seq++
	slot.recency = a.seq
	if !known {
		a.enforce(artifactKey{}, name)
	}
	return d
}

// slot returns d's file slot, creating it (and charging the per-path
// overhead) on first sight. Caller holds mu.
func (a *Store) slot(d dataset) *fileSlot {
	s := a.files[d.name]
	if s == nil {
		a.seq++
		s = &fileSlot{stamp: d.stamp, recency: a.seq}
		a.files[d.name] = s
		a.total += fileEntryOverhead
	}
	return s
}

// evict removes every entry whose key satisfies match and subtracts
// exactly what settling it charged. Goroutines already blocked on an
// evicted in-flight entry still receive its outcome, and a replay holding
// an evicted value keeps it; the entry just stops being findable, so the
// next request recomputes. Caller holds mu.
func (a *Store) evict(match func(artifactKey) bool) {
	for k, e := range a.m {
		if match(k) {
			delete(a.m, k)
			a.total -= e.bytes
		}
	}
}

// enforce evicts, least recent first, while the total exceeds the budget.
// A victim is one settled recording, or a whole file-backed dataset —
// every generation of every kind, plus its slot, so the next request
// re-ingests — when that dataset's slot is older than every recording. A
// workload is never a victim alone: a file's graphs go with its dataset,
// at its slot's recency. keep, the entry being settled, and keepDS,
// the dataset being requested, are never victims, so a single
// over-budget artifact still serves its request before becoming a
// candidate. Caller holds mu.
func (a *Store) enforce(keep artifactKey, keepDS string) {
	for a.budget > 0 && a.total > a.budget {
		var victim artifactKey
		victimDS, oldest := "", uint64(0) // recencies start at 1
		for k, e := range a.m {
			if k.kind == kindRecording && e.bytes > 0 && k != keep && (oldest == 0 || e.recency < oldest) {
				victim, oldest = k, e.recency
			}
		}
		for name, s := range a.files {
			if name != keepDS && (oldest == 0 || s.recency < oldest) {
				victimDS, oldest = name, s.recency
			}
		}
		switch {
		case oldest == 0:
			return
		case victimDS != "":
			a.evict(func(k artifactKey) bool { return k.ds.name == victimDS })
			delete(a.files, victimDS)
			a.total -= fileEntryOverhead
		default:
			a.evict(func(k artifactKey) bool { return k == victim })
		}
	}
}

// CacheBytesRetained returns the bytes currently charged against the
// store's budget, across all of its sessions (graspd's
// cache_bytes_retained gauge, and tests).
func (a *Store) CacheBytesRetained() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}
