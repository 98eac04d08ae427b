package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grasp/internal/apps"
	"grasp/internal/fail"
	"grasp/internal/graph"
	"grasp/internal/trace"
)

// count returns how many entries of one kind the store holds (in flight,
// settled or error-cached) — the white-box probe of the session tests.
func (a *Store) count(kd kind) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for k := range a.m {
		if k.kind == kd {
			n++
		}
	}
	return n
}

// claim holds k in flight as another caller would: the returned entry is
// settled with a.settle. leader is false when k was already claimed.
func (a *Store) claim(k artifactKey) (e *entry, leader bool) {
	entries, led := a.claimEach([]artifactKey{k}, []int{0})
	return entries[0], len(led) == 1
}

// fullRecordingReady reports whether the (synthetic dataset, DBG, app,
// merged) group's FULL recording is cached.
func fullRecordingReady(s *Session, ds, app string) bool {
	return s.art.ready(group(s.dataset(ds), "DBG", app, apps.LayoutMerged))
}

// waitClaims spins until the store has seen n claims, i.e. until the n-th
// get has found or inserted its entry and is running or blocked on it.
func waitClaims(a *Store, n uint64) {
	for {
		a.mu.Lock()
		seq := a.seq
		a.mu.Unlock()
		if seq >= n {
			return
		}
		runtime.Gosched()
	}
}

// fakes drives the store with int-valued artifacts: put settles v under k
// with the given charge.
type fakes struct {
	t *testing.T
	a *Store
}

func newFakes(t *testing.T, budget int64) *fakes {
	return &fakes{t: t, a: NewStore(budget)}
}

func (f *fakes) put(k artifactKey, v int, bytes int64) {
	f.t.Helper()
	got, err := get(context.Background(), f.a, k, func() (int, int64, error) {
		return v, bytes, nil
	})
	if err != nil || got != v {
		f.t.Fatalf("get(%+v) = %d, %v; want %d", k, got, err, v)
	}
}

// wantTotal checks the store's total both against want and against the
// sum of what its live entries and file slots are charged.
func (f *fakes) wantTotal(want int64) {
	f.t.Helper()
	if got, live := f.a.CacheBytesRetained(), f.a.liveCharges(); got != want || live != want {
		f.t.Fatalf("retained = %d, live charges = %d, want %d", got, live, want)
	}
}

// liveCharges sums what the store's entries and file slots are charged
// now, recounted from scratch: the total must always equal it.
func (a *Store) liveCharges() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := int64(len(a.files)) * fileEntryOverhead
	for _, e := range a.m {
		n += e.bytes
	}
	return n
}

func key(ds dataset, kd kind, app string) artifactKey {
	return artifactKey{ds: ds, kind: kd, app: app}
}

// TestArtifactStore exercises the store's whole contract on fake
// artifacts — no graph, no simulator.
func TestArtifactStore(t *testing.T) {
	t.Parallel()
	lj := dataset{name: "lj"}
	errBoom := errors.New("boom")
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"concurrent gets compute once", func(t *testing.T) {
			a := NewStore(-1)
			var calls atomic.Int32
			gate := make(chan struct{})
			const n = 16
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, err := get(context.Background(), a, key(lj, kindResult, "PR"), func() (int, int64, error) {
						calls.Add(1)
						<-gate
						return 42, 0, nil
					})
					if v != 42 || err != nil {
						t.Errorf("get = %d, %v", v, err)
					}
				}()
			}
			waitClaims(a, n)
			close(gate)
			wg.Wait()
			if c := calls.Load(); c != 1 {
				t.Fatalf("computed %d times, want 1", c)
			}
		}},
		{"errors: cached for a caching kind, dropped for a transient kind", func(t *testing.T) {
			for _, tc := range []struct {
				kd        kind
				wantCalls int
			}{{kindWorkload, 1}, {kindRecording, 2}, {kindResult, 2}, {kindSampled, 2}, {kindCorun, 2}} {
				a := NewStore(-1)
				calls := 0
				for i := 0; i < 2; i++ {
					_, err := get(context.Background(), a, key(lj, tc.kd, "PR"), func() (int, int64, error) {
						calls++
						return 0, 99, errBoom
					})
					if !errors.Is(err, errBoom) {
						t.Fatalf("kind %d: err = %v", tc.kd, err)
					}
				}
				if calls != tc.wantCalls {
					t.Fatalf("kind %d: computed %d times, want %d", tc.kd, calls, tc.wantCalls)
				}
				if tr := a.CacheBytesRetained(); tr != 0 {
					t.Fatalf("kind %d: a failed computation was charged %d bytes", tc.kd, tr)
				}
			}
		}},
		{"panic settles waiters with an error and frees the key", func(t *testing.T) {
			a := NewStore(-1)
			k := key(lj, kindWorkload, "") // a caching kind: a panic is dropped even there
			gate := make(chan struct{})
			leaderPanic := make(chan any, 1)
			go func() {
				defer func() { leaderPanic <- recover() }()
				_, _ = get(context.Background(), a, k, func() (int, int64, error) {
					<-gate
					panic("policy bug")
				})
			}()
			waiterErr := make(chan error, 1)
			waitClaims(a, 1)
			go func() {
				_, err := get(context.Background(), a, k, func() (int, int64, error) {
					t.Error("waiter recomputed instead of sharing the leader's flight")
					return 0, 0, nil
				})
				waiterErr <- err
			}()
			waitClaims(a, 2)
			close(gate)
			if p := <-leaderPanic; p != "policy bug" {
				t.Fatalf("leader's panic did not propagate: %v", p)
			}
			if err := <-waiterErr; err == nil || !strings.Contains(err.Error(), "panicked: policy bug") {
				t.Fatalf("waiter err = %v, want the panic as an error", err)
			}
			if v, err := get(context.Background(), a, k, func() (int, int64, error) { return 7, 0, nil }); v != 7 || err != nil {
				t.Fatalf("key not freed after the panic: %d, %v", v, err)
			}
		}},
		{"a waiter whose own ctx is live retries after the leader's cancel", func(t *testing.T) {
			a := NewStore(-1)
			k := key(lj, kindRecording, "PR")
			leaderCtx, cancel := context.WithCancel(context.Background())
			leaderErr := make(chan error, 1)
			go func() {
				_, err := get(leaderCtx, a, k, func() (int, int64, error) {
					<-leaderCtx.Done()
					return 0, 0, leaderCtx.Err()
				})
				leaderErr <- err
			}()
			waiterVal := make(chan int, 1)
			waitClaims(a, 1)
			go func() {
				v, err := get(context.Background(), a, k, func() (int, int64, error) { return 7, 0, nil })
				if err != nil {
					t.Errorf("waiter inherited the leader's cancellation: %v", err)
				}
				waiterVal <- v
			}()
			waitClaims(a, 2)
			cancel()
			if err := <-leaderErr; !errors.Is(err, context.Canceled) {
				t.Fatalf("leader err = %v, want its own cancellation", err)
			}
			if v := <-waiterVal; v != 7 {
				t.Fatalf("waiter got %d, want its own recomputation (7)", v)
			}
		}},
		{"getEach computes what it leads in one call, then waits on the rest", func(t *testing.T) {
			a := NewStore(-1)
			keys := []artifactKey{key(lj, kindResult, "A"), key(lj, kindResult, "B"), key(lj, kindResult, "C")}
			held, _ := a.claim(keys[1]) // another caller's flight
			type outcome struct {
				vals []int
				err  error
			}
			done := make(chan outcome, 1)
			var calls [][]int
			go func() {
				vals, err := getEach(context.Background(), a, keys, func(led []int) ([]int, []int64, error) {
					calls = append(calls, append([]int(nil), led...))
					return []int{len(calls), 30}, nil, nil
				})
				done <- outcome{vals, err}
			}()
			for !a.ready(keys[0]) || !a.ready(keys[2]) {
				runtime.Gosched() // its own claims settle before it waits on B
			}
			held.val = 20
			a.settle(keys[1], held, 0, false)
			got := <-done
			if got.err != nil || len(calls) != 1 || len(calls[0]) != 2 || calls[0][0] != 0 || calls[0][1] != 2 {
				t.Fatalf("fn calls %v, err %v; want one call leading [0 2]", calls, got.err)
			}
			if got.vals[0] != 1 || got.vals[1] != 20 || got.vals[2] != 30 {
				t.Fatalf("values %v, want [1 20 30]: its own two and the held flight's", got.vals)
			}
		}},
		{"a panic in getEach settles every led key as an error", func(t *testing.T) {
			a := NewStore(-1)
			keys := []artifactKey{key(lj, kindWorkload, "A"), key(lj, kindResult, "B")}
			func() {
				defer func() {
					if p := recover(); p != "policy bug" {
						t.Errorf("recovered %v, want the leader's panic", p)
					}
				}()
				_, _ = getEach(context.Background(), a, keys, func([]int) ([]int, []int64, error) {
					panic("policy bug")
				})
			}()
			if n := len(a.m); n != 0 {
				t.Fatalf("%d keys left in the store after the panic, want 0", n)
			}
		}},
		{"trace budget evicts the LRU recording, never the one being inserted", func(t *testing.T) {
			f := newFakes(t, 150)
			kA, kB, kC, kD := key(lj, kindRecording, "A"), key(lj, kindRecording, "B"), key(lj, kindRecording, "C"), key(lj, kindRecording, "D")
			kR := key(lj, kindResult, "A") // uncharged: never a victim
			f.put(kR, 1, 0)
			f.put(kA, 1, 60)
			f.put(kB, 2, 60)
			f.wantTotal(120)
			f.put(kA, 1, 60) // a hit: bumps A past B
			f.put(kC, 3, 60)
			if !f.a.ready(kA) || f.a.ready(kB) || !f.a.ready(kC) {
				t.Fatalf("after C: ready A=%v B=%v C=%v, want B (LRU) evicted", f.a.ready(kA), f.a.ready(kB), f.a.ready(kC))
			}
			f.wantTotal(120)
			f.put(kD, 4, 500) // over budget alone: evicts everything else, stays
			if f.a.ready(kA) || f.a.ready(kC) || !f.a.ready(kD) || !f.a.ready(kR) {
				t.Fatal("an over-budget insertion must evict every other recording and survive itself")
			}
			f.wantTotal(500)
		}},
		{"file budget evicts the LRU dataset whole, never the one being requested", func(t *testing.T) {
			const ov = fileEntryOverhead
			f := newFakes(t, 3*ov+100)
			st := fileStamp{size: 10, modNano: 1}
			da, db, dc := f.a.observe("/g/a.el", st), f.a.observe("/g/b.el", st), f.a.observe("/g/c.el", st)
			aGraph, aRec, bGraph := key(da, kindWorkload, ""), key(da, kindRecording, "PR"), key(db, kindWorkload, "")
			f.put(aGraph, 1, 60)
			f.put(aRec, 2, 10)
			f.put(bGraph, 3, 30)
			f.wantTotal(3*ov + 100)
			f.a.observe("/g/a.el", st) // a request for a: b's slot is now the least recent
			f.put(key(dc, kindWorkload, ""), 5, 50)
			if f.a.ready(bGraph) || !f.a.ready(aGraph) || !f.a.ready(aRec) {
				t.Fatal("b (least recently requested) should be the only dataset evicted")
			}
			f.wantTotal(2*ov + 120) // b's bytes AND its slot are gone
			cBig := artifactKey{ds: dc, kind: kindWorkload, reorder: "DBG"}
			f.put(cBig, 6, 10*ov) // over budget alone: evicts a's recording, then a, and stays
			if f.a.ready(aGraph) || f.a.ready(aRec) || !f.a.ready(cBig) {
				t.Fatal("an over-budget dataset must evict every other file dataset and survive itself")
			}
			f.wantTotal(11*ov + 50)
			f.a.observe("/g/d.el", st) // merely knowing a new path is charged, and budget-checked
			f.wantTotal(ov)
		}},
		{"a file-backed graph and a synthetic recording compete under one budget", func(t *testing.T) {
			const ov = fileEntryOverhead
			f := newFakes(t, ov+100)
			st := fileStamp{size: 10, modNano: 1}
			da := f.a.observe("/g/a.el", st)
			aGraph := key(da, kindWorkload, "")
			ljPR, ljBFS := key(lj, kindRecording, "PR"), key(lj, kindRecording, "BFS")
			f.put(aGraph, 1, 60)
			f.put(ljPR, 2, 30)
			f.wantTotal(ov + 90)
			f.put(ljBFS, 3, 30) // a's slot is older than either recording: the file goes whole
			if f.a.ready(aGraph) || !f.a.ready(ljPR) || !f.a.ready(ljBFS) {
				t.Fatal("a recording must evict a file dataset whose slot is least recent")
			}
			f.wantTotal(60)
			da = f.a.observe("/g/a.el", st) // requested again: its slot is now the most recent
			f.put(key(da, kindWorkload, ""), 4, 60)
			if !f.a.ready(key(da, kindWorkload, "")) || f.a.ready(ljPR) || !f.a.ready(ljBFS) {
				t.Fatal("a file graph must evict the least recent recording, and only it")
			}
			f.wantTotal(ov + 90)
		}},
		{"a stream of distinct paths, parsed or not, converges to the budget", func(t *testing.T) {
			const ov = fileEntryOverhead
			f := newFakes(t, 4*ov)
			st := fileStamp{size: 10, modNano: 1}
			for i := 0; i < 64; i++ {
				k := key(f.a.observe(fmt.Sprintf("/g/%d.el", i), st), kindWorkload, "")
				if i%2 == 0 {
					f.put(k, i, ov/2)
					continue
				}
				// A parse failure: cached (a workload is not transient) and
				// uncharged, so only the path's slot bounds it.
				if _, err := get(context.Background(), f.a, k, func() (int, int64, error) {
					return 0, 0, errBoom
				}); !errors.Is(err, errBoom) {
					t.Fatalf("path %d: err = %v", i, err)
				}
			}
			got, live := f.a.CacheBytesRetained(), f.a.liveCharges()
			f.a.mu.Lock()
			files, entries := len(f.a.files), len(f.a.m)
			f.a.mu.Unlock()
			if got != live || got > 4*ov || files > 4 || entries > files {
				t.Fatalf("after 64 paths: total %d (live %d, budget %d), %d slots, %d entries; want bounded by the budget",
					got, live, 4*ov, files, entries)
			}
		}},
		{"a stamp advance sweeps every other generation of that file only", func(t *testing.T) {
			f := newFakes(t, -1)
			s1, s2 := fileStamp{10, 100}, fileStamp{10, 200}
			a1 := f.a.observe("/g/a.el", s1)
			other := f.a.observe("/g/a.el2", s1) // shares a's name as a prefix
			a1Keys := []artifactKey{key(a1, kindWorkload, ""), key(a1, kindRecording, "PR"),
				key(a1, kindResult, "PR"), key(a1, kindSampled, "PR"), key(a1, kindCorun, "PR+BFS")}
			for i, k := range a1Keys {
				f.put(k, i, 5)
			}
			otherKey, ljKey := key(other, kindResult, "PR"), key(lj, kindResult, "PR")
			f.put(otherKey, 1, 5)
			f.put(ljKey, 2, 5)
			if d := f.a.observe("/g/a.el", s1); d != a1 {
				t.Fatalf("unchanged file re-keyed: %+v", d)
			}
			for _, k := range a1Keys {
				if !f.a.ready(k) {
					t.Fatal("an unchanged stamp swept its own generation")
				}
			}
			// A stale stat (older mtime) keys under what it saw and sweeps nothing.
			a0 := f.a.observe("/g/a.el", fileStamp{10, 50})
			f.put(key(a0, kindResult, "PR"), 3, 5)
			a2 := f.a.observe("/g/a.el", s2)
			f.put(key(a2, kindResult, "PR"), 4, 5)
			for _, k := range append(a1Keys, key(a0, kindResult, "PR")) {
				if f.a.ready(k) {
					t.Fatalf("generation %+v survived the advance to %+v", k.ds.stamp, s2)
				}
			}
			if !f.a.ready(otherKey) || !f.a.ready(ljKey) || !f.a.ready(key(a2, kindResult, "PR")) {
				t.Fatal("the sweep touched another dataset or the current generation")
			}
			f.wantTotal(2*fileEntryOverhead + 15)
			// Same mtime, different size is an advance too.
			f.a.observe("/g/a.el", fileStamp{11, 200})
			if f.a.ready(key(a2, kindResult, "PR")) {
				t.Fatal("a size change at an unchanged mtime did not sweep")
			}
		}},
		{"an entry evicted in flight is never charged", func(t *testing.T) {
			f := newFakes(t, -1)
			a1 := f.a.observe("/g/a.el", fileStamp{10, 100})
			k := key(a1, kindRecording, "PR")
			entered, gate, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				v, err := get(context.Background(), f.a, k, func() (int, int64, error) {
					close(entered)
					<-gate
					return 9, 5, nil
				})
				if v != 9 || err != nil {
					t.Errorf("the evicted flight's own caller got %d, %v", v, err)
				}
			}()
			<-entered
			f.a.observe("/g/a.el", fileStamp{10, 200})
			close(gate)
			<-done
			if f.a.ready(k) {
				t.Fatal("an entry evicted in flight is still ready after settling")
			}
			f.wantTotal(fileEntryOverhead)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tc.run(t)
		})
	}
}

// TestSessionPanicDoesNotWedgeKey: a non-abort panic inside a transient
// computation (a policy bug; here the trace.replay.chunk failpoint) must
// settle its store entry. Before the single settle path, result replays
// left the in-flight entry in the table with its done channel open, and
// every later request for that datapoint blocked until process exit.
// Not parallel: failpoints are process-global.
func TestSessionPanicDoesNotWedgeKey(t *testing.T) {
	defer fail.Reset()
	s := NewSession(ScaledConfig(64))
	if err := s.Prefetch(matrixPoints([]string{"lj"}, "DBG", []string{"PR"}, []string{"GRASP"})); err != nil {
		t.Fatal(err)
	}
	fail.ArmPanic("trace.replay.chunk", "policy bug")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("armed replay did not panic")
			}
		}()
		_, _ = s.ResultCtx(context.Background(), "lj", "DBG", "PR", apps.LayoutMerged, "LRU")
	}()
	fail.Disarm("trace.replay.chunk")

	want := simRun(t, s.Cfg, "lj", "DBG", "PR", apps.LayoutMerged, "LRU")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		got, err := s.ResultCtx(ctx, "lj", "DBG", "PR", apps.LayoutMerged, "LRU")
		if err != nil {
			t.Errorf("retry after the panic: %v", err)
			return
		}
		if got.AppTime = want.AppTime; got != want {
			t.Errorf("retry after the panic diverges\n got: %+v\nwant: %+v", got, want)
		}
	}()
	select {
	case <-done:
	case <-ctx.Done():
		t.Fatal("the datapoint is wedged: a request after the panic never returned")
	}
}

// TestSessionFileBudgetAccountingExact: the session's one total is
// exactly what its live entries are charged, through evictions. A file
// dataset's recordings used to be charged to two totals and subtracted
// from only one when evicted, so a total grew by one recording per
// re-record until the dataset was evicted early.
func TestSessionFileBudgetAccountingExact(t *testing.T) {
	path := writeLJEdgeList(t)
	s := NewStore(1).Session(ScaledConfig(64)) // every new recording evicts the previous one
	base, err := s.Workload(path, "Identity", false)
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := s.Workload(path, "DBG", false)
	if err != nil {
		t.Fatal(err)
	}
	graphs := base.Graph.Footprint() + dbg.Graph.Footprint()
	// record caches app's recording through lone requests (a batch
	// forgets what it records), evicting the previous one (the requested
	// file's graphs stay), and checks the total three ways. A group whose
	// result is settled is not recorded again by ResultCtx, so the total
	// is read after Recording.
	record := func(app string) int64 {
		t.Helper()
		if _, err := s.ResultCtx(context.Background(), path, "DBG", app, apps.LayoutMerged, "GRASP"); err != nil {
			t.Fatal(err)
		}
		if n := s.art.count(kindRecording); n != 1 {
			t.Fatalf("%d recordings cached after a %s result, want 1", n, app)
		}
		tr, _, err := s.Recording(context.Background(), path, "DBG", app, apps.LayoutMerged)
		if err != nil {
			t.Fatal(err)
		}
		if n := s.art.count(kindRecording); n != 1 {
			t.Fatalf("%d recordings cached after recording %s, want 1", n, app)
		}
		got, live := s.CacheBytesRetained(), s.art.liveCharges()
		if want := graphs + tr.SizeBytes() + fileEntryOverhead; got != want || live != want {
			t.Fatalf("after %s: CacheBytesRetained = %d, live charges = %d, want graphs + %s's recording + overhead = %d",
				app, got, live, app, want)
		}
		return got
	}
	record("PR")
	afterB := record("BFS") // evicts PR's recording
	record("PR")            // evicts BFS's
	if got := record("BFS"); got != afterB {
		t.Fatalf("same cached set, different total: %d then %d (accounting drifts)", afterB, got)
	}
}

// TestSessionFileWeightedWorkloadChargedOutOnly: a file dataset's weighted
// workload keeps only its out-edges, and the store charges exactly those
// bytes — 8(n+1) + 8m, not the two-sided graph the file was parsed into —
// beside the unweighted workload's two-sided footprint.
func TestSessionFileWeightedWorkloadChargedOutOnly(t *testing.T) {
	t.Parallel()
	path := writeLJEdgeList(t)
	s := NewStore(0).Session(ScaledConfig(64))
	w, err := s.Workload(path, "DBG", true)
	if err != nil {
		t.Fatal(err)
	}
	c := w.Graph
	if c.InIndex != nil || c.InEdges != nil || c.InWeights != nil {
		t.Fatalf("weighted file workload keeps an in-edge side: %v", c)
	}
	n, m := int64(c.NumVertices()), int64(c.NumEdges())
	outOnly := 8*(n+1) + 8*m
	if got, want := s.CacheBytesRetained(), outOnly+fileEntryOverhead; got != want {
		t.Fatalf("CacheBytesRetained = %d, want the out-only footprint 8(n+1) + 8m = %d + overhead = %d", got, outOnly, want)
	}
	u, err := s.Workload(path, "DBG", false)
	if err != nil {
		t.Fatal(err)
	}
	twoSided := 16*(n+1) + 8*m
	if got := u.Graph.Footprint(); got != twoSided {
		t.Fatalf("unweighted file workload's Footprint = %d, want 16(n+1) + 8m = %d", got, twoSided)
	}
	if got, want := s.CacheBytesRetained(), outOnly+twoSided+fileEntryOverhead; got != want {
		t.Fatalf("after both workloads CacheBytesRetained = %d, want %d", got, want)
	}
}

// TestSessionFileBudgetKeepsKnownPathsRecording: a request for a graph
// file the store already knows charges nothing, so it does not check the
// budget. It used to: under a budget that the file's workload and one
// recording exceed, every request evicted the very recording it was about
// to replay, then recorded the application again.
func TestSessionFileBudgetKeepsKnownPathsRecording(t *testing.T) {
	t.Parallel()
	path := writeLJEdgeList(t)
	s := NewStore(1).Session(ScaledConfig(64))
	var first *trace.Trace
	var record float64
	for i := 0; i < 3; i++ {
		tr, _, err := s.Recording(context.Background(), path, "DBG", "PR", apps.LayoutMerged)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first, record = tr, s.PhaseSeconds()["record"]
			continue
		}
		if tr != first {
			t.Fatalf("request %d was served a new recording: its path's request evicted the cached one", i+1)
		}
		if got := s.PhaseSeconds()["record"]; got != record {
			t.Fatalf("request %d recorded again (record phase %.3fs -> %.3fs)", i+1, record, got)
		}
	}
}

// writeLJEdgeList writes lj at scale 64 as an edge-list file and returns
// its path.
func writeLJEdgeList(t *testing.T) string {
	t.Helper()
	lj, err := graph.DatasetByName("lj")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, lj.Generate(false, 64)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lj.el")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSharedStoreScalesNeverShare: sessions of two scales over one store
// share its budget and never an entry. Synthetic datasets key by name, so
// without the session's Config in every key a scale-64 request would be
// served the scale-16 graph, recording or result (or the reverse).
func TestSharedStoreScalesNeverShare(t *testing.T) {
	t.Run("interleaved", func(t *testing.T) {
		st := NewStore(0)
		shared := []*Session{st.Session(ScaledConfig(64)), st.Session(ScaledConfig(16))}
		alone := []*Session{NewSession(ScaledConfig(64)), NewSession(ScaledConfig(16))}
		ctx := context.Background()
		for i, c := range []struct{ ds, app, policy string }{
			{"lj", "PR", "GRASP"}, {"kr", "SSSP", "RRIP"}, {"lj", "SSSP", "LRU"}, {"kr", "PR", "Hawkeye"},
		} {
			for _, j := range []int{i % 2, 1 - i%2} { // each scale goes first in turn
				s, ref := shared[j], alone[j]
				w, err := s.Workload(c.ds, "DBG", c.app == "SSSP")
				if err != nil {
					t.Fatal(err)
				}
				wantW, err := ref.Workload(c.ds, "DBG", c.app == "SSSP")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(w.Graph, wantW.Graph) {
					t.Errorf("scale %d %s workload: %d vertices, want the alone session's %d",
						s.Cfg.ScaleDiv, c.ds, w.Graph.NumVertices(), wantW.Graph.NumVertices())
				}
				r, err := s.ResultCtx(ctx, c.ds, "DBG", c.app, apps.LayoutMerged, c.policy)
				if err != nil {
					t.Fatal(err)
				}
				wantR, err := ref.ResultCtx(ctx, c.ds, "DBG", c.app, apps.LayoutMerged, c.policy)
				if err != nil {
					t.Fatal(err)
				}
				if r.AppTime = wantR.AppTime; r != wantR {
					t.Errorf("scale %d %s/%s/%s result\n got: %+v\nwant: %+v", s.Cfg.ScaleDiv, c.ds, c.app, c.policy, r, wantR)
				}
				sr, err := s.SampledResultCtx(ctx, c.ds, "DBG", c.app, apps.LayoutMerged, c.policy, 4)
				if err != nil {
					t.Fatal(err)
				}
				wantS, err := ref.SampledResultCtx(ctx, c.ds, "DBG", c.app, apps.LayoutMerged, c.policy, 4)
				if err != nil {
					t.Fatal(err)
				}
				if sr.AppTime = wantS.AppTime; !reflect.DeepEqual(sr, wantS) {
					t.Errorf("scale %d %s/%s/%s sampled\n got: %+v\nwant: %+v", s.Cfg.ScaleDiv, c.ds, c.app, c.policy, sr, wantS)
				}
			}
		}
	})
	t.Run("fig5-golden", func(t *testing.T) {
		if testing.Short() {
			t.Skip("golden rendering skipped in -short mode")
		}
		st := NewStore(0)
		s16, s64 := st.Session(ScaledConfig(16)), st.Session(ScaledConfig(goldenScaleDiv))
		// The scale-16 session leaves graphs, recordings and results under
		// fig5's datasets, reordering and apps before scale 64 asks.
		for _, ds := range highSkewNames() {
			if _, err := s16.Workload(ds, "DBG", true); err != nil {
				t.Fatal(err)
			}
			if _, err := s16.Result(ds, "DBG", "PR", apps.LayoutMerged, "RRIP"); err != nil {
				t.Fatal(err)
			}
		}
		e, err := ByID("fig5")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Run(context.Background(), s64, e, &buf, nil); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(goldenPath("fig5"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("fig5 through a store shared with scale 16 diverges from its golden\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
		}
	})
}
