package jobs

import (
	"bytes"
	"container/heap"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"grasp/internal/exp"
	"grasp/internal/graph"
)

// tinySpec is a spec small enough to simulate in milliseconds (512-vertex
// synthetic dataset, hierarchy scaled to match).
func tinySpec() Spec {
	return Spec{Kind: KindSingle, Graph: "uni", App: "PR", Policy: "GRASP", Scale: 256}
}

// newTestManager returns a running manager over a fresh temp store.
func newTestManager(t *testing.T, workers int) *Manager {
	t.Helper()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(store, workers)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

// idleManager builds a manager with NO worker goroutines, so queue and
// dedup behavior can be asserted deterministically; the test drives
// workers by hand via runWorkers.
func idleManager(t *testing.T) *Manager {
	t.Helper()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return &Manager{
		store:    store,
		workers:  1,
		q:        newQueue(),
		cache:    exp.NewStore(0),
		sessions: make(map[uint32]*exp.Session),
		byID:     make(map[string]*Job),
		byHash:   make(map[string]*Job),
	}
}

// runWorkers drains an idleManager's queue with n hand-started workers
// and waits for them to exit.
func runWorkers(m *Manager, n int) {
	for i := 0; i < n; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	for m.q.Depth() > 0 {
		time.Sleep(time.Millisecond)
	}
	m.q.Close()
	m.wg.Wait()
}

// TestInFlightDedup: a second identical submission while the first is
// still queued joins it — same job ID, one execution, one shared result.
func TestInFlightDedup(t *testing.T) {
	m := idleManager(t)
	a, dispA, err := m.Submit(tinySpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if dispA != Queued {
		t.Fatalf("first submit disposition = %v, want %v", dispA, Queued)
	}
	b, dispB, err := m.Submit(tinySpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if dispB != Deduped {
		t.Fatalf("second submit disposition = %v, want %v", dispB, Deduped)
	}
	if a != b {
		t.Fatalf("deduped submit returned a different job: %s vs %s", a.ID, b.ID)
	}
	runWorkers(m, 1)
	<-a.Done()
	st := a.Status()
	if st.State != StateDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	if got := m.Metrics(); got.Executed != 1 || got.DedupHits != 1 {
		t.Errorf("executed=%d dedupHits=%d, want 1 and 1", got.Executed, got.DedupHits)
	}
	if a.Outcome() == nil || a.Outcome().Single == nil {
		t.Fatal("completed single job has no metrics")
	}
}

// TestDedupBoostsPriority: a high-priority duplicate joining a queued
// low-priority job raises the shared job's priority and re-sifts the
// queue, so it pops ahead of work submitted earlier at higher priority.
func TestDedupBoostsPriority(t *testing.T) {
	m := idleManager(t) // no workers: both jobs stay queued
	shared, _, err := m.Submit(tinySpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	other := tinySpec()
	other.App = "BFS"
	rival, _, err := m.Submit(other, 3)
	if err != nil {
		t.Fatal(err)
	}
	// At priorities (0, 3) the rival would pop first. The boosted
	// duplicate flips that.
	if j, disp, err := m.Submit(tinySpec(), 5); err != nil || disp != Deduped || j != shared {
		t.Fatalf("duplicate submit: job=%v disp=%v err=%v", j, disp, err)
	}
	if got := shared.Status().Priority; got != 5 {
		t.Errorf("shared job priority = %d, want boosted to 5", got)
	}
	if first := m.q.Pop(); first != shared {
		t.Errorf("popped %s first, want the boosted job %s", first.ID, shared.ID)
	}
	if second := m.q.Pop(); second != rival {
		t.Errorf("popped %s second, want %s", second.ID, rival.ID)
	}
}

// TestTerminalJobRetentionBounded: terminal jobs are pollable by ID only
// up to maxRetainedJobs; older ones are evicted from byID (their outcomes
// stay addressable by hash), so byID cannot grow without bound under
// sustained cache-hit traffic.
func TestTerminalJobRetentionBounded(t *testing.T) {
	m := newTestManager(t, 1)
	first, _, err := m.Submit(tinySpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	<-first.Done()
	if st := first.Status(); st.State != StateDone {
		t.Fatalf("seed job failed: %s", st.Error)
	}
	// Every further submit is a store hit minting a fresh terminal job.
	var second *Job
	for i := 0; i < maxRetainedJobs+8; i++ {
		j, disp, err := m.Submit(tinySpec(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if disp != Cached {
			t.Fatalf("submit %d disposition = %v, want cached", i, disp)
		}
		if second == nil {
			second = j
		}
	}
	if m.Job(first.ID) != nil || m.Job(second.ID) != nil {
		t.Error("oldest terminal jobs were not evicted past the retention cap")
	}
	m.mu.Lock()
	retained := len(m.byID)
	m.mu.Unlock()
	if retained > maxRetainedJobs {
		t.Errorf("byID holds %d jobs, cap is %d", retained, maxRetainedJobs)
	}
	// The work itself is still addressable by content hash.
	if m.Result(first.Hash) == nil {
		t.Error("outcome evicted with the job; hashes must stay addressable")
	}
}

// TestConcurrentDedupSharedResult hammers one spec from many goroutines
// against a live manager: regardless of how submissions interleave with
// execution (in-flight dedup or store hit), exactly one simulation runs
// and every caller observes the same outcome.
func TestConcurrentDedupSharedResult(t *testing.T) {
	m := newTestManager(t, 2)
	const callers = 16
	outcomes := make([]*Outcome, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, _, err := m.Submit(tinySpec(), 0)
			if err != nil {
				t.Error(err)
				return
			}
			<-j.Done()
			outcomes[i] = j.Outcome()
		}(i)
	}
	wg.Wait()
	mt := m.Metrics()
	if mt.Executed != 1 {
		t.Errorf("executed = %d, want exactly 1 for %d identical submissions", mt.Executed, callers)
	}
	if mt.StoreHits+mt.DedupHits != callers-1 {
		t.Errorf("storeHits(%d)+dedupHits(%d) = %d, want %d",
			mt.StoreHits, mt.DedupHits, mt.StoreHits+mt.DedupHits, callers-1)
	}
	for i, o := range outcomes {
		if o == nil || o.Single == nil {
			t.Fatalf("caller %d got no outcome", i)
		}
		if o.Single.LLC.Misses != outcomes[0].Single.LLC.Misses {
			t.Errorf("caller %d saw different metrics", i)
		}
	}
}

// TestEditedFileGraphReSimulates: editing a file-backed graph between
// submissions to a long-lived manager must both move the job to a new
// content address (the spec hash digests file bytes) and re-ingest the
// file (the graph registry memo is mtime-validated), so the new address
// is never paired with the stale parsed graph and persisted forever.
func TestEditedFileGraphReSimulates(t *testing.T) {
	m := newTestManager(t, 1)
	path := filepath.Join(t.TempDir(), "edit.el")
	writeGraph := func(g *graph.CSR) {
		t.Helper()
		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	spec := func() Spec { return Spec{Kind: KindSingle, Graph: path, App: "PR", Scale: 256} }

	writeGraph(graph.GenRMATDefault(6, 4, 13, false))
	j1, disp, err := m.Submit(spec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if disp != Queued {
		t.Fatalf("first submit disposition = %v, want %v", disp, Queued)
	}
	<-j1.Done()
	if st := j1.Status(); st.State != StateDone {
		t.Fatalf("first job failed: %s", st.Error)
	}
	retained := m.Metrics().CacheBytesRetained
	if retained <= 0 {
		t.Errorf("CacheBytesRetained = %d after a file-graph job, want the session's retained graphs and recording", retained)
	}

	// Replace the file with a 4x larger graph; the future mtime defeats
	// coarse filesystem timestamps in both the digest memo and the
	// session's file stamp.
	writeGraph(graph.GenRMATDefault(8, 4, 13, false))
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	j2, disp, err := m.Submit(spec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if disp != Queued {
		t.Fatalf("post-edit submit disposition = %v, want %v (new content address)", disp, Queued)
	}
	if j2.Hash == j1.Hash {
		t.Fatal("edited file kept its content address")
	}
	<-j2.Done()
	if st := j2.Status(); st.State != StateDone {
		t.Fatalf("post-edit job failed: %s", st.Error)
	}
	a1 := j1.Outcome().Single.L1.Accesses()
	a2 := j2.Outcome().Single.L1.Accesses()
	if a2 <= a1 {
		t.Errorf("post-edit run traced %d accesses vs %d before: stale graph simulated under the new hash", a2, a1)
	}
}

// TestCacheBudgetSpansScales: one SetCacheBudget bounds every scale's
// recordings together. Cold jobs at two scales, interleaved, each leave
// one recording (synthetic graphs are never charged); after every job the
// manager's retained bytes stay within the budget plus the largest single
// recording (the over-budget survivor of its own insertion). Each scale's
// recordings alone sum past budget + largest, so with a budget per scale
// the two together would settle above 2 x budget - 2 x largest — past the
// bound, since the budget is four recordings.
func TestCacheBudgetSpansScales(t *testing.T) {
	var specs []Spec
	for _, app := range []string{"BC", "SSSP", "PR", "PRD", "Radii"} {
		for _, g := range []string{"lj", "kr", "uni"} {
			for _, scale := range []uint32{128, 256} {
				if g == "uni" && scale == 128 {
					continue // the largest recordings; keep the bound tight
				}
				specs = append(specs, Spec{Kind: KindSingle, Graph: g, App: app, Policy: "GRASP", Scale: scale})
			}
		}
	}
	run := func(m *Manager, spec Spec) {
		t.Helper()
		j, _, err := m.Submit(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitDone(t, j, time.Minute); st.State != StateDone {
			t.Fatalf("%+v: %s", spec, st.Error)
		}
	}
	// Each spec's recording, measured alone under the default budget.
	var largest int64
	sum := make(map[uint32]int64)
	for _, spec := range specs {
		m := newTestManager(t, 1)
		run(m, spec)
		b := m.Metrics().CacheBytesRetained
		largest = max(largest, b)
		sum[spec.Scale] += b
	}
	budget := 4 * largest
	for scale, b := range sum {
		if b <= budget+largest {
			t.Fatalf("scale %d records %d bytes in all, not past budget %d + largest %d: the test cannot tell one budget from one per scale",
				scale, b, budget, largest)
		}
	}

	m := newTestManager(t, 1)
	m.SetCacheBudget(budget)
	for _, spec := range specs {
		run(m, spec)
		if got := m.Metrics().CacheBytesRetained; got > budget+largest {
			t.Fatalf("after %s/%s at scale %d: %d bytes retained, want <= budget %d + largest recording %d",
				spec.Graph, spec.App, spec.Scale, got, budget, largest)
		}
	}
}

// TestQueuedJobFailsWhenFileEditedBeforeRun: the spec hash pins a file
// graph's bytes at submit time, but a queued job runs later — if the file
// is edited in between, the job must FAIL rather than persist the edited
// file's metrics under the original bytes' content address.
func TestQueuedJobFailsWhenFileEditedBeforeRun(t *testing.T) {
	m := idleManager(t) // no workers: the job stays queued while we edit
	path := filepath.Join(t.TempDir(), "race.el")
	writeGraph := func(g *graph.CSR) {
		t.Helper()
		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeGraph(graph.GenRMATDefault(6, 4, 13, false))
	j, disp, err := m.Submit(Spec{Kind: KindSingle, Graph: path, App: "PR", Scale: 256}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if disp != Queued {
		t.Fatalf("submit disposition = %v, want %v", disp, Queued)
	}

	writeGraph(graph.GenRMATDefault(8, 4, 13, false))
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}

	runWorkers(m, 1)
	<-j.Done()
	st := j.Status()
	if st.State != StateFailed {
		t.Fatalf("job state = %s, want failed (file changed while queued)", st.State)
	}
	if m.Result(j.Hash) != nil {
		t.Error("outcome for the edited file was persisted under the original content address")
	}
}

// TestStoreRoundTripAcrossManagers: a second manager over the same
// directory serves the first one's work without re-simulating, from bytes
// that hold no region scale.
func TestStoreRoundTripAcrossManagers(t *testing.T) {
	dir := t.TempDir()
	store1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(store1, 1)
	j, _, err := m1.Submit(tinySpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	m1.Shutdown(ctx)

	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if store2.Len() != 1 {
		t.Fatalf("reopened store holds %d outcomes, want 1", store2.Len())
	}
	// A paper-design outcome's bytes are those of a sim.Spec without a
	// region scale: the field is omitted at 0, so no stored outcome moves.
	if raw, _, ok := store2.GetRaw(j.Hash); !ok || bytes.Contains(raw, []byte(`"RegionScale"`)) {
		t.Errorf("stored outcome (found %v) carries a RegionScale key:\n%s", ok, raw)
	}
	m2 := NewManager(store2, 1)
	defer m2.Shutdown(ctx)
	j2, disp, err := m2.Submit(tinySpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if disp != Cached {
		t.Fatalf("restarted manager disposition = %v, want %v", disp, Cached)
	}
	if !j2.Status().Cached || j2.Outcome() == nil {
		t.Fatal("cached job not marked cached / has no outcome")
	}
	if m2.Metrics().Executed != 0 {
		t.Error("restarted manager re-simulated a stored job")
	}
}

// TestQueuePriorityOrder: higher priority pops first; ties are FIFO.
func TestQueuePriorityOrder(t *testing.T) {
	q := newQueue()
	mk := func(id string, prio int) *Job { return &Job{ID: id, Priority: prio} }
	q.Push(mk("low", 0))
	q.Push(mk("high", 5))
	q.Push(mk("mid", 3))
	q.Push(mk("high2", 5))
	var got []string
	for i := 0; i < 4; i++ {
		got = append(got, q.Pop().ID)
	}
	want := []string{"high", "high2", "mid", "low"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
	q.Push(mk("late", 0))
	if pending := q.Close(); len(pending) != 1 || pending[0].ID != "late" {
		t.Errorf("Close returned %v, want the one pending job", pending)
	}
	if q.Pop() != nil {
		t.Error("Pop on a closed queue did not return nil")
	}
	if q.Push(mk("x", 0)) {
		t.Error("Push succeeded on a closed queue")
	}
}

// TestHeapInvariant exercises jobHeap directly against a reference sort.
func TestHeapInvariant(t *testing.T) {
	h := &jobHeap{}
	prios := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	for i, p := range prios {
		heap.Push(h, queued{job: &Job{Priority: p}, seq: uint64(i)})
	}
	last := int(^uint(0) >> 1) // max int
	for h.Len() > 0 {
		it := heap.Pop(h).(queued)
		if it.job.Priority > last {
			t.Fatalf("heap popped priority %d after %d", it.job.Priority, last)
		}
		last = it.job.Priority
	}
}

// TestShutdownDrains: draining fails queued jobs, finishes running ones,
// and rejects new submissions.
func TestShutdownDrains(t *testing.T) {
	m := idleManager(t) // no workers: submissions stay queued
	j, _, err := m.Submit(tinySpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if st := j.Status(); st.State != StateFailed {
		t.Errorf("queued job after drain: state %s, want failed", st.State)
	}
	if _, _, err := m.Submit(tinySpec(), 0); err != ErrDraining {
		t.Errorf("Submit during drain returned %v, want ErrDraining", err)
	}
	if !m.Draining() {
		t.Error("Draining() false after Shutdown")
	}
}

// TestExperimentJobProgress: an experiment job reports monotonically
// plausible progress and returns the rendered body.
func TestExperimentJobProgress(t *testing.T) {
	m := newTestManager(t, 2)
	j, _, err := m.Submit(Spec{Kind: KindExperiment, Exp: "fig2", Scale: 256}, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("experiment job failed: %s", st.Error)
	}
	if st.Progress != 1 {
		t.Errorf("terminal progress = %v, want 1", st.Progress)
	}
	o := j.Outcome()
	if o == nil || o.Output == "" {
		t.Fatal("experiment outcome has no rendered body")
	}
	if o.Single != nil {
		t.Error("experiment outcome carries single-run metrics")
	}
}
