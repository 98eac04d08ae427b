package jobs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"grasp/internal/fail"
)

// waitDone blocks until the job settles, with a generous bound so a hung
// cancellation point fails the test instead of the whole suite.
func waitDone(t *testing.T, j *Job, within time.Duration) Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(within):
		t.Fatalf("job %s did not settle within %v (state %s)", j.ID, within, j.Status().State)
	}
	return j.Status()
}

// TestPanicContainment: a panic inside job execution (a policy bug, a
// corrupt input) fails THAT job — error message carrying the panic and a
// stack — while the daemon keeps serving subsequent jobs.
func TestPanicContainment(t *testing.T) {
	defer fail.Reset()
	m := newTestManager(t, 1)

	fail.ArmPanic("jobs.execute", "simulated policy bug")
	j, _, err := m.Submit(tinySpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j, time.Minute)
	if st.State != StateFailed {
		t.Fatalf("panicking job state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "simulated policy bug") || !strings.Contains(st.Error, "goroutine") {
		t.Errorf("panic error lacks message or stack:\n%s", st.Error)
	}
	if got := m.Metrics().Panics; got != 1 {
		t.Errorf("panics metric = %d, want 1", got)
	}
	if m.Result(j.Hash) != nil {
		t.Error("panicked job stored an outcome")
	}

	// The worker survived: the next job (same spec — nothing was cached)
	// runs to completion.
	fail.Reset()
	j2, disp, err := m.Submit(tinySpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if disp != Queued {
		t.Fatalf("post-panic resubmit disposition = %v, want queued", disp)
	}
	if st := waitDone(t, j2, time.Minute); st.State != StateDone {
		t.Fatalf("post-panic job failed: %s", st.Error)
	}
}

// TestStorePutFailureDegrades: a full/failing disk on the outcome write
// does not fail the job — the result still serves from the in-memory
// index — but the manager reports degraded persistence.
func TestStorePutFailureDegrades(t *testing.T) {
	defer fail.Reset()
	m := newTestManager(t, 1)
	fail.Arm("store.put", nil)
	j, _, err := m.Submit(tinySpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j, time.Minute)
	if st.State != StateDone {
		t.Fatalf("job with failing store write: state %s (%s), want done", st.State, st.Error)
	}
	if m.Result(j.Hash) == nil {
		t.Error("outcome not served from memory after store write failure")
	}
	if !m.Degraded() {
		t.Error("manager not degraded after store write failure")
	}
	if got := m.Metrics().StoreErrors; got == 0 {
		t.Error("storeErrors metric is zero after injected store failure")
	}
}

// TestTraceFaultFailsOnlyJob: a transient fault reading a recording back
// (an I/O error, injected where every replay passes each chunk) fails the
// job, and only it — nothing is stored under its hash, and the same spec
// succeeds once the fault clears, because the failed replay was not
// cached. Every full-fidelity result is the replay of a recording, so a
// cold kind:single job fails exactly like a multi-policy experiment.
func TestTraceFaultFailsOnlyJob(t *testing.T) {
	for name, spec := range map[string]Spec{
		"experiment": {Kind: KindExperiment, Exp: "fig9", Scale: 256},
		"single":     tinySpec(),
	} {
		t.Run(name, func(t *testing.T) {
			defer fail.Reset()
			m := newTestManager(t, 1)

			fail.Arm("trace.replay.chunk", nil)
			j, _, err := m.Submit(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			st := waitDone(t, j, time.Minute)
			if st.State != StateFailed || !strings.Contains(st.Error, fail.ErrInjected.Error()) {
				t.Fatalf("trace-fault job: state %s error %q, want failed with the injected fault", st.State, st.Error)
			}
			if fail.Hits("trace.replay.chunk") == 0 {
				t.Fatal("replay failpoint never fired; the test exercised nothing")
			}
			if m.Result(j.Hash) != nil {
				t.Fatal("failed job left an outcome under its hash")
			}

			fail.Reset()
			j2, disp, err := m.Submit(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			if disp != Queued {
				t.Fatalf("resubmit after trace fault: disposition %v, want queued (nothing cached)", disp)
			}
			if st := waitDone(t, j2, 2*time.Minute); st.State != StateDone {
				t.Fatalf("resubmit after the fault cleared failed: %s", st.Error)
			}
		})
	}
}

// TestCancelQueuedJob: cancelling a job that never started settles it
// immediately with ErrCanceled; repeat cancels and unknown IDs are safe.
func TestCancelQueuedJob(t *testing.T) {
	m := idleManager(t) // no workers: the job stays queued
	j, _, err := m.Submit(tinySpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.Cancel(j.ID)
	if got != j || !ok {
		t.Fatalf("Cancel(queued) = (%v, %v), want (job, true)", got, ok)
	}
	st := waitDone(t, j, time.Minute)
	if st.State != StateFailed || st.Error != ErrCanceled.Error() {
		t.Fatalf("cancelled queued job: state %s error %q", st.State, st.Error)
	}
	if _, ok := m.Cancel(j.ID); ok {
		t.Error("second Cancel on a settled job reported success")
	}
	if got, ok := m.Cancel("j999999"); got != nil || ok {
		t.Error("Cancel of an unknown ID did not report unknown")
	}
	if got := m.Metrics().Canceled; got != 1 {
		t.Errorf("canceled metric = %d, want 1", got)
	}
	// The dedup slot was released: the same spec is accepted as new work.
	if _, disp, err := m.Submit(tinySpec(), 0); err != nil || disp != Queued {
		t.Errorf("resubmit after cancel: disp=%v err=%v, want queued", disp, err)
	}
	m.q.Close()
}

// TestCancelRunningJob: a running experiment is preempted at its next
// cancellation point — it settles promptly as canceled and stores nothing
// under its hash.
func TestCancelRunningJob(t *testing.T) {
	m := newTestManager(t, 2)
	// fig2 at 1/64 scale runs for seconds — long enough to catch running.
	j, _, err := m.Submit(Spec{Kind: KindExperiment, Exp: "fig2", Scale: 64}, 0)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for j.Status().State == StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := m.Cancel(j.ID); !ok {
		t.Fatalf("Cancel(running) rejected; state now %s", j.Status().State)
	}
	// Cancellation points are one trace chunk / one datapoint apart; 30s is
	// orders of magnitude more than a chunk takes, so a miss here means a
	// loop is not honoring its context.
	st := waitDone(t, j, 30*time.Second)
	if st.State != StateFailed || st.Error != ErrCanceled.Error() {
		t.Fatalf("cancelled running job: state %s error %q", st.State, st.Error)
	}
	if m.Result(j.Hash) != nil {
		t.Error("cancelled job persisted an outcome")
	}
}

// TestCancelCorunExperimentAfterSoloCells: an experiment job's progress
// and cancellation span every cell it declares. A corun job whose solo
// baselines are all simulated has its co-run cells still ahead: its
// progress reads about half, and a cancel settles it failed with
// ErrCanceled, not done.
func TestCancelCorunExperimentAfterSoloCells(t *testing.T) {
	m := newTestManager(t, 1)
	spec := Spec{Kind: KindExperiment, Exp: "corun", Scale: 64}
	j, _, err := m.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	const solo = 400 // 4 kernels x 5 datasets x 20 policies
	s := m.sessionFor(spec.Scale)
	deadline := time.Now().Add(2 * time.Minute)
	for s.SimRuns() < solo {
		if time.Now().After(deadline) || j.Status().State == StateDone || j.Status().State == StateFailed {
			t.Fatalf("job never finished its solo cells: state %s, SimRuns %d", j.Status().State, s.SimRuns())
		}
		time.Sleep(time.Millisecond)
	}
	if p := j.Status().Progress; p >= 0.6 {
		t.Errorf("progress %.3f with every co-run cell still ahead, want about 0.5", p)
	}
	if _, ok := m.Cancel(j.ID); !ok {
		t.Fatalf("Cancel rejected; state now %s", j.Status().State)
	}
	st := waitDone(t, j, 30*time.Second)
	if st.State != StateFailed || st.Error != ErrCanceled.Error() {
		t.Fatalf("cancelled corun job: state %s error %q, want failed with %q", st.State, st.Error, ErrCanceled)
	}
	if got := s.CorunRuns(); got >= 400 {
		t.Errorf("cancelled job still computed all %d co-run cells", got)
	}
}

// TestJobTimeout: a per-spec wall-clock budget preempts the job with
// ErrTimeout.
func TestJobTimeout(t *testing.T) {
	m := newTestManager(t, 1)
	spec := Spec{Kind: KindExperiment, Exp: "fig2", Scale: 64, TimeoutS: 0.05}
	j, _, err := m.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j, 30*time.Second)
	if st.State != StateFailed || st.Error != ErrTimeout.Error() {
		t.Fatalf("timed-out job: state %s error %q, want %q", st.State, st.Error, ErrTimeout)
	}
}

// TestQueueShedding: with a depth limit, genuinely new work is shed with
// ErrOverloaded while cache hits and dedup joins still land.
func TestQueueShedding(t *testing.T) {
	m := idleManager(t) // no workers: the queue only grows
	m.SetQueueLimit(1)
	first, disp, err := m.Submit(tinySpec(), 0)
	if err != nil || disp != Queued {
		t.Fatalf("first submit: disp=%v err=%v", disp, err)
	}
	if !m.Overloaded() {
		t.Error("Overloaded() false at the queue limit")
	}
	other := tinySpec()
	other.App = "BFS"
	if _, _, err := m.Submit(other, 0); err != ErrOverloaded {
		t.Fatalf("submit beyond limit returned %v, want ErrOverloaded", err)
	}
	// A duplicate of queued work consumes no slot and must not be shed.
	if j, disp, err := m.Submit(tinySpec(), 0); err != nil || disp != Deduped || j != first {
		t.Errorf("dedup join while overloaded: job=%v disp=%v err=%v", j, disp, err)
	}
	if got := m.Metrics().Shed; got != 1 {
		t.Errorf("shed metric = %d, want 1", got)
	}
	m.q.Close()
}

// TestCrashRecoveryRoundTrip is the journal's reason to exist: a daemon
// accepts work, dies without settling it, and the next boot re-enqueues
// and finishes it from the journal alone.
func TestCrashRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()

	// Boot 1: accept a job, then "crash" — the manager is abandoned with
	// the job still queued (no workers), exactly as SIGKILL would leave it.
	jn1, pending, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh journal reports %d pending jobs", len(pending))
	}
	store1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := &Manager{
		store: store1, workers: 1, q: newQueue(),
		byID: make(map[string]*Job), byHash: make(map[string]*Job),
	}
	m1.UseJournal(jn1, nil)
	j, disp, err := m1.Submit(tinySpec(), 2)
	if err != nil || disp != Queued {
		t.Fatalf("submit: disp=%v err=%v", disp, err)
	}
	jn1.Close()

	// Boot 2: recovery finds the unsettled submission and runs it.
	jn2, pending, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].Hash != j.Hash || pending[0].Priority != 2 {
		t.Fatalf("recovered pending = %+v, want the crashed job (hash %s, prio 2)", pending, j.Hash)
	}
	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(store2, 1)
	if n := m2.UseJournal(jn2, pending); n != 1 {
		t.Fatalf("UseJournal requeued %d jobs, want 1", n)
	}
	if got := m2.Metrics().Requeued; got != 1 {
		t.Errorf("requeued metric = %d, want 1", got)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for m2.Result(j.Hash) == nil {
		if time.Now().After(deadline) {
			t.Fatal("recovered job never produced a stored outcome")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	m2.Shutdown(ctx)
	jn2.Close()

	// Boot 3: the settled job compacted away — recovery is empty.
	jn3, pending, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	jn3.Close()
	if len(pending) != 0 {
		t.Fatalf("after completion the journal still reports %d pending jobs", len(pending))
	}
}

// TestRecoverySettlesStoredWork: a crash between the outcome's store write
// and the journal's settle record must not re-run the job — recovery sees
// the stored result and settles the journal instead.
func TestRecoverySettlesStoredWork(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()
	if err := spec.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	_, hash, err := spec.identityAndHash()
	if err != nil {
		t.Fatal(err)
	}

	jn1, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn1.Submitted(hash, spec, 0); err != nil {
		t.Fatal(err)
	}
	jn1.Close()
	store1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store1.Put(&Outcome{Hash: hash, Spec: spec, Output: "done before the crash"}); err != nil {
		t.Fatal(err)
	}

	jn2, pending, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 {
		t.Fatalf("pending = %d, want 1", len(pending))
	}
	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(store2, 1)
	if n := m.UseJournal(jn2, pending); n != 0 {
		t.Fatalf("UseJournal requeued %d jobs for already-stored work, want 0", n)
	}
	if m.Metrics().Executed != 0 {
		t.Error("recovery re-simulated stored work")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	m.Shutdown(ctx)
	jn2.Close()

	jn3, pending, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	jn3.Close()
	if len(pending) != 0 {
		t.Fatalf("journal still pending after recovery settled stored work: %+v", pending)
	}
}

// TestConcurrentCancelSettleDedup is the -race hammer the CI chaos step
// runs: many goroutines submitting one spec while others cancel it, so
// cancel-vs-pop, cancel-vs-settle and dedup-join-vs-settle interleavings
// all get exercised. Every caller must observe a terminal state; nothing
// may deadlock or double-settle (a double close of done would panic).
func TestConcurrentCancelSettleDedup(t *testing.T) {
	m := newTestManager(t, 2)
	const goroutines = 8
	const iters = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				j, _, err := m.Submit(tinySpec(), 0)
				if err != nil {
					t.Error(err)
					return
				}
				if (g+i)%3 == 0 {
					m.Cancel(j.ID)
				}
				select {
				case <-j.Done():
				case <-time.After(2 * time.Minute):
					t.Errorf("goroutine %d iter %d: job %s never settled", g, i, j.ID)
					return
				}
				if st := j.Status(); st.State != StateDone && st.State != StateFailed {
					t.Errorf("settled job in state %s", st.State)
				}
			}
		}(g)
	}
	wg.Wait()
	// With the cancellers gone, the spec must still be computable: either a
	// surviving run already stored it, or one clean execution does now.
	j, _, err := m.Submit(tinySpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, j, 2*time.Minute); st.State != StateDone {
		t.Fatalf("post-hammer submit failed: %s", st.Error)
	}
}

// TestQueueRemove: Remove takes a queued job out exactly once and reports
// whether it did — the ownership handshake Cancel relies on.
func TestQueueRemove(t *testing.T) {
	q := newQueue()
	a, b, c := &Job{ID: "a"}, &Job{ID: "b", Priority: 1}, &Job{ID: "c"}
	q.Push(a)
	q.Push(b)
	q.Push(c)
	if !q.Remove(b) {
		t.Fatal("Remove of a queued job returned false")
	}
	if q.Remove(b) {
		t.Fatal("second Remove of the same job returned true")
	}
	if got := q.Pop(); got != a {
		t.Errorf("popped %s, want a (b was removed, c is FIFO-later)", got.ID)
	}
	if q.Remove(a) {
		t.Error("Remove of an already-popped job returned true")
	}
	if got := q.Pop(); got != c {
		t.Errorf("popped %s, want c", got.ID)
	}
	q.Close()
}
