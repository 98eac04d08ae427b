package jobs

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"grasp/internal/fail"
)

// TestPlacementKeyPinned holds the cluster's cache affinity still: the key
// string decides which node loads, reorders and records a workload, so a
// refactor that changes it reshuffles every deployed cluster's warm
// sessions. Three literal pairs pin the rendering; the table after them
// pins what the key may and may not depend on.
func TestPlacementKeyPinned(t *testing.T) {
	file := filepath.Join(t.TempDir(), "tri.el")
	if err := os.WriteFile(file, []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	key := func(s Spec) string {
		t.Helper()
		if err := s.Canonicalize(); err != nil {
			t.Fatal(err)
		}
		k, err := s.PlacementKey()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{tinySpec(),
			"workload:name:uni;kind=2;n=131072;deg=20;alpha=0;rmat=0;seed=119;scale=256;reorder=DBG;weighted=false"},
		{Spec{Kind: KindSingle, Graph: "lj", App: "SSSP", Policy: "LRU", Reorder: "Gorder+DBG", Scale: 64},
			"workload:name:lj;kind=0;n=131072;deg=14;alpha=0.95;rmat=0;seed=17;scale=64;reorder=Gorder+DBG;weighted=true"},
		{Spec{Kind: KindSingle, Graph: file, App: "BFS", Fidelity: FidelitySampled},
			"workload:file:b2d516ac2fbfdf330a3807ea2448b0f4c0e9f82abd7a9eefdb1522aa364ec48e;scale=1;reorder=DBG;weighted=false"},
	} {
		if got := key(c.spec); got != c.want {
			t.Errorf("PlacementKey(%+v)\n got %q\nwant %q", c.spec, got, c.want)
		}
	}

	base := key(tinySpec())
	for name, c := range map[string]struct {
		edit   func(*Spec)
		shares bool
	}{
		"policy":       {func(s *Spec) { s.Policy = "LRU" }, true},
		"app":          {func(s *Spec) { s.App = "BFS" }, true},
		"fidelity":     {func(s *Spec) { s.Fidelity = FidelitySampled }, true},
		"sample_k":     {func(s *Spec) { s.Fidelity, s.SampleK = FidelitySampled, 4 }, true},
		"corun":        {func(s *Spec) { s.CorunApps = []string{"BFS"} }, true},
		"timeout":      {func(s *Spec) { s.TimeoutS = 3 }, true},
		"scale":        {func(s *Spec) { s.Scale = 128 }, false},
		"reorder":      {func(s *Spec) { s.Reorder = "Sort" }, false},
		"graph":        {func(s *Spec) { s.Graph = "lj" }, false},
		"weightedness": {func(s *Spec) { s.App = "SSSP" }, false},
	} {
		s := tinySpec()
		c.edit(&s)
		if got := key(s) == base; got != c.shares {
			t.Errorf("%s: shares the base spec's key = %v, want %v", name, got, c.shares)
		}
	}
}

// bare strips what a placed run leaves to the hash owner and what differs
// from run to run, so outcomes compare field for field.
func bare(o *Outcome) Outcome {
	c := *o
	c.Hash, c.Spec, c.Elapsed, c.Finished = "", Spec{}, 0, time.Time{}
	if c.Single != nil {
		r := *c.Single
		r.AppTime = 0
		c.Single = &r
	}
	return c
}

// TestExecutePlaced: a placed run produces what the job would have and
// leaves no trace of a job behind — and it keeps a job's guards.
func TestExecutePlaced(t *testing.T) {
	spec := tinySpec()
	if err := spec.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	t.Run("not a job", func(t *testing.T) {
		m := newTestManager(t, 1)
		got, err := m.ExecutePlaced(ctx, spec, hash)
		if err != nil {
			t.Fatal(err)
		}
		mt := m.Metrics()
		if mt.Submitted+mt.Executed+mt.Completed != 0 || mt.StoredOutcomes != 0 || m.Result(hash) != nil {
			t.Errorf("placed run left a job behind: %+v", mt)
		}
		if mt.SimRuns != 1 {
			t.Errorf("sim runs = %d, want 1", mt.SimRuns)
		}
		j, _, err := newTestManager(t, 1).Submit(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitDone(t, j, time.Minute); st.State != StateDone {
			t.Fatal(st.Error)
		}
		if want := bare(j.Outcome()); !reflect.DeepEqual(bare(got), want) {
			t.Errorf("placed outcome %+v\nwant the job's %+v", bare(got), want)
		}
	})

	t.Run("never places again", func(t *testing.T) {
		m := newTestManager(t, 1)
		m.SetPlacer(func(context.Context, string, Spec, string) (*Outcome, bool, error) {
			t.Error("a placed run consulted the placer")
			return nil, false, nil
		})
		if _, err := m.ExecutePlaced(ctx, spec, hash); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("hash it cannot reproduce", func(t *testing.T) {
		m := newTestManager(t, 1)
		if _, err := m.ExecutePlaced(ctx, spec, strings.Repeat("0", 64)); !errors.Is(err, ErrNotReproducible) {
			t.Fatalf("under an address the spec does not hash to: %v, want ErrNotReproducible", err)
		}
		bad := spec
		bad.Scale = 3 // no cache hierarchy indexes it: Canonicalize refuses
		if _, err := m.ExecutePlaced(ctx, bad, hash); !errors.Is(err, ErrNotReproducible) {
			t.Fatalf("a spec that does not canonicalize: %v, want ErrNotReproducible", err)
		}
		if got := m.Metrics().SimRuns; got != 0 {
			t.Errorf("sim runs = %d, want 0", got)
		}
	})

	t.Run("panic barrier", func(t *testing.T) {
		defer fail.Reset()
		m := newTestManager(t, 1)
		fail.ArmPanic("jobs.execute", "simulated policy bug")
		_, err := m.ExecutePlaced(ctx, spec, hash)
		if err == nil || !strings.Contains(err.Error(), "simulated policy bug") {
			t.Fatalf("err = %v, want the contained panic", err)
		}
		if got := m.Metrics().Panics; got != 1 {
			t.Errorf("panics = %d, want 1", got)
		}
	})

	t.Run("backlog bounded, waiter cancellable", func(t *testing.T) {
		m := newTestManager(t, 1)
		m.SetQueueLimit(1)
		m.placeSem <- struct{}{} // the one slot is busy
		wctx, cancel := context.WithCancelCause(ctx)
		waiter := make(chan error, 1)
		go func() {
			_, err := m.ExecutePlaced(wctx, spec, hash)
			waiter <- err
		}()
		for m.placeWaiting.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		if _, err := m.ExecutePlaced(ctx, spec, hash); !errors.Is(err, ErrOverloaded) {
			t.Errorf("run beyond the queue limit returned %v, want ErrOverloaded", err)
		}
		cancel(ErrCanceled)
		if err := <-waiter; !errors.Is(err, ErrCanceled) {
			t.Errorf("cancelled waiter returned %v, want ErrCanceled", err)
		}
		<-m.placeSem
		if got := m.Metrics().SimRuns; got != 0 {
			t.Errorf("sim runs = %d, want 0", got)
		}
	})

	t.Run("drain", func(t *testing.T) {
		m := newTestManager(t, 1)
		m.placeSem <- struct{}{}
		waiter := make(chan error, 1)
		go func() {
			_, err := m.ExecutePlaced(ctx, spec, hash)
			waiter <- err
		}()
		for m.placeWaiting.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		// The drain deadline has already passed: Shutdown preempts at once,
		// and must not return before the admitted run has unwound.
		expired, cancel := context.WithCancel(ctx)
		cancel()
		if err := m.Shutdown(expired); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		if m.placeWaiting.Load() != 0 {
			t.Fatal("Shutdown returned while a placed run was still admitted")
		}
		if err := <-waiter; !errors.Is(err, ErrDraining) {
			t.Errorf("preempted run returned %v, want ErrDraining", err)
		}
		if _, err := m.ExecutePlaced(ctx, spec, hash); !errors.Is(err, ErrDraining) {
			t.Errorf("run after Shutdown returned %v, want ErrDraining", err)
		}
	})
}

// TestPlacedRunPreemptedMidSimulation: the drain deadline reaches a placed
// run that is already simulating, through the same context a job's does.
func TestPlacedRunPreemptedMidSimulation(t *testing.T) {
	m := newTestManager(t, 1)
	spec := Spec{Kind: KindSingle, Graph: "lj", Scale: 16}
	if err := spec.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.ExecutePlaced(context.Background(), spec, hash)
		done <- err
	}()
	for len(m.placeSem) == 0 {
		time.Sleep(time.Millisecond)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Shutdown(expired); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if len(m.placeSem) != 0 {
		t.Fatal("Shutdown returned while a placed run was still simulating")
	}
	if err := <-done; !errors.Is(err, ErrDraining) {
		t.Fatalf("preempted run returned %v, want ErrDraining", err)
	}
	if mt := m.Metrics(); mt.SimRuns != 0 || mt.CacheBytesRetained != 0 {
		t.Errorf("preempted run published: %d sim runs, %d cache bytes retained", mt.SimRuns, mt.CacheBytesRetained)
	}
}
