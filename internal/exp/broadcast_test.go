package exp

import (
	"sync"
	"testing"
	"time"

	"grasp/internal/apps"
	"grasp/internal/trace"
)

// TestBroadcastSmoke is the CI assertion that the decode-once broadcast
// path is actually taken for a multi-policy group: one Prefetch batch
// sweeping four policies over one (dataset, reorder, app, layout) group
// must record once, serve every policy through ONE broadcast fan-out, and
// bump both the session counter and the process-wide trace counters the
// graspd /metrics endpoint exports.
func TestBroadcastSmoke(t *testing.T) {
	t.Parallel()
	runs0, cons0 := trace.BroadcastStats()
	s := NewSession(ScaledConfig(64))
	schemes := []string{"GRASP", "LRU", "SHiP-MEM"}
	if err := s.Prefetch(matrixPoints([]string{"kr"}, "DBG", []string{"PR"}, schemes)); err != nil {
		t.Fatal(err)
	}
	if got := s.Broadcasts(); got != 1 {
		t.Fatalf("Broadcasts = %d, want 1 (one fan-out for the whole group)", got)
	}
	runs, cons := trace.BroadcastStats()
	if runs <= runs0 {
		t.Fatal("trace.BroadcastStats runs did not advance; broadcast path not taken")
	}
	// Other parallel tests may broadcast too, so assert only this batch's
	// contribution as a lower bound: >= one run with all four policies.
	if cons-cons0 < uint64(len(schemes)+1) {
		t.Fatalf("BroadcastStats consumers advanced by %d, want >= %d", cons-cons0, len(schemes)+1)
	}
	if got, want := s.SimRuns(), uint64(len(schemes)+1); got != want {
		t.Fatalf("SimRuns = %d, want %d (every policy exactly once)", got, want)
	}
	// The phase accounting must attribute the batch: a recording happened
	// and the replays were timed under the replay phase.
	ph := s.PhaseSeconds()
	if ph["record"] <= 0 || ph["replay"] <= 0 {
		t.Fatalf("phase breakdown missing record/replay time: %v", ph)
	}
}

// TestPrefetchJoinsInFlightCell: a batch never simulates a cell that
// another caller has claimed but not yet settled; it waits for that
// caller's value. The test holds lj/DBG/PR's GRASP result in flight while
// a Prefetch of the group's {RRIP, GRASP} runs: the fan-out serves RRIP
// alone, and the batch then reads the value the test settles. Not
// parallel: it reads exact deltas of the process-wide trace counters.
func TestPrefetchJoinsInFlightCell(t *testing.T) {
	s := NewSession(ScaledConfig(64))
	defer s.art.releaseAll()
	want := simRun(t, s.Cfg, "lj", "DBG", "PR", apps.LayoutMerged, "GRASP")
	g := group(s.dataset("lj"), "DBG", "PR", apps.LayoutMerged)
	held, leader := s.art.claim(g.of(kindResult, "GRASP"))
	if !leader {
		t.Fatal("a fresh session already holds the GRASP result")
	}
	runs0, cons0 := trace.BroadcastStats()
	done := make(chan error, 1)
	go func() {
		done <- s.Prefetch(matrixPoints([]string{"lj"}, "DBG", []string{"PR"}, []string{"GRASP"}))
	}()
	for !s.art.ready(g.of(kindResult, "RRIP")) {
		select {
		case err := <-done:
			t.Fatalf("Prefetch returned (%v) with the GRASP result still in flight", err)
		case <-time.After(time.Millisecond):
		}
	}
	held.val = want
	s.art.settle(g.of(kindResult, "GRASP"), held, charge{}, false)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if runs, cons := trace.BroadcastStats(); runs-runs0 != 1 || cons-cons0 != 1 {
		t.Errorf("%d fan-outs served %d consumers, want 1 serving 1 (RRIP; GRASP was in flight)", runs-runs0, cons-cons0)
	}
	if got := s.SimRuns(); got != 1 {
		t.Errorf("SimRuns = %d, want 1", got)
	}
	if got, err := s.Result("lj", "DBG", "PR", apps.LayoutMerged, "GRASP"); err != nil || got != want {
		t.Errorf("GRASP = %+v, %v; want the in-flight caller's value %+v", got, err, want)
	}
}

// TestSessionTraceBudgetEvictsLRU: cached recordings are bounded by
// the store's budget — recording a second group under a tiny budget
// evicts AND releases the least-recently-used recording (reclaiming its
// resident bytes eagerly), while the newest recording stays cached; the
// evicted group transparently re-records on next use.
func TestSessionTraceBudgetEvictsLRU(t *testing.T) {
	cfg := ScaledConfig(64)
	s := NewStore(1).Session(cfg) // every newcomer evicts the previous recording
	inUse0 := trace.MemoryInUse()

	groupA := matrixPoints([]string{"lj"}, "DBG", []string{"PR"}, []string{"GRASP"})
	if err := s.Prefetch(groupA); err != nil {
		t.Fatal(err)
	}
	if !fullRecordingReady(s, "lj", "PR") {
		t.Fatal("group A recording not cached after its batch")
	}
	bytesA := s.CacheBytesRetained()
	if bytesA <= 0 {
		t.Fatal("recording not charged to the budget")
	}

	if err := s.Prefetch(matrixPoints([]string{"lj"}, "DBG", []string{"BFS"}, []string{"GRASP"})); err != nil {
		t.Fatal(err)
	}
	if fullRecordingReady(s, "lj", "PR") {
		t.Fatal("LRU recording (group A) not evicted by the byte budget")
	}
	if !fullRecordingReady(s, "lj", "BFS") {
		t.Fatal("most recent recording (group B) was evicted")
	}
	if n := s.art.count(kindRecording); n != 1 {
		t.Fatalf("trace memo holds %d entries after eviction, want 1", n)
	}
	// Eviction must have Released A: its resident bytes are back in the
	// process budget (B's are still charged).
	if got := trace.MemoryInUse() - inUse0; got != s.CacheBytesRetained() {
		t.Fatalf("process resident bytes grew by %d, want exactly the retained %d (eviction did not release)",
			got, s.CacheBytesRetained())
	}
	// The evicted group still serves correctly (re-records on demand).
	if _, err := s.Result("lj", "DBG", "PR", apps.LayoutMerged, "LRU"); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentBroadcastEvictionHammer races >= 4-policy broadcast
// replays against continuous recording eviction (a one-byte budget evicts
// on every new recording) and session cache churn from concurrent
// Result calls across several groups. Every result must come out
// identical to the execution-driven reference: the pin/release protocol
// means an eviction can reclaim a trace mid-batch only after its replays
// finish, and evicted groups silently re-record. Run under -race in CI.
func TestConcurrentBroadcastEvictionHammer(t *testing.T) {
	t.Parallel()
	schemes := []string{"GRASP", "LRU", "SHiP-MEM", "Leeway"}
	apps3 := []string{"PR", "BFS", "BC"}

	type key struct{ app, pol string }
	want := make(map[key]uint64)
	for _, app := range apps3 {
		for _, pol := range append([]string{"RRIP"}, schemes...) {
			want[key{app, pol}] = simRun(t, ScaledConfig(64), "kr", "DBG", app, apps.LayoutMerged, pol).LLC.Misses
		}
	}

	cfg := ScaledConfig(64)
	s := NewStore(1).Session(cfg)
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	// Batch hammers: each goroutine sweeps a different app's 5-policy
	// group, so every batch's new recording evicts another goroutine's.
	for round := 0; round < 3; round++ {
		for _, app := range apps3 {
			wg.Add(1)
			go func(app string) {
				defer wg.Done()
				if err := s.Prefetch(matrixPoints([]string{"kr"}, "DBG", []string{app}, schemes)); err != nil {
					errc <- err
				}
			}(app)
		}
	}
	// Cache churners: single Result calls racing the batches (each replays
	// the recording that survives, or re-records the one just evicted).
	for _, app := range apps3 {
		wg.Add(1)
		go func(app string) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := s.Result("kr", "DBG", app, apps.LayoutMerged, schemes[i]); err != nil {
					errc <- err
				}
			}
		}(app)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for _, app := range apps3 {
		for _, pol := range append([]string{"RRIP"}, schemes...) {
			r, err := s.Result("kr", "DBG", app, apps.LayoutMerged, pol)
			if err != nil {
				t.Fatal(err)
			}
			if r.LLC.Misses != want[key{app, pol}] {
				t.Fatalf("%s/%s: misses %d under eviction pressure, want %d",
					app, pol, r.LLC.Misses, want[key{app, pol}])
			}
		}
	}
}
