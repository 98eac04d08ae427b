package exp

import (
	"sync"
	"testing"
	"time"

	"grasp/internal/apps"
)

// TestBroadcastSmoke is the CI assertion that the decode-once broadcast
// path is actually taken for a multi-policy group: one Prefetch batch
// sweeping four policies over one (dataset, reorder, app, layout) group
// must record once and serve every policy through ONE broadcast fan-out,
// as its store's ledger (what graspd /metrics exports) counts it.
func TestBroadcastSmoke(t *testing.T) {
	t.Parallel()
	s := NewSession(ScaledConfig(64))
	schemes := []string{"GRASP", "LRU", "SHiP-MEM"}
	if err := s.Prefetch(matrixPoints([]string{"kr"}, "DBG", []string{"PR"}, schemes)); err != nil {
		t.Fatal(err)
	}
	l := s.Ledger()
	n := uint64(len(schemes) + 1)
	if got, want := l.Full, (TierWork{Cells: n, FanOuts: 1, Consumers: n, Decoded: l.Recorded}); got != want {
		t.Fatalf("full tier = %+v, want %+v (every policy once, in one fan-out of the one recording)", got, want)
	}
	if l.Recordings != 1 {
		t.Fatalf("%d recordings, want 1", l.Recordings)
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
// alone, and the batch then reads the value the test settles.
func TestPrefetchJoinsInFlightCell(t *testing.T) {
	s := NewSession(ScaledConfig(64))
	want := simRun(t, s.Cfg, "lj", "DBG", "PR", apps.LayoutMerged, "GRASP")
	g := group(s.dataset("lj"), "DBG", "PR", apps.LayoutMerged)
	held, leader := s.art.claim(g.of(kindResult, "GRASP"))
	if !leader {
		t.Fatal("a fresh session already holds the GRASP result")
	}
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
	s.art.settle(g.of(kindResult, "GRASP"), held, 0, false)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := s.Ledger().Full; got.FanOuts != 1 || got.Consumers != 1 || got.Cells != 1 {
		t.Errorf("full tier = %+v, want 1 fan-out serving 1 consumer (RRIP; GRASP was in flight)", got)
	}
	if got, err := s.Result("lj", "DBG", "PR", apps.LayoutMerged, "GRASP"); err != nil || got != want {
		t.Errorf("GRASP = %+v, %v; want the in-flight caller's value %+v", got, err, want)
	}
}

// TestPrefetchRegionScalesShareOneFanOut: a region-scaled GRASP cell is
// one more spec of its group's results fan-out, so a fresh session's
// Prefetch of ablation-region's points runs exactly one decode-once
// fan-out per (dataset, DBG, PR) group — the RRIP baseline and GRASP at
// every scale together — and counts every cell a result datapoint, the 1x
// scale as the plain GRASP cell.
func TestPrefetchRegionScalesShareOneFanOut(t *testing.T) {
	s := NewSession(ScaledConfig(64))
	if err := s.Prefetch(ablationRegionPoints()); err != nil {
		t.Fatal(err)
	}
	groups := uint64(len(highSkewNames()))
	cells := groups * uint64(1+len(regionScales)) // RRIP and GRASP at every scale
	if got := s.Ledger().Full; got.FanOuts != groups || got.Cells != cells {
		t.Errorf("full tier = %+v, want %d fan-outs (one per group) computing %d cells", got, groups, cells)
	}
	plain, err := s.Result("kr", "DBG", "PR", apps.LayoutMerged, "GRASP")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Ledger().Full.Cells; got != cells {
		t.Errorf("the plain GRASP cell was simulated again (%d cells); the 1x region-scaled result is it", got)
	}
	if plain.Spec.RegionScale != 0 {
		t.Errorf("the plain GRASP cell carries region scale %g, want 0", plain.Spec.RegionScale)
	}
}

// TestSessionTraceBudgetEvictsLRU: cached recordings are bounded by
// the store's budget — recording a second group under a tiny budget
// evicts the least-recently-used recording and its charge, while the
// newest recording stays cached; the evicted group transparently
// re-records on next use. The recordings are made by lone requests: a
// batch forgets what it records.
func TestSessionTraceBudgetEvictsLRU(t *testing.T) {
	cfg := ScaledConfig(64)
	s := NewStore(1).Session(cfg) // every newcomer evicts the previous recording

	if _, err := s.Result("lj", "DBG", "PR", apps.LayoutMerged, "GRASP"); err != nil {
		t.Fatal(err)
	}
	if !fullRecordingReady(s, "lj", "PR") {
		t.Fatal("group A recording not cached after its result")
	}
	bytesA := s.CacheBytesRetained()
	if bytesA <= 0 {
		t.Fatal("recording not charged to the budget")
	}

	if _, err := s.Result("lj", "DBG", "BFS", apps.LayoutMerged, "GRASP"); err != nil {
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
	// Eviction subtracted A's charge: what is retained is B's alone.
	chargeB := s.art.charged(group(s.dataset("lj"), "DBG", "BFS", apps.LayoutMerged))
	if got := s.CacheBytesRetained(); chargeB <= 0 || got != chargeB {
		t.Fatalf("retained %d bytes after the eviction, want the surviving recording's %d", got, chargeB)
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
// identical to the execution-driven reference: an eviction only drops the
// store's reference, so a batch finishes on the trace it holds, and
// evicted groups silently re-record. Run under -race in CI.
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
