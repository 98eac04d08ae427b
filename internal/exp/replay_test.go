package exp

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"grasp/internal/apps"
	"grasp/internal/graph"
)

// TestPrefetchRecordsOncePerGroup: a batch sweeping several policies over
// one (dataset, reorder, app, layout) group must execute the application
// once (one cached recording), serve every policy by replay, and agree
// exactly with the execution-driven reference.
func TestPrefetchRecordsOncePerGroup(t *testing.T) {
	t.Parallel()
	schemes := []string{"GRASP", "LRU", "SHiP-MEM", "Leeway"}
	pts := matrixPoints([]string{"lj"}, "DBG", []string{"PR"}, schemes)

	s := NewSession(ScaledConfig(64))
	if err := s.Prefetch(pts); err != nil {
		t.Fatal(err)
	}
	if n := s.art.count(kindRecording); n != 1 {
		t.Fatalf("prefetch cached %d recordings, want 1 (one per group)", n)
	}
	if got, want := s.SimRuns(), uint64(len(schemes)+1); got != want {
		t.Fatalf("SimRuns = %d, want %d (RRIP + each scheme, each once)", got, want)
	}
	for _, p := range pts {
		replayed, err := s.Result(p.DS, p.Reorder, p.App, p.Layout, p.Policy)
		if err != nil {
			t.Fatal(err)
		}
		direct := simRun(t, s.Cfg, p.DS, p.Reorder, p.App, p.Layout, p.Policy)
		replayed.AppTime = direct.AppTime // wall-clock legitimately differs
		if replayed != direct {
			t.Fatalf("%s: replayed result diverges\nreplay: %+v\ndirect: %+v", p.Policy, replayed, direct)
		}
	}
}

// TestLoneResultRecordsOnceThenReplays: the group's recording is the only
// source of a full-fidelity result, so a lone policy — one Prefetch point
// or one ResultCtx call, with nothing to share the execution with — leaves
// exactly one FULL recording behind, and the group's next policies replay
// it instead of executing the application again. A declared trace alone
// records the same full recording, so a result that follows it replays
// too. Every result equals the execution-driven reference.
func TestLoneResultRecordsOnceThenReplays(t *testing.T) {
	t.Parallel()
	cfg := ScaledConfig(64)
	point := func(ds, policy string) Datapoint {
		return Datapoint{DS: ds, Reorder: "DBG", App: "PR", Layout: apps.LayoutMerged, Policy: policy}
	}
	wantRecordings := func(s *Session, n int, after string) {
		t.Helper()
		if got := s.art.count(kindRecording); got != n {
			t.Fatalf("%d recordings cached after %s, want %d", got, after, n)
		}
	}
	checkAgainstRun := func(s *Session, ds, policy string) {
		t.Helper()
		got, err := s.Result(ds, "DBG", "PR", apps.LayoutMerged, policy)
		if err != nil {
			t.Fatal(err)
		}
		want := simRun(t, cfg, ds, "DBG", "PR", apps.LayoutMerged, policy)
		if got.AppTime = want.AppTime; got != want {
			t.Fatalf("%s/%s diverges from sim.Run\nsession: %+v\n sim.Run: %+v", ds, policy, got, want)
		}
	}

	s := NewSession(cfg)
	if err := s.Prefetch([]Datapoint{point("lj", "RRIP")}); err != nil {
		t.Fatal(err)
	}
	wantRecordings(s, 1, "a lone Prefetch point")
	if !fullRecordingReady(s, "lj", "PR") {
		t.Fatal("a lone Prefetch point did not leave the FULL recording")
	}
	if _, err := s.ResultCtx(context.Background(), "kr", "DBG", "PR", apps.LayoutMerged, "RRIP"); err != nil {
		t.Fatal(err)
	}
	wantRecordings(s, 2, "a lone ResultCtx on a second group")
	if !fullRecordingReady(s, "kr", "PR") {
		t.Fatal("a lone ResultCtx did not leave the FULL recording")
	}
	// A second and a third policy, by either door, replay what is there.
	if _, err := s.Result("lj", "DBG", "PR", apps.LayoutMerged, "GRASP"); err != nil {
		t.Fatal(err)
	}
	if err := s.Prefetch([]Datapoint{point("lj", "SHiP-MEM")}); err != nil {
		t.Fatal(err)
	}
	wantRecordings(s, 2, "two more policies on a recorded group")
	for _, p := range []Datapoint{point("lj", "RRIP"), point("kr", "RRIP"), point("lj", "GRASP"), point("lj", "SHiP-MEM")} {
		checkAgainstRun(s, p.DS, p.Policy)
	}
	if got := s.SimRuns(); got != 4 {
		t.Fatalf("SimRuns = %d, want 4 (each datapoint simulated once, reads are hits)", got)
	}

	// A declared trace point on a trace-only group records the group's
	// full recording, and the lone policy that follows replays it.
	s2 := NewSession(cfg)
	if err := s2.Prefetch([]Datapoint{{DS: "lj", App: "PR", Trace: true}}); err != nil {
		t.Fatal(err)
	}
	wantRecordings(s2, 1, "a trace point")
	if !fullRecordingReady(s2, "lj", "PR") {
		t.Fatal("a trace point did not leave the FULL recording")
	}
	checkAgainstRun(s2, "lj", "LRU")
	wantRecordings(s2, 1, "a lone policy after a trace point")

	// A declared trace plus a lone policy in ONE batch shares a single
	// full recording (the trace is one more consumer of the execution).
	s3 := NewSession(cfg)
	if err := s3.Prefetch([]Datapoint{{DS: "kr", App: "PR", Trace: true}, point("kr", "RRIP")}); err != nil {
		t.Fatal(err)
	}
	wantRecordings(s3, 1, "a trace+policy batch (full, shared)")
	if !fullRecordingReady(s3, "kr", "PR") {
		t.Fatal("trace+policy batch should have produced the FULL recording")
	}
}

// TestSessionFileBudgetEvictsLRU: the session's retained bytes for
// file-backed datasets are bounded — loading a second file under a tiny
// budget evicts the least-recently-used one's entries, while the most
// recent stays cached (DESIGN.md Sec. 10 memory bound).
func TestSessionFileBudgetEvictsLRU(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	writeGraph := func(name string, g *graph.CSR) string {
		t.Helper()
		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	pathA := writeGraph("a.el", graph.GenPath(32))
	pathB := writeGraph("b.el", graph.GenCycle(48))

	cfg := ScaledConfig(16)
	s := NewStore(1).Session(cfg) // every newcomer evicts the previous file

	wA, err := s.Workload(pathA, "DBG", false)
	if err != nil {
		t.Fatal(err)
	}
	if wA2, err := s.Workload(pathA, "DBG", false); err != nil || wA2 != wA {
		t.Fatalf("A not served from memo before eviction (err=%v)", err)
	}
	wB, err := s.Workload(pathB, "DBG", false)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.art.count(kindWorkload); n != 1 {
		t.Fatalf("workload memo holds %d entries after eviction, want 1 (B only)", n)
	}
	if wB2, err := s.Workload(pathB, "DBG", false); err != nil || wB2 != wB {
		t.Fatalf("B (most recent) was evicted (err=%v)", err)
	}
	wA3, err := s.Workload(pathA, "DBG", false)
	if err != nil {
		t.Fatal(err)
	}
	if wA3 == wA {
		t.Fatal("A still cached despite the byte budget")
	}
	// Synthetic datasets are never evicted by the file budget.
	if _, err := s.Workload("lj", "DBG", false); err != nil {
		t.Fatal(err)
	}
	before := s.art.count(kindWorkload)
	if _, err := s.Workload(pathB, "DBG", false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Workload("lj", "DBG", false); err != nil {
		t.Fatal(err)
	}
	if s.art.count(kindWorkload) < before {
		t.Fatal("synthetic workload was evicted by the file budget")
	}
}
