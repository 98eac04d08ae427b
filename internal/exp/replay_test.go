package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"grasp/internal/apps"
	"grasp/internal/graph"
)

// TestPrefetchRecordsOncePerGroup: a batch sweeping several policies over
// one (dataset, reorder, app, layout) group must execute the application
// once (one cached recording), serve every policy by replay, and agree
// exactly with a sequential execution-driven session.
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

	seq := NewSession(ScaledConfig(64))
	for _, p := range pts {
		replayed, err := s.Result(p.DS, p.Reorder, p.App, p.Layout, p.Policy)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := seq.Result(p.DS, p.Reorder, p.App, p.Layout, p.Policy)
		if err != nil {
			t.Fatal(err)
		}
		replayed.AppTime = direct.AppTime // wall-clock legitimately differs
		if replayed != direct {
			t.Fatalf("%s: replayed result diverges\nreplay: %+v\ndirect: %+v", p.Policy, replayed, direct)
		}
	}
	if seq.art.count(kindRecording) != 0 {
		t.Fatal("sequential per-point session unexpectedly recorded a trace")
	}
}

// TestSinglePolicyGroupBypassesRecorder: with only one policy per group
// and no pre-existing recording, Prefetch must run execution-driven (the
// recording would cost as much as the run it replaces). A declared trace
// alone creates only a bounded-prefix recording, which must NOT back
// result replays; once a FULL recording exists (multi-policy batch),
// later single-policy requests replay it.
func TestSinglePolicyGroupBypassesRecorder(t *testing.T) {
	t.Parallel()
	s := NewSession(ScaledConfig(64))
	if err := s.Prefetch([]Datapoint{
		{DS: "lj", Reorder: "DBG", App: "PR", Layout: apps.LayoutMerged, Policy: "RRIP"},
	}); err != nil {
		t.Fatal(err)
	}
	if n := s.art.count(kindRecording); n != 0 {
		t.Fatalf("single-policy prefetch recorded %d traces, want 0 (bypass)", n)
	}
	// A declared trace point on a trace-only group creates a capped
	// recording; the full recording does not exist, so a lone policy still
	// runs execution-driven (a bounded prefix cannot back a full result).
	if err := s.Prefetch([]Datapoint{{DS: "lj", App: "PR", Trace: true}}); err != nil {
		t.Fatal(err)
	}
	if n := s.art.count(kindRecording); n != 1 {
		t.Fatalf("trace point cached %d recordings, want 1 (capped)", n)
	}
	if fullRecordingReady(s, "lj", "PR") {
		t.Fatal("capped recording must not satisfy traceReady")
	}
	// A declared trace plus a lone policy in ONE batch shares a single
	// full recording (the trace counts as a consumer of the execution).
	s2 := NewSession(ScaledConfig(64))
	if err := s2.Prefetch([]Datapoint{
		{DS: "kr", App: "PR", Trace: true},
		{DS: "kr", Reorder: "DBG", App: "PR", Layout: apps.LayoutMerged, Policy: "RRIP"},
	}); err != nil {
		t.Fatal(err)
	}
	if n := s2.art.count(kindRecording); n != 1 {
		t.Fatalf("trace+policy batch cached %d recordings, want 1 (full, shared)", n)
	}
	if !fullRecordingReady(s2, "kr", "PR") {
		t.Fatal("trace+policy batch should have produced the FULL recording")
	}

	// A multi-policy batch creates the full recording ...
	if err := s.Prefetch(matrixPoints([]string{"lj"}, "DBG", []string{"PR"}, []string{"GRASP"})); err != nil {
		t.Fatal(err)
	}
	if n := s.art.count(kindRecording); n != 2 {
		t.Fatalf("have %d recordings, want 2 (capped + full)", n)
	}
	// ... and a later lone policy on that group replays instead of
	// re-executing; its result must match a fresh direct session exactly.
	r, err := s.Result("lj", "DBG", "PR", apps.LayoutMerged, "SHiP-MEM")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewSession(ScaledConfig(64)).Result("lj", "DBG", "PR", apps.LayoutMerged, "SHiP-MEM")
	if err != nil {
		t.Fatal(err)
	}
	r.AppTime = direct.AppTime
	if r != direct {
		t.Fatalf("replay-on-cached-trace diverges\nreplay: %+v\ndirect: %+v", r, direct)
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
	cfg.FileBytesBudget = 1 // every newcomer evicts the previous file
	s := NewSession(cfg)

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
