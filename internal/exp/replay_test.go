package exp

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
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
	if got, want := s.Ledger().Full.Cells, uint64(len(schemes)+1); got != want {
		t.Fatalf("full cells = %d, want %d (RRIP + each scheme, each once)", got, want)
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

// TestPrefetchLoadsEachGraphOnce: the store keeps no original graph, so a
// batch shares one load among every workload of a (dataset, weighted)
// graph: three reorderings of lj under an unweighted and a weighted app
// load two graphs, not six, and every result still equals the
// execution-driven reference. A second batch over the same workloads
// loads nothing.
func TestPrefetchLoadsEachGraphOnce(t *testing.T) {
	t.Parallel()
	var pts []Datapoint
	for _, r := range []string{"Identity", "Sort", "DBG"} {
		pts = append(pts, matrixPoints([]string{"lj"}, r, []string{"PR", "SSSP"}, nil)...)
	}
	s := NewSession(ScaledConfig(64))
	for pass := 1; pass <= 2; pass++ {
		if err := s.Prefetch(pts); err != nil {
			t.Fatal(err)
		}
		if n := s.art.count(kindWorkload); n != 6 {
			t.Fatalf("pass %d: %d workloads cached, want 6", pass, n)
		}
		if got := s.Ledger().Loads; got != 2 {
			t.Fatalf("pass %d: %d graphs loaded in all for 6 workloads of 2 graphs, want 2", pass, got)
		}
	}
	for _, p := range pts {
		got, err := s.Result(p.DS, p.Reorder, p.App, p.Layout, p.Policy)
		if err != nil {
			t.Fatal(err)
		}
		want := simRun(t, s.Cfg, p.DS, p.Reorder, p.App, p.Layout, p.Policy)
		if got.AppTime = want.AppTime; got != want {
			t.Fatalf("%s/%s diverges from sim.Run\nsession: %+v\n sim.Run: %+v", p.Reorder, p.App, got, want)
		}
	}
}

// TestPrefetchSettledGroupRecordsNothing: a unit whose cells are all
// settled records nothing. Under a one-byte budget every recording is
// evicted as soon as the next one settles, so a second run of the same
// figure finds its results cached and its recordings gone; it must render
// from the cached cells without executing any application again.
func TestPrefetchSettledGroupRecordsNothing(t *testing.T) {
	t.Parallel()
	e, err := ByID("fig9")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(1).Session(ScaledConfig(64))
	var first, second bytes.Buffer
	if err := Run(context.Background(), s, e, &first, nil); err != nil {
		t.Fatal(err)
	}
	before := s.Ledger()
	if err := Run(context.Background(), s, e, &second, nil); err != nil {
		t.Fatal(err)
	}
	after := s.Ledger()
	if after.Served = before.Served; !reflect.DeepEqual(after, before) {
		t.Errorf("second run did work: ledger %+v\n-> %+v; want every cell served from the store", before, after)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("second run renders differently\n--- first ---\n%s\n--- second ---\n%s", first.Bytes(), second.Bytes())
	}
}

// TestLoneResultRecordsOnceThenReplays: the group's recording is the only
// source of a full-fidelity result, so a lone policy — one Prefetch point
// or one ResultCtx call, with nothing to share the execution with — leaves
// exactly one FULL recording behind, and the group's next policies replay
// it instead of executing the application again. A declared OPT study
// cell alone records the same full recording, not only the prefix it
// reads, so a result that follows it replays too. Every result equals the execution-driven reference.
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
	if got := s.Ledger().Full.Cells; got != 4 {
		t.Fatalf("full cells = %d, want 4 (each datapoint simulated once, reads are hits)", got)
	}

	// A declared study cell on a study-only group records the group's
	// full recording, and the lone policy that follows replays it.
	s2 := NewSession(cfg)
	if err := s2.Prefetch([]Datapoint{{DS: "lj", App: "PR", Trace: true, OPTScale: 1}}); err != nil {
		t.Fatal(err)
	}
	wantRecordings(s2, 1, "a study point")
	if !fullRecordingReady(s2, "lj", "PR") {
		t.Fatal("a study point did not leave the FULL recording")
	}
	checkAgainstRun(s2, "lj", "LRU")
	wantRecordings(s2, 1, "a lone policy after a study point")

	// A study cell plus a lone policy in ONE batch shares a single full
	// recording (the study is one more pass over the execution's trace).
	s3 := NewSession(cfg)
	if err := s3.Prefetch([]Datapoint{{DS: "kr", App: "PR", Trace: true, OPTScale: 1}, point("kr", "RRIP")}); err != nil {
		t.Fatal(err)
	}
	wantRecordings(s3, 1, "a study+policy batch (full, shared)")
	if !fullRecordingReady(s3, "kr", "PR") {
		t.Fatal("study+policy batch should have produced the FULL recording")
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
