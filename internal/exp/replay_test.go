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
// once (one recording in the ledger), serve every policy by replay, and
// agree exactly with the execution-driven reference.
func TestPrefetchRecordsOncePerGroup(t *testing.T) {
	t.Parallel()
	schemes := []string{"GRASP", "LRU", "SHiP-MEM", "Leeway"}
	pts := matrixPoints([]string{"lj"}, "DBG", []string{"PR"}, schemes)

	s := NewSession(ScaledConfig(64))
	if err := s.Prefetch(pts); err != nil {
		t.Fatal(err)
	}
	if n := s.Ledger().Recordings; n != 1 {
		t.Fatalf("prefetch made %d recordings, want 1 (one per group)", n)
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
// execution-driven reference. The batch forgets the six workloads once
// their groups have recorded, and a second batch over the same cells
// prepares and loads nothing.
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
		if n := s.art.count(kindWorkload); n != 0 {
			t.Fatalf("pass %d: %d workloads cached, want 0 (the batch forgets what it prepared)", pass, n)
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

// TestPrefetchForgetsItsWorkloads: a forgotten workload regenerates
// byte-identically. After a 1/64 batch over lj/DBG forgets the workload it
// prepared, Workload rebuilds a CSR equal array for array to a fresh
// session's, and a result for an app the batch never recorded equals a
// fresh session's. A workload a lone request prepared before the batch is
// not the batch's to forget.
func TestPrefetchForgetsItsWorkloads(t *testing.T) {
	t.Parallel()
	cfg := ScaledConfig(64)
	pts := matrixPoints([]string{"lj"}, "DBG", []string{"PR"}, []string{"GRASP"})
	s := NewSession(cfg)
	if err := s.Prefetch(pts); err != nil {
		t.Fatal(err)
	}
	if n := s.art.count(kindWorkload); n != 0 {
		t.Fatalf("%d workloads cached after the batch, want 0", n)
	}
	got, err := s.Workload("lj", "DBG", false)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewSession(cfg)
	want, err := fresh.Workload("lj", "DBG", false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Graph, want.Graph) {
		t.Error("the regenerated lj/DBG CSR differs from a fresh session's")
	}
	if l := s.Ledger(); l.Loads != 2 || l.Reorders != 2 {
		t.Errorf("%d loads and %d reorders, want 2 and 2: the batch's and the regeneration's", l.Loads, l.Reorders)
	}
	r, err := s.Result("lj", "DBG", "BFS", apps.LayoutMerged, "GRASP")
	if err != nil {
		t.Fatal(err)
	}
	wantR, err := fresh.Result("lj", "DBG", "BFS", apps.LayoutMerged, "GRASP")
	if err != nil {
		t.Fatal(err)
	}
	if r.AppTime = wantR.AppTime; r != wantR {
		t.Errorf("BFS after the forget diverges from a fresh session's\n got: %+v\nwant: %+v", r, wantR)
	}

	lone := NewSession(cfg)
	w, err := lone.Workload("lj", "DBG", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := lone.Prefetch(pts); err != nil {
		t.Fatal(err)
	}
	if again, err := lone.Workload("lj", "DBG", false); err != nil || again != w {
		t.Errorf("the lone request's workload was forgotten by the batch (%v)", err)
	}
	if l := lone.Ledger(); l.Reorders != 1 {
		t.Errorf("%d reorders, want 1: the batch reads the lone request's workload", l.Reorders)
	}
}

// TestPrefetchForgetsItsRecordings: a batch forgets each recording it
// made once the last unit that reads it finishes, and leaves alone the
// recordings the store held when it began.
func TestPrefetchForgetsItsRecordings(t *testing.T) {
	t.Parallel()
	cfg := ScaledConfig(64)
	pts := matrixPoints([]string{"lj"}, "DBG", []string{"PR"}, []string{"GRASP"})

	// The batch's recording goes with it, charge and all, and a lone
	// request afterwards records the group again, identically.
	s := NewSession(cfg)
	if err := s.Prefetch(pts); err != nil {
		t.Fatal(err)
	}
	if n, b := s.art.count(kindRecording), s.CacheBytesRetained(); n != 0 || b != 0 {
		t.Fatalf("after the batch: %d recordings cached, %d bytes retained; want 0 and 0", n, b)
	}
	if n := s.Ledger().Recordings; n != 1 {
		t.Fatalf("the batch made %d recordings, want 1", n)
	}
	got, err := s.ResultCtx(context.Background(), "lj", "DBG", "PR", apps.LayoutMerged, "LRU")
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Ledger().Recordings; n != 2 {
		t.Fatalf("%d recordings after a lone LRU result, want 2: it records the forgotten group once", n)
	}
	want, err := NewSession(cfg).ResultCtx(context.Background(), "lj", "DBG", "PR", apps.LayoutMerged, "LRU")
	if err != nil {
		t.Fatal(err)
	}
	if got.AppTime = want.AppTime; got != want {
		t.Errorf("LRU after the forget diverges from a fresh session's\n got: %+v\nwant: %+v", got, want)
	}

	// A recording a lone request made is not the batch's to forget.
	lone := NewSession(cfg)
	if _, err := lone.ResultCtx(context.Background(), "lj", "DBG", "PR", apps.LayoutMerged, "LRU"); err != nil {
		t.Fatal(err)
	}
	if err := lone.Prefetch(pts); err != nil {
		t.Fatal(err)
	}
	if !fullRecordingReady(lone, "lj", "PR") {
		t.Error("the batch forgot the recording a lone request made")
	}
	if n := lone.Ledger().Recordings; n != 1 {
		t.Errorf("%d recordings, want 1: the batch replays the lone request's", n)
	}

	// Two mixes over the same two streams read each stream's recording
	// after its group unit: it lives until the last of them finishes.
	mixes := matrixPoints([]string{"lj"}, "DBG", []string{"BFS", "PR"}, []string{"GRASP"})
	for _, m := range [][2]string{{"BFS", "PR"}, {"PR", "BFS+PR+BFS"}} {
		mixes = append(mixes, Datapoint{DS: "lj", Reorder: "DBG", App: m[0], Layout: apps.LayoutMerged, Policy: "GRASP", Corun: m[1]})
	}
	co := NewSession(cfg)
	if err := co.Prefetch(mixes); err != nil {
		t.Fatal(err)
	}
	if n := co.Ledger().Recordings; n != 2 {
		t.Errorf("the co-run batch made %d recordings, want 2: one per distinct group", n)
	}
	if n := co.art.count(kindRecording); n != 0 {
		t.Errorf("%d recordings cached after the co-run batch, want 0", n)
	}
}

// TestPrefetchSettledGroupRecordsNothing: a unit whose cells are all
// settled records nothing. A batch forgets the recordings it made (and a
// one-byte budget would evict them anyway), so a second run of the same
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
// source of a full-fidelity result. A lone Prefetch point records it once
// and, as the batch made it, forgets it when the point settles. A lone
// ResultCtx leaves exactly one FULL recording behind, and the group's
// next policies, by either door, replay it instead of executing the
// application again. A declared OPT study cell reads that same full
// recording, and alone records the full recording, not only the prefix
// it reads. Every result equals the execution-driven reference.
func TestLoneResultRecordsOnceThenReplays(t *testing.T) {
	t.Parallel()
	cfg := ScaledConfig(64)
	point := func(ds, policy string) Datapoint {
		return Datapoint{DS: ds, Reorder: "DBG", App: "PR", Layout: apps.LayoutMerged, Policy: policy}
	}
	wantRecordings := func(s *Session, cached, made int, after string) {
		t.Helper()
		if got := s.art.count(kindRecording); got != cached {
			t.Fatalf("%d recordings cached after %s, want %d", got, after, cached)
		}
		if got := s.Ledger().Recordings; got != uint64(made) {
			t.Fatalf("%d recordings made after %s, want %d", got, after, made)
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
	wantRecordings(s, 0, 1, "a lone Prefetch point")
	if _, err := s.ResultCtx(context.Background(), "kr", "DBG", "PR", apps.LayoutMerged, "RRIP"); err != nil {
		t.Fatal(err)
	}
	wantRecordings(s, 1, 2, "a lone ResultCtx on a second group")
	if !fullRecordingReady(s, "kr", "PR") {
		t.Fatal("a lone ResultCtx did not leave the FULL recording")
	}
	// A second and a third policy, by either door, replay what is there.
	if _, err := s.Result("kr", "DBG", "PR", apps.LayoutMerged, "GRASP"); err != nil {
		t.Fatal(err)
	}
	if err := s.Prefetch([]Datapoint{point("kr", "SHiP-MEM")}); err != nil {
		t.Fatal(err)
	}
	wantRecordings(s, 1, 2, "two more policies on a recorded group")
	for _, p := range []Datapoint{point("lj", "RRIP"), point("kr", "RRIP"), point("kr", "GRASP"), point("kr", "SHiP-MEM")} {
		checkAgainstRun(s, p.DS, p.Policy)
	}
	if got := s.Ledger().Full.Cells; got != 4 {
		t.Fatalf("full cells = %d, want 4 (each datapoint simulated once, reads are hits)", got)
	}

	// A declared study cell on a group a lone policy recorded reads that
	// recording, and leaves it.
	s2 := NewSession(cfg)
	checkAgainstRun(s2, "lj", "LRU")
	if err := s2.Prefetch([]Datapoint{{DS: "lj", App: "PR", Trace: true, OPTScale: 1}}); err != nil {
		t.Fatal(err)
	}
	wantRecordings(s2, 1, 1, "a study point on a recorded group")
	full := s2.Ledger().Recorded

	// A study cell alone, or beside a lone policy in ONE batch, records
	// one FULL recording (the study is one more pass over the execution's
	// trace).
	for _, pts := range [][]Datapoint{
		{{DS: "lj", App: "PR", Trace: true, OPTScale: 1}},
		{{DS: "lj", App: "PR", Trace: true, OPTScale: 1}, point("lj", "RRIP")},
	} {
		s3 := NewSession(cfg)
		if err := s3.Prefetch(pts); err != nil {
			t.Fatal(err)
		}
		wantRecordings(s3, 0, 1, "a study batch")
		if got := s3.Ledger().Recorded; got != full {
			t.Fatalf("a study batch recorded %d accesses, want the full recording's %d", got, full)
		}
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
