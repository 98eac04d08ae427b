package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"grasp/internal/apps"
	"grasp/internal/graph"
	"grasp/internal/sim"
)

func testSession() *Session { return NewSession(ScaledConfig(16)) }

// sessions are the Sessions shared, one per scale, by the tests that only
// read results: TestClaims, TestGoldenRuns and the 1/16 output tests. A
// cell one of them settles is one the others read for free.
var sessions = map[uint32]func() *Session{
	64: sync.OnceValue(func() *Session { return NewSession(ScaledConfig(64)) }),
	16: sync.OnceValue(func() *Session { return NewSession(ScaledConfig(16)) }),
}

// sharedSession returns the shared Session of one scale.
func sharedSession(div uint32) *Session { return sessions[div]() }

// simRun is the tests' execution-driven reference: sim.PrepareWorkload +
// sim.Run through a live hierarchy — no Session, no recording. Every
// Session result is a replay, so a test that wants to know a result is
// RIGHT compares against this, never against another Session.
func simRun(t testing.TB, cfg Config, dsName, reorderName, app string, layout apps.Layout, policy string) sim.Result {
	t.Helper()
	ds, err := graph.Resolve(dsName)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.PrepareWorkload(ds, reorderName, app == "SSSP", cfg.ScaleDiv)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run(w, sim.Spec{App: app, Layout: layout, Policy: policy, HCfg: cfg.HCfg})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestScaledConfig(t *testing.T) {
	c := ScaledConfig(16)
	if c.HCfg.LLC.SizeBytes != (64<<10)/16 {
		t.Fatalf("scaled LLC = %d", c.HCfg.LLC.SizeBytes)
	}
	if c.ScaleDiv != 16 {
		t.Fatal("scale div lost")
	}
	// Tiny divisors clamp to a functional geometry instead of vanishing.
	if tiny := ScaledConfig(1 << 10); tiny.HCfg.LLC.SizeBytes < 2048 {
		t.Fatalf("clamp failed: %d", tiny.HCfg.LLC.SizeBytes)
	}
	// Extreme divisor clamps to a valid geometry.
	c2 := ScaledConfig(1 << 20)
	if c2.HCfg.LLC.Sets() == 0 || c2.HCfg.LLC.Sets()&(c2.HCfg.LLC.Sets()-1) != 0 {
		t.Fatalf("clamped LLC geometry invalid: %d sets", c2.HCfg.LLC.Sets())
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := []string{"table1", "table4", "fig2", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10a", "fig10b", "fig11", "table7", "noreorder",
		"ablation-region", "ablation-bases", "ablation-ship", "scenarios", "corun"}
	all := All()
	if len(all) != len(ids) {
		t.Fatalf("All() has %d experiments, want %d", len(all), len(ids))
	}
	for i, id := range ids {
		if e := all[i]; e.ID != id || e.Run == nil || e.Title == "" {
			t.Fatalf("All()[%d] = %q (Run set %v, title %q), want %q, complete", i, e.ID, e.Run != nil, e.Title, id)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestSessionCachesResults(t *testing.T) {
	t.Parallel()
	s := testSession()
	r1, err := s.Result("lj", "DBG", "PR", apps.LayoutMerged, "RRIP")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Result("lj", "DBG", "PR", apps.LayoutMerged, "RRIP")
	if err != nil {
		t.Fatal(err)
	}
	if r1.LLC.Misses != r2.LLC.Misses {
		t.Fatal("cached result differs")
	}
	if n := s.art.count(kindResult); n != 1 {
		t.Fatalf("expected 1 cached result, have %d", n)
	}
	if n := s.Ledger().Full.Cells; n != 1 {
		t.Fatalf("expected 1 simulation run, have %d", n)
	}
}

// TestSessionRevalidatesAndEvictsFileWorkloads: a file-backed graph's
// session cache entries are keyed by the file's (size, mtime) stamp, so
// an edit re-prepares the workload — and the superseded entry is evicted
// rather than pinning the old parsed graph for the session's lifetime.
func TestSessionRevalidatesAndEvictsFileWorkloads(t *testing.T) {
	t.Parallel()
	s := testSession()
	path := filepath.Join(t.TempDir(), "sess.el")
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
	writeGraph(graph.GenPath(6))
	w1, err := s.Workload(path, "DBG", false)
	if err != nil {
		t.Fatal(err)
	}
	if w2, err := s.Workload(path, "DBG", false); err != nil || w2 != w1 {
		t.Fatalf("unchanged file not served from the memo (err=%v)", err)
	}
	if n := s.art.count(kindWorkload); n != 1 {
		t.Fatalf("workload memo holds %d entries, want 1", n)
	}

	edited := graph.GenCycle(9)
	writeGraph(edited)
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	w3, err := s.Workload(path, "DBG", false)
	if err != nil {
		t.Fatal(err)
	}
	if w3 == w1 {
		t.Fatal("edited file served the stale workload")
	}
	if got := w3.Graph.NumVertices(); got != edited.NumVertices() {
		t.Fatalf("reloaded workload has %d vertices, want the edited file's %d", got, edited.NumVertices())
	}
	if n := s.art.count(kindWorkload); n != 1 {
		t.Fatalf("workload memo holds %d entries after edit, want 1 (superseded entry evicted)", n)
	}
}

func TestTable1Output(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := runTable1(sharedSession(16), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, ds := range []string{"lj", "pl", "tw", "kr", "sd", "fr", "uni"} {
		if !strings.Contains(out, ds) {
			t.Fatalf("table1 missing dataset %s:\n%s", ds, out)
		}
	}
}

func TestFig2Output(t *testing.T) {
	t.Parallel()
	s := sharedSession(16)
	var buf bytes.Buffer
	if err := runFig2(s, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PR") {
		t.Fatalf("fig2 output incomplete:\n%s", buf.String())
	}
	// Shape property: Property Array dominates LLC accesses.
	r, err := s.Result("tw", "Identity", "PR", apps.LayoutMerged, "RRIP")
	if err != nil {
		t.Fatal(err)
	}
	share := float64(r.LLC.PropHits+r.LLC.PropMisses) / float64(r.LLC.Accesses())
	if share < 0.5 {
		t.Fatalf("property access share %.2f, want > 0.5", share)
	}
}

func TestElimPct(t *testing.T) {
	if elimPct(50, 100) != 50 {
		t.Fatal("elimPct wrong")
	}
	if elimPct(100, 0) != 0 {
		t.Fatal("elimPct division by zero")
	}
}

// Smoke-run the fast experiments end to end.
func TestExperimentsSmoke(t *testing.T) {
	t.Parallel()
	s := sharedSession(16)
	for _, id := range []string{"table1", "fig2", "fig9", "ablation-bases"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Run(s, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestAblationRegionPeaksNearPaperDesign(t *testing.T) {
	t.Parallel()
	// The paper sizes the High Reuse Region at exactly one LLC; very large
	// regions (4x) must not beat the paper's design point by much — they
	// reintroduce self-thrashing among "protected" blocks.
	s := sharedSession(16)
	rs, err := s.regionResults(group(s.dataset("kr"), "DBG", "PR", apps.LayoutMerged), []float64{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	paper, huge := rs[0].LLC.Misses, rs[1].LLC.Misses
	if huge < paper*95/100 {
		t.Fatalf("8x region (%d misses) markedly beats the paper design (%d)", huge, paper)
	}
}
