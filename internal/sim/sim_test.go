package sim

import (
	"context"
	"testing"

	"grasp/internal/apps"
	"grasp/internal/cache"
	"grasp/internal/graph"
	"grasp/internal/policy"
)

// testHCfg returns a tiny hierarchy so tests run fast while preserving the
// thrash regime (property footprint >> LLC).
func testHCfg() cache.HierarchyConfig {
	h := cache.DefaultHierarchyConfig()
	// Keep the paper's thrash regime at test scale: the merged Property
	// Array (4096 vertices x 16B = 64KB) is 8x the LLC.
	h.L1 = cache.Config{SizeBytes: 1 << 10, Ways: 8}
	h.L2 = cache.Config{SizeBytes: 2 << 10, Ways: 8}
	h.LLC = cache.Config{SizeBytes: 8 << 10, Ways: 16}
	return h
}

func testWorkload(t *testing.T, dsName, reorderName string, weighted bool) *Workload {
	t.Helper()
	ds, err := graph.DatasetByName(dsName)
	if err != nil {
		t.Fatal(err)
	}
	w, err := PrepareWorkload(ds, reorderName, weighted, 32) // 4096 vertices
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPolicyRegistryComplete(t *testing.T) {
	want := []string{"LRU", "RRIP", "SHiP-MEM", "Hawkeye", "Leeway",
		"PIN-25", "PIN-50", "PIN-75", "PIN-100",
		"RRIP+Hints", "GRASP (Insertion-Only)", "GRASP", "GRASP-LRU"}
	for _, n := range want {
		p, err := PolicyByName(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if p.New == nil {
			t.Fatalf("%s: nil constructor", n)
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Fatal("expected error")
	}
	// Hint consumers must be flagged.
	for _, n := range []string{"GRASP", "RRIP+Hints", "PIN-75", "GRASP-LRU"} {
		p, _ := PolicyByName(n)
		if !p.NeedsABRs {
			t.Fatalf("%s must need ABRs", n)
		}
	}
	for _, n := range []string{"RRIP", "LRU", "Hawkeye"} {
		p, _ := PolicyByName(n)
		if p.NeedsABRs {
			t.Fatalf("%s must not need ABRs", n)
		}
	}
}

func TestPrepareWorkloadReorders(t *testing.T) {
	w := testWorkload(t, "lj", "DBG", false)
	if w.Graph == nil || w.Graph.NumVertices() == 0 {
		t.Fatal("workload graph missing")
	}
	if w.ReorderCost < 0 {
		t.Fatal("negative reorder cost")
	}
	// DBG segregates hot vertices at low IDs: average degree of the first
	// 10% of IDs must exceed the global average.
	g := w.Graph
	n := g.NumVertices()
	var headDeg uint64
	head := n / 10
	for v := uint32(0); v < head; v++ {
		headDeg += uint64(g.OutDegree(v) + g.InDegree(v))
	}
	headAvg := float64(headDeg) / float64(head)
	globalAvg := 2 * g.AvgDegree()
	if headAvg <= globalAvg {
		t.Fatalf("DBG head avg degree %.1f <= global %.1f", headAvg, globalAvg)
	}
}

func TestRunProducesStats(t *testing.T) {
	w := testWorkload(t, "lj", "DBG", false)
	res, err := Run(w, Spec{App: "PR", Layout: apps.LayoutMerged, Policy: "RRIP", HCfg: testHCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if res.LLC.Accesses() == 0 || res.L1.Accesses() == 0 {
		t.Fatal("no accesses simulated")
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles modeled")
	}
	if res.LLC.Misses == 0 {
		t.Fatal("thrash regime expected LLC misses")
	}
	// Property accesses must dominate LLC accesses (Fig. 2: 78-94%).
	share := float64(res.LLC.PropHits+res.LLC.PropMisses) / float64(res.LLC.Accesses())
	if share < 0.5 {
		t.Fatalf("property share of LLC accesses = %.2f, want > 0.5", share)
	}
}

func TestRunAllAppsAllCorePolicies(t *testing.T) {
	hcfg := testHCfg()
	for _, app := range apps.Names() {
		weighted := app == "SSSP"
		w := testWorkload(t, "pl", "DBG", weighted)
		for _, pol := range []string{"RRIP", "GRASP", "PIN-75"} {
			res, err := Run(w, Spec{App: app, Layout: apps.LayoutMerged, Policy: pol, HCfg: hcfg})
			if err != nil {
				t.Fatalf("%s/%s: %v", app, pol, err)
			}
			if res.LLC.Accesses() == 0 {
				t.Fatalf("%s/%s: empty LLC stream", app, pol)
			}
		}
	}
}

func TestGRASPBeatsRRIPOnHighSkew(t *testing.T) {
	// The headline result at small scale: on a skewed dataset with DBG
	// reordering, GRASP must reduce misses relative to RRIP for PR.
	w := testWorkload(t, "kr", "DBG", false)
	hcfg := testHCfg()
	base, err := Run(w, Spec{App: "PR", Layout: apps.LayoutMerged, Policy: "RRIP", HCfg: hcfg})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Run(w, Spec{App: "PR", Layout: apps.LayoutMerged, Policy: "GRASP", HCfg: hcfg})
	if err != nil {
		t.Fatal(err)
	}
	if gr.LLC.Misses >= base.LLC.Misses {
		t.Fatalf("GRASP misses %d >= RRIP %d on high-skew PR", gr.LLC.Misses, base.LLC.Misses)
	}
	if gr.SpeedupPctOver(base) <= 0 {
		t.Fatalf("GRASP speedup %.2f%% not positive", gr.SpeedupPctOver(base))
	}
}

func TestSpeedupAndMissReductionMath(t *testing.T) {
	base := Result{Cycles: 200}
	base.LLC.Misses = 100
	r := Result{Cycles: 100}
	r.LLC.Misses = 80
	if s := r.SpeedupPctOver(base); s != 100 {
		t.Fatalf("speedup = %f, want 100", s)
	}
	if m := r.MissReductionPctOver(base); m < 19.999 || m > 20.001 {
		t.Fatalf("miss reduction = %f, want 20", m)
	}
	zero := Result{}
	if r.MissReductionPctOver(zero) != 0 {
		t.Fatal("zero-miss base must not divide by zero")
	}
}

func TestOPTBeatsEveryOnlinePolicyOnRealTrace(t *testing.T) {
	w := testWorkload(t, "lj", "DBG", false)
	hcfg := testHCfg()
	tr, err := RecordTraceNCtx(context.Background(), w, "PR", apps.LayoutMerged, hcfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	accs, err := tr.Accesses(0)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]uint64, len(accs))
	for i, a := range accs {
		blocks[i] = cache.BlockAddr(a.Addr)
	}
	opt := policy.SimulateOPT(blocks, hcfg.LLC.Sets(), hcfg.LLC.Ways)
	for _, pname := range []string{"LRU", "RRIP", "GRASP"} {
		pinfo, _ := PolicyByName(pname)
		var bounds [][2]uint64
		if pinfo.NeedsABRs {
			bounds, _ = ABRBoundsFor(w, "PR", apps.LayoutMerged)
		}
		r, err := ReplayResultCtx(context.Background(), tr, Spec{Policy: pname, HCfg: hcfg}, "", bounds)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Misses > r.LLC.Misses {
			t.Fatalf("OPT misses %d > %s misses %d", opt.Misses, pname, r.LLC.Misses)
		}
	}
}

func TestTraceLimit(t *testing.T) {
	w := testWorkload(t, "lj", "DBG", false)
	tr, err := RecordTraceNCtx(context.Background(), w, "PR", apps.LayoutMerged, testHCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}
	accs, err := tr.Accesses(1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 1000 {
		t.Fatalf("bounded decode length %d, want capped at 1000", len(accs))
	}
}
