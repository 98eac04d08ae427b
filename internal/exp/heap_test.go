package exp

import (
	"cmp"
	"context"
	"flag"
	"runtime"
	"testing"
)

var long = flag.Bool("long", false, "also run the slow scales of the heap bound test (TestPrefetchHeapBound at 1/4)")

// heapFactor bounds what a settled recording costs the heap per byte the
// store charges it: slice headers, the store's entries and the
// allocator's rounding of each exact-size chunk up to whole 8 KB pages.
// It measured 1.05 at 1/16 and 1.04 at 1/4.
const heapFactor = 1.25

// batchHeapBound bounds the heap a batch leaves behind at any scale: its
// cells and the store's entries for them, which do not grow with the
// graphs. It measured 0.2 MB at 1/16, where the batch's recordings
// average 1.0 MB (35.7 MB over 35 groups) and a synthetic workload 1.5.
const batchHeapBound = 1_000_000

// heapScales are the scales TestPrefetchHeapBound runs and, for each, the
// uncharged synthetic workloads' bound of its lone requests:
// TestSyntheticWorkloadFootprintBound holds the 1/16 sum under 21 MB, and
// the 1/4 sum measured 82.05 MB.
var heapScales = []struct {
	scale     uint32
	synthetic int64
	slow      bool
}{{16, 21_000_000, false}, {4, 84_000_000, true}}

// TestPrefetchHeapBound measures, after a collection, the live heap's
// growth over fresh stores fed the points of fig5, fig8 and fig9
// (DESIGN.md Sec. 10). A Prefetch batch forgets the workloads and
// recordings it made, so it leaves nothing charged and under
// batchHeapBound of heap. The same groups requested one key each through
// ResultCtx, as graspd's singles are, keep their recordings: the heap
// grows by at most heapFactor x CacheBytesRetained plus the synthetic
// workloads the store does not charge, so what -cache-mb bounds is,
// within that factor, what the recordings hold. 1/16 runs in tier-1, 1/4
// under -long.
func TestPrefetchHeapBound(t *testing.T) {
	var pts []Datapoint
	for _, id := range []string{"fig5", "fig8", "fig9"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, e.Points()...)
	}
	// grow returns the live heap's growth across fill of a fresh store's
	// session, and what the store then charges.
	grow := func(scale uint32, fill func(s *Session) error) (grew, retained int64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := NewSession(ScaledConfig(scale))
		if err := fill(s); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		retained = s.CacheBytesRetained()
		runtime.KeepAlive(s)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc), retained
	}
	for _, sc := range heapScales {
		if sc.slow && !*long {
			continue
		}
		grew, retained := grow(sc.scale, func(s *Session) error { return s.Prefetch(pts) })
		t.Logf("1/%d batch: heap grew %.2f MB, %d bytes retained (bound %.1f MB)",
			sc.scale, float64(grew)/1e6, retained, float64(batchHeapBound)/1e6)
		if retained != 0 {
			t.Errorf("1/%d: the batch left %d bytes charged, want 0", sc.scale, retained)
		}
		if grew > batchHeapBound {
			t.Errorf("1/%d: the batch left the heap %d bytes larger, over %d", sc.scale, grew, batchHeapBound)
		}

		var lone []Datapoint // a point per group
		grew, retained = grow(sc.scale, func(s *Session) error {
			seen := make(map[artifactKey]bool)
			for _, p := range pts {
				if g := p.group(s.dataset(p.DS)); !seen[g] {
					seen[g] = true
					lone = append(lone, p)
				}
			}
			// As graspd's workers would run them: side by side, each its
			// own one-key call.
			errs := make([]error, len(lone))
			forEachParallel(len(lone), func(i int) {
				p := lone[i]
				_, errs[i] = s.ResultCtx(context.Background(), p.DS, p.Reorder, p.App, p.Layout, p.Policy)
			})
			return cmp.Or(errs...)
		})
		t.Logf("1/%d lone, %d groups: heap grew %.1f MB for %.1f MB retained: %.2f x retained + %.1f MB synthetic bound (factor %.2f)",
			sc.scale, len(lone), float64(grew)/1e6, float64(retained)/1e6, float64(grew-sc.synthetic)/float64(retained),
			float64(sc.synthetic)/1e6, heapFactor)
		if retained == 0 {
			t.Fatalf("1/%d: the lone requests retained nothing", sc.scale)
		}
		if bound := int64(heapFactor*float64(retained)) + sc.synthetic; grew > bound {
			t.Errorf("1/%d: heap grew %d bytes, over %.2f x %d retained + %d synthetic = %d",
				sc.scale, grew, heapFactor, retained, sc.synthetic, bound)
		}
	}
}
