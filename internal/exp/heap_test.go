package exp

import (
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

// heapScales are the scales TestPrefetchHeapBound runs and, for each, the
// uncharged synthetic workloads' bound: TestSyntheticWorkloadFootprintBound
// holds the 1/16 sum under 21 MB, and the 1/4 sum measured 82.05 MB.
var heapScales = []struct {
	scale     uint32
	synthetic int64
	slow      bool
}{{16, 21_000_000, false}, {4, 84_000_000, true}}

// TestPrefetchHeapBound prefetches fig5, fig8 and fig9 on a fresh store
// and, after a collection, holds the live heap's growth under heapFactor
// x CacheBytesRetained plus the synthetic workloads the store does not
// charge (DESIGN.md Sec. 10): what -cache-mb bounds is, within that
// factor, what the recordings hold. 1/16 runs in tier-1, 1/4 under -long.
func TestPrefetchHeapBound(t *testing.T) {
	for _, sc := range heapScales {
		if sc.slow && !*long {
			continue
		}
		var pts []Datapoint
		for _, id := range []string{"fig5", "fig8", "fig9"} {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			pts = append(pts, e.Points()...)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := NewSession(ScaledConfig(sc.scale))
		if err := s.Prefetch(pts); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		retained := s.CacheBytesRetained()
		runtime.KeepAlive(s)
		t.Logf("1/%d: heap grew %.1f MB for %.1f MB retained: %.2f x retained + %.1f MB synthetic bound (factor %.2f)",
			sc.scale, float64(grew)/1e6, float64(retained)/1e6, float64(grew-sc.synthetic)/float64(retained),
			float64(sc.synthetic)/1e6, heapFactor)
		if retained == 0 {
			t.Fatalf("1/%d: the prefetch retained nothing", sc.scale)
		}
		if bound := int64(heapFactor*float64(retained)) + sc.synthetic; grew > bound {
			t.Errorf("1/%d: heap grew %d bytes, over %.2f x %d retained + %d synthetic = %d",
				sc.scale, grew, heapFactor, retained, sc.synthetic, bound)
		}
	}
}
