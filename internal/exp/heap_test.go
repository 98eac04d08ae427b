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

// heapScales are the scales TestPrefetchHeapBound runs.
var heapScales = []struct {
	scale uint32
	slow  bool
}{{16, false}, {4, true}}

// TestPrefetchHeapBound prefetches fig5, fig8 and fig9 on a fresh store
// and, after a collection, holds the live heap's growth under heapFactor
// x CacheBytesRetained (DESIGN.md Sec. 10): the batch forgets the
// synthetic workloads it prepared, which the store does not charge, so
// what -cache-mb bounds is, within that factor, everything the session
// keeps. 1/16 runs in tier-1, 1/4 under -long.
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
		t.Logf("1/%d: heap grew %.1f MB for %.1f MB retained: %.2f x retained (bound %.2f)",
			sc.scale, float64(grew)/1e6, float64(retained)/1e6, float64(grew)/float64(retained), heapFactor)
		if retained == 0 {
			t.Fatalf("1/%d: the prefetch retained nothing", sc.scale)
		}
		if bound := int64(heapFactor * float64(retained)); grew > bound {
			t.Errorf("1/%d: heap grew %d bytes, over %.2f x %d retained = %d",
				sc.scale, grew, heapFactor, retained, bound)
		}
	}
}
