package sim_test

import (
	"context"
	"testing"

	"grasp/internal/apps"
	"grasp/internal/exp"
	"grasp/internal/graph"
	"grasp/internal/sim"
)

// densityBounds are the stated bounds on the encoded bytes per LLC-bound
// access of the lj and tw x PR and BC recordings at each CI scale, summed
// over the four (measured 2.38 at 1/64 and 2.52 at 1/16). The store
// charges a recording its encoded bytes (DESIGN.md Sec. 10), so this
// density is most of what a process's recordings cost.
var densityBounds = []struct {
	scale uint32
	bound float64
}{{64, 2.45}, {16, 2.6}}

// TestRecordingDensity records lj and tw x PR and BC under DBG at 1/64
// and 1/16 and holds their encoded bytes per access under the stated
// bound, so a codec change that loses the one-halfword short form (or
// widens the medium one) fails a named test instead of only moving a
// peak-RSS number.
func TestRecordingDensity(t *testing.T) {
	for _, b := range densityBounds {
		var bytes, accesses int64
		hcfg := exp.ScaledConfig(b.scale).HCfg
		for _, name := range []string{"lj", "tw"} {
			ds, err := graph.DatasetByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w, err := sim.PrepareWorkload(ds, "DBG", false, b.scale)
			if err != nil {
				t.Fatal(err)
			}
			for _, app := range []string{"PR", "BC"} {
				tr, err := sim.RecordTraceNCtx(context.Background(), w, app, apps.LayoutMerged, hcfg, 0)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("1/%d %s/%s: %d accesses, %.3f B/access", b.scale, name, app, tr.Len(), float64(tr.SizeBytes())/float64(tr.Len()))
				bytes += tr.SizeBytes()
				accesses += tr.Len()
			}
		}
		got := float64(bytes) / float64(accesses)
		t.Logf("1/%d: %.3f B/access over %d accesses (bound %.2f)", b.scale, got, accesses, b.bound)
		if got > b.bound {
			t.Errorf("1/%d: recordings encode at %.3f B/access, over the stated bound %.2f", b.scale, got, b.bound)
		}
	}
}
