package sim_test

import (
	"context"
	"fmt"
	"testing"

	"grasp/internal/apps"
	"grasp/internal/exp"
	"grasp/internal/graph"
	"grasp/internal/sim"
)

// BenchmarkRecord is the recording pass's curve over problem size: the
// application executes into the L1/L2 filter and the trace encoder, under
// the geometry exp.ScaledConfig gives each scale.
//
//	go test ./internal/sim -run '^$' -bench Record -benchtime 20x
//
// ns/app-access prices the filter (every access pays it), ns/llc-access
// is the same time per access that survives to the recording.
func BenchmarkRecord(b *testing.B) {
	for _, name := range []string{"lj", "uni"} {
		for _, scale := range []uint32{64, 16, 4} {
			// A group per workload, so a -bench filter prepares only the
			// graphs it selects.
			b.Run(fmt.Sprintf("%s/scale%d", name, scale), func(b *testing.B) {
				ds, err := graph.DatasetByName(name)
				if err != nil {
					b.Fatal(err)
				}
				w, err := sim.PrepareWorkload(ds, "DBG", false, scale)
				if err != nil {
					b.Fatal(err)
				}
				hcfg := exp.ScaledConfig(scale).HCfg
				for _, app := range []string{"PR", "BFS"} {
					b.Run(app, func(b *testing.B) {
						var appAccesses, llcAccesses uint64
						for i := 0; i < b.N; i++ {
							tr, err := sim.RecordTraceNCtx(context.Background(), w, app, apps.LayoutMerged, hcfg, 0)
							if err != nil {
								b.Fatal(err)
							}
							appAccesses, llcAccesses = tr.L1Stats().Accesses(), uint64(tr.Len())
							tr.Release()
						}
						ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
						b.ReportMetric(ns/float64(appAccesses), "ns/app-access")
						b.ReportMetric(ns/float64(llcAccesses), "ns/llc-access")
					})
				}
			})
		}
	}
}
