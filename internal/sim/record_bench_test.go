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
// is the same time per access that survives to the recording, and
// B/llc-access is the encoded density (SizeBytes / Len: 2 when every
// record takes the short form, plus each chunk's few-byte header). lj
// also has a scale-1 row, where the density is lowest. KCore on tw is
// the row that keeps a superlinear term priced: its peel phases number
// tw's k_max, and a phase that cost n rather than its own accesses
// showed up as ns/llc-access growing with scale.
func BenchmarkRecord(b *testing.B) {
	for _, name := range []string{"lj", "tw", "uni"} {
		scales := []uint32{64, 16, 4}
		if name == "lj" {
			scales = append(scales, 1)
		}
		for _, scale := range scales {
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
				for _, app := range []string{"PR", "BFS", "KCore"} {
					b.Run(app, func(b *testing.B) {
						var appAccesses, llcAccesses uint64
						var bytes int64
						for i := 0; i < b.N; i++ {
							tr, err := sim.RecordTraceNCtx(context.Background(), w, app, apps.LayoutMerged, hcfg, 0)
							if err != nil {
								b.Fatal(err)
							}
							appAccesses, llcAccesses, bytes = tr.L1Stats().Accesses(), uint64(tr.Len()), tr.SizeBytes()
						}
						ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
						b.ReportMetric(ns/float64(appAccesses), "ns/app-access")
						b.ReportMetric(ns/float64(llcAccesses), "ns/llc-access")
						b.ReportMetric(float64(bytes)/float64(llcAccesses), "B/llc-access")
					})
				}
			})
		}
	}
}
